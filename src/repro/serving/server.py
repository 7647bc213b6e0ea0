"""NDJSON-over-TCP front end for the serving runtime (stdlib only).

One JSON object per line, one response line per request, connections
multiplex freely (each line is independent).  Operations::

    {"op": "score", "features": [[3, 1.0], [17, 0.5]], "deadline_ms": 50}
      -> {"ok": true, "value": 0.61, "raw": 0.44, "version": 1,
          "batch_seq": 9, "batch_size": 4, "queued_ms": 1.2,
          "score_ms": 0.3}
    {"op": "swap", "model": "/path/to/model.json"}
      -> {"ok": true, "version": 2}
    {"op": "stats"}   -> {"ok": true, "stats": {...metrics snapshot...}}
    {"op": "ping"}    -> {"ok": true, "version": 1, "n_features": 47236}
    {"op": "shutdown"} -> {"ok": true} (then the server stops)

``op`` defaults to ``"score"`` so the hot path can omit it.  A shed
request answers ``{"ok": false, "error": "rejected", "reason": ...}``
— explicit load shedding is part of the wire contract, not an
exception.  So is a malformed line: it answers ``bad_json`` or
``bad_request`` and the connection lives on (a line over the stream
limit is answered, then that connection is closed — the rest of the
line is still in the pipe).
"""

from __future__ import annotations

import asyncio
import json

from ..errors import ReproError, RequestRejectedError
from .runtime import ServingRuntime

__all__ = ["ServingServer"]


def _bad_request(detail: str) -> dict:
    return {"ok": False, "error": "bad_request", "detail": detail}


async def _reply(writer: asyncio.StreamWriter, response: dict) -> None:
    writer.write(json.dumps(response).encode("utf-8") + b"\n")
    await writer.drain()


class ServingServer:
    """Binds a :class:`ServingRuntime` to an asyncio TCP listener.

    Args:
        runtime: A started (or startable) runtime; the server starts it
            if needed on :meth:`start`.
        host: Interface to bind.
        port: Port to bind; 0 picks a free one (read :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.runtime = runtime
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._shutdown = asyncio.Event()

    async def start(self) -> None:
        """Start the runtime (if stopped) and begin listening."""
        if not self.runtime.running:
            await self.runtime.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_until_shutdown(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`close`) arrives."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        """Stop listening and stop the runtime."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.runtime.running:
            await self.runtime.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._shutdown.is_set():
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # Over the StreamReader limit, and the rest of the
                    # line is still in the pipe: answer, then hang up.
                    await _reply(writer, _bad_request(f"line too long: {exc}"))
                    break
                if not line:
                    break
                await _reply(writer, await self._dispatch(line))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, line: bytes) -> dict:
        try:
            payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # Not only JSONDecodeError: invalid UTF-8 is a plain
            # ValueError, and 64 KiB of "[" overflows the parser's stack.
            return {"ok": False, "error": "bad_json", "detail": str(exc)}
        if not isinstance(payload, dict):
            return _bad_request("each line must be a JSON object")
        op = payload.get("op", "score")
        try:
            if op == "score":
                return await self._op_score(payload)
            if op == "swap":
                return await self._op_swap(payload)
            if op == "stats":
                return {"ok": True, "stats": self.runtime.metrics.snapshot()}
            if op == "ping":
                version = self.runtime.store.current()
                return {
                    "ok": True,
                    "version": version.version,
                    "n_features": version.n_features,
                    "n_trees": version.model.n_trees,
                }
            if op == "shutdown":
                self._shutdown.set()
                return {"ok": True}
        except RequestRejectedError as exc:
            return {"ok": False, "error": "rejected", "reason": exc.reason,
                    "detail": str(exc)}
        except ReproError as exc:
            return _bad_request(str(exc))
        return {"ok": False, "error": "unknown_op", "detail": repr(op)}

    async def _op_score(self, payload: dict) -> dict:
        features = payload.get("features", [])
        try:
            # OverflowError: JSON's 1e400 parses to inf, and int(inf) raises.
            indices = [int(pair[0]) for pair in features]
            values = [float(pair[1]) for pair in features]
        except (TypeError, ValueError, IndexError, OverflowError):
            return _bad_request("features must be [[index, value], ...]")
        deadline_ms = payload.get("deadline_ms")
        try:
            if deadline_ms is not None:
                deadline_ms = float(deadline_ms)
        except (TypeError, ValueError):
            return _bad_request("deadline_ms must be a number")
        prediction = await self.runtime.submit(
            indices, values, deadline_ms=deadline_ms
        )
        return {
            "ok": True,
            "value": prediction.value,
            "raw": prediction.raw,
            "version": prediction.version,
            "batch_seq": prediction.batch_seq,
            "batch_size": prediction.batch_size,
            "queued_ms": prediction.queued_ms,
            "score_ms": prediction.score_ms,
        }

    async def _op_swap(self, payload: dict) -> dict:
        path = payload.get("model")
        if not isinstance(path, str):
            return _bad_request("swap needs a 'model' artifact path")
        version = await self.runtime.swap(path)
        return {"ok": True, "version": version.version}
