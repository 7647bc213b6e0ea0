"""ServingServer: the NDJSON-over-TCP wire protocol."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serving import ModelStore, ServingConfig, ServingRuntime, ServingServer

from .conftest import make_rows, rows_to_csr


async def roundtrip(reader, writer, payload: dict) -> dict:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=10)
    return json.loads(line)


def test_wire_protocol(artifact_a, artifact_b, model_a, model_b):
    rows = make_rows(8, 3)

    async def body():
        store = ModelStore()
        store.load(artifact_a)
        runtime = ServingRuntime(
            store, ServingConfig(max_batch_rows=8)
        )
        server = ServingServer(runtime, host="127.0.0.1", port=0)
        await server.start()
        assert server.port != 0
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            responses = {}
            responses["ping"] = await roundtrip(reader, writer, {"op": "ping"})
            features = [
                [int(i), float(v)] for i, v in zip(rows[0][0], rows[0][1])
            ]
            # op defaults to "score" — the hot path omits it.
            responses["score"] = await roundtrip(
                reader, writer, {"features": features}
            )
            responses["bad_json"] = await roundtrip(
                reader, writer, {"op": "score", "features": "nope"}
            )
            writer.write(b"{broken\n")
            await writer.drain()
            responses["broken"] = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )
            responses["unknown"] = await roundtrip(
                reader, writer, {"op": "frobnicate"}
            )
            responses["swap"] = await roundtrip(
                reader, writer, {"op": "swap", "model": artifact_b}
            )
            responses["score_after_swap"] = await roundtrip(
                reader, writer, {"features": features}
            )
            responses["stats"] = await roundtrip(reader, writer, {"op": "stats"})
            responses["shutdown"] = await roundtrip(
                reader, writer, {"op": "shutdown"}
            )
        finally:
            writer.close()
            await server.close()
            store.close()
        return responses

    responses = asyncio.run(body())

    ping = responses["ping"]
    assert ping["ok"] and ping["version"] == 1
    assert ping["n_features"] == model_a.n_features

    X = rows_to_csr(rows[:1])
    expected_a = model_a.compiled().predict_raw(
        X, base_score=model_a.base_score
    )
    score = responses["score"]
    assert score["ok"] and score["version"] == 1
    assert score["raw"] == float(expected_a[0])
    assert 0.0 <= score["value"] <= 1.0  # logistic transform applied

    assert responses["bad_json"] == {
        "ok": False,
        "error": "bad_request",
        "detail": "features must be [[index, value], ...]",
    }
    assert responses["broken"]["error"] == "bad_json"
    assert responses["unknown"]["error"] == "unknown_op"

    assert responses["swap"] == {"ok": True, "version": 2}
    expected_b = model_b.compiled().predict_raw(
        X, base_score=model_b.base_score
    )
    after = responses["score_after_swap"]
    assert after["version"] == 2
    assert after["raw"] == float(expected_b[0])

    stats = responses["stats"]
    assert stats["ok"]
    assert stats["stats"]["served"] == 2
    assert stats["stats"]["swaps"] == 1
    json.dumps(stats)  # the snapshot stays JSON-safe end to end

    assert responses["shutdown"] == {"ok": True}


def test_failed_swap_is_a_wire_answer_not_a_drop(artifact_a, tmp_path):
    """Swapping to a missing/corrupt artifact answers {ok: false} on the
    same connection and keeps serving the old version."""
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json", encoding="utf-8")

    async def body():
        store = ModelStore()
        store.load(artifact_a)
        runtime = ServingRuntime(store)
        server = ServingServer(runtime, host="127.0.0.1", port=0)
        await server.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            responses = {
                "missing": await roundtrip(
                    reader,
                    writer,
                    {"op": "swap", "model": str(tmp_path / "missing.json")},
                ),
                "corrupt": await roundtrip(
                    reader, writer, {"op": "swap", "model": str(corrupt)}
                ),
                # Same connection still answers; v1 still serves.
                "ping": await roundtrip(reader, writer, {"op": "ping"}),
            }
        finally:
            writer.close()
            await server.close()
            store.close()
        return responses

    responses = asyncio.run(body())
    for kind in ("missing", "corrupt"):
        assert responses[kind]["ok"] is False, responses[kind]
        assert responses[kind]["error"] == "bad_request"
        assert "failed to load" in responses[kind]["detail"]
    assert responses["ping"]["ok"] and responses["ping"]["version"] == 1


def test_rejection_is_a_wire_answer_not_a_drop(artifact_a):
    """A shed request gets an explicit {ok: false, reason} response."""

    async def body():
        store = ModelStore()
        store.load(artifact_a)
        runtime = ServingRuntime(store)
        server = ServingServer(runtime, host="127.0.0.1", port=0)
        await server.start()
        # Stop intake while the server is still answering lines.
        await runtime.stop()
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            response = await roundtrip(
                reader, writer, {"features": [[1, 1.0]]}
            )
        finally:
            writer.close()
            await server.close()
            store.close()
        return response

    response = asyncio.run(body())
    assert response["ok"] is False
    assert response["error"] == "rejected"
    assert response["reason"] == "shutdown"


@pytest.mark.parametrize(
    "line, error, closes",
    [
        (b'{"features": [[1, 1.0]], "deadline_ms": "soon"}', "bad_request", False),
        (b'{"features": [[1, 1.0]], "deadline_ms": [1]}', "bad_request", False),
        (b'{"features": [[1, 1.0]], "deadline_ms": NaN}', "bad_request", False),
        (b'{"features": [[1, 1.0]], "deadline_ms": 0}', "bad_request", False),
        (b'{"features": [[3, 1.0], [1, 0.5]]}', "bad_request", False),
        (b'{"features": [[1e400, 0.5]]}', "bad_request", False),
        (b'{"features": [[1099511627776, 0.5]]}', "bad_request", False),
        (b'{"a": "\xff"}', "bad_json", False),
        (b"[" * 60_000, "bad_json", False),
        (b'{"pad": "' + b"x" * 70_000 + b'"}', "bad_request", True),
    ],
    ids=[
        "deadline-str", "deadline-list", "deadline-nan", "deadline-zero",
        "unsorted", "index-inf", "index-int32",
        "utf8", "nesting", "oversized",
    ],
)
def test_malformed_line_is_a_wire_answer_not_a_drop(
    artifact_a, line, error, closes
):
    """Every malformed line gets exactly one {ok: false} reply; nothing
    reaches the loop's exception handler; other connections (and this
    one, unless the line overran the stream limit) keep being served."""
    unhandled = []

    async def body():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        store = ModelStore()
        store.load(artifact_a)
        server = ServingServer(ServingRuntime(store), port=0)
        await server.start()
        reader, writer = await asyncio.open_connection(server.host, server.port)
        other = await asyncio.open_connection(server.host, server.port)
        try:
            writer.write(line + b"\n")
            await writer.drain()
            reply = json.loads(
                await asyncio.wait_for(reader.readline(), timeout=10)
            )
            if closes:
                follow_up = await asyncio.wait_for(reader.read(), timeout=10)
            else:
                follow_up = await roundtrip(reader, writer, {"op": "ping"})
            elsewhere = await roundtrip(*other, {"features": [[1, 1.0]]})
            # Read now: tearing the loop down with connections open
            # makes 3.11's streams report their cancelled handlers.
            seen = list(unhandled)
        finally:
            writer.close()
            other[1].close()
            await server.close()
            store.close()
        return reply, follow_up, elsewhere, seen

    reply, follow_up, elsewhere, seen = asyncio.run(body())
    assert reply["ok"] is False and reply["error"] == error, reply
    if closes:
        assert follow_up == b""  # EOF: the server hung up after replying
    else:
        assert follow_up["ok"]
    assert elsewhere["ok"] and elsewhere["version"] == 1
    assert seen == []
