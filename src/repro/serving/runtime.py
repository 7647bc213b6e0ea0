"""The asyncio serving runtime: admission queue + dynamic micro-batcher.

Request flow::

    submit() ──admission──▶ asyncio.Queue ──batch loop──▶ CSR assembly
        │ (reject: queue full)    │ (reject: deadline expired)
        │                         ▼
        ◀──────── future ◀── run_in_executor(score) ◀── ModelStore.current()

The batching loop waits for a first request, greedily drains whatever
is already queued, then keeps the batch open until either
``max_batch_rows`` is reached or ``max_batch_delay_ms`` has elapsed
since the batch opened — so throughput scales with load (big batches
feed the flat kernel the cache-sized blocks it wants) while p99 stays
bounded at low load (a lone request waits at most the delay budget).

Scoring runs on a dedicated single-thread executor: the event loop
keeps admitting (and shedding) requests while numpy works, and at most
one batch is ever in flight — which is what makes hot-swap trivially
safe (the loop reads :meth:`ModelStore.current` once per flush; retired
versions are released only between flushes).

Rows are independent in :meth:`FlatEnsemble.score_into`, so micro-batch
composition never changes bits: every response is bit-identical to a
direct ``FlatEnsemble.predict_raw`` on the same row, whatever batch it
landed in — asserted by the traffic-replay bench on every trace.

All instants come from :mod:`repro.utils.timing` (the RP002 seam).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import ConfigError, RequestRejectedError, ServingError
from ..utils.timing import Deadline, wall_clock
from .metrics import ServingMetrics
from .store import ModelStore, ModelVersion

__all__ = ["Prediction", "ServingConfig", "ServingRuntime"]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class ServingConfig:
    """Tuning knobs of one :class:`ServingRuntime`.

    Attributes:
        max_batch_rows: Flush a micro-batch at this many rows.  1
            disables coalescing (the single-row-sequential baseline).
        max_batch_delay_ms: Flush an under-filled batch this many
            milliseconds after it opened — the p99 bound at low load.
        queue_limit: Admission bound; a submit finding this many
            requests queued is rejected immediately (explicit shed, not
            queue collapse).
        deadline_ms: Default per-request deadline (milliseconds from
            admission); a request still queued past it is rejected at
            dequeue instead of scored late.  None = no default deadline.
        n_processes: Scoring processes per model version (>= 2 routes
            through the ``ParallelScorer`` fork+shared-memory seam).
        batch_rows: Row-block size for the scoring kernel (None = the
            flat ensemble's cache-sized default).
    """

    max_batch_rows: int = 256
    max_batch_delay_ms: float = 2.0
    queue_limit: int = 1024
    deadline_ms: float | None = None
    n_processes: int = 1
    batch_rows: int | None = None

    def __post_init__(self) -> None:
        _require(
            self.max_batch_rows >= 1,
            f"max_batch_rows must be >= 1, got {self.max_batch_rows}",
        )
        _require(
            self.max_batch_delay_ms >= 0.0,
            f"max_batch_delay_ms must be >= 0, got {self.max_batch_delay_ms}",
        )
        _require(
            self.queue_limit >= 1,
            f"queue_limit must be >= 1, got {self.queue_limit}",
        )
        _require(
            self.deadline_ms is None or self.deadline_ms > 0.0,
            f"deadline_ms must be > 0 or None, got {self.deadline_ms}",
        )
        _require(
            self.n_processes >= 1,
            f"n_processes must be >= 1, got {self.n_processes}",
        )
        _require(
            self.batch_rows is None or self.batch_rows >= 1,
            f"batch_rows must be >= 1 or None, got {self.batch_rows}",
        )


@dataclass(frozen=True)
class Prediction:
    """One scored request, stamped with full provenance.

    Attributes:
        raw: Raw margin score (bit-identical to direct flat scoring).
        value: Loss-transformed output (probability for logistic).
        version: Model version that scored the row — the hot-swap
            integrity stamp.
        batch_seq: Sequence number of the micro-batch the row rode in.
        batch_size: Rows scored together in that batch.
        queued_ms: Admission-to-dequeue wait.
        score_ms: Kernel time of the whole batch (shared by its rows).
    """

    raw: float
    value: float
    version: int
    batch_seq: int
    batch_size: int
    queued_ms: float
    score_ms: float


class _Request:
    """Internal queue entry: validated row + response future."""

    __slots__ = ("indices", "values", "arrival", "deadline_at", "future")

    def __init__(
        self,
        indices: np.ndarray,
        values: np.ndarray,
        arrival: float,
        deadline_at: float | None,
        future: "asyncio.Future[Prediction]",
    ) -> None:
        self.indices = indices
        self.values = values
        self.arrival = arrival
        self.deadline_at = deadline_at
        self.future = future


class _Stop:
    """Queue sentinel ending the batch loop."""


_STOP = _Stop()


class ServingRuntime:
    """Owns the admission queue, the batch loop, and the score executor.

    Usage (inside a running event loop)::

        store = ModelStore(n_processes=1)
        store.load("model.json")
        runtime = ServingRuntime(store, ServingConfig())
        await runtime.start()
        prediction = await runtime.submit([3, 17], [1.0, 0.5])
        await runtime.stop()

    ``submit`` raises :class:`RequestRejectedError` when the request is
    shed (queue full / deadline expired / shutdown) and returns a
    :class:`Prediction` otherwise.
    """

    def __init__(
        self,
        store: ModelStore,
        config: ServingConfig | None = None,
        metrics: ServingMetrics | None = None,
    ) -> None:
        self.store = store
        self.config = config or ServingConfig()
        self.metrics = metrics or ServingMetrics()
        self._queue: "asyncio.Queue[_Request | _Stop] | None" = None
        self._batch_task: asyncio.Task | None = None
        # One scoring thread: batches serialize (at most one in flight),
        # the event loop stays responsive while numpy holds the GIL
        # slices it needs, and retired model versions can be released
        # between flushes without racing a score.
        self._score_pool: ThreadPoolExecutor | None = None
        self._batch_seq = 0
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind to the running loop and start the batch loop."""
        if self._batch_task is not None:
            raise ServingError("runtime already started")
        if not self.store.loaded:
            raise ServingError("ModelStore has no version; load one first")
        self._stopping = False
        self._queue = asyncio.Queue()
        self._score_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-score"
        )
        self._batch_task = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )

    async def stop(self) -> None:
        """Drain nothing: finish the in-flight batch, shed the rest."""
        if self._batch_task is None:
            return
        self._stopping = True
        assert self._queue is not None
        self._queue.put_nowait(_STOP)
        await self._batch_task
        self._batch_task = None
        # Whatever the loop did not pick up is shed explicitly.
        while not self._queue.empty():
            item = self._queue.get_nowait()
            if isinstance(item, _Request):
                self._reject(item, "shutdown", "runtime stopped")
        self._queue = None
        if self._score_pool is not None:
            self._score_pool.shutdown(wait=True)
            self._score_pool = None

    @property
    def running(self) -> bool:
        """Whether the batch loop is active."""
        return self._batch_task is not None and not self._batch_task.done()

    def queue_depth(self) -> int:
        """Requests currently admitted but not yet drained."""
        return self._queue.qsize() if self._queue is not None else 0

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------

    async def submit(
        self,
        indices: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        deadline_ms: float | None = None,
    ) -> Prediction:
        """Score one sparse row; resolves when its micro-batch lands.

        Args:
            indices: Sorted, duplicate-free feature ids of the row.
            values: Matching feature values.
            deadline_ms: Per-request deadline override (milliseconds
                from now); defaults to ``config.deadline_ms``.

        Raises:
            RequestRejectedError: Shed by admission or deadline control.
            ServingError: Malformed row or runtime not started.
        """
        if self._queue is None or self._stopping:
            raise RequestRejectedError("shutdown", "runtime is not accepting")
        request = self._admit(indices, values, deadline_ms)
        return await request.future

    def _admit(
        self,
        indices: Sequence[int] | np.ndarray,
        values: Sequence[float] | np.ndarray,
        deadline_ms: float | None,
    ) -> _Request:
        assert self._queue is not None
        if self._queue.qsize() >= self.config.queue_limit:
            self.metrics.rejected_queue_full += 1
            raise RequestRejectedError(
                "queue_full",
                f"admission queue at limit ({self.config.queue_limit})",
            )
        idx = np.asarray(indices, dtype=np.int32)
        val = np.asarray(values, dtype=np.float32)
        if idx.ndim != 1 or val.ndim != 1 or len(idx) != len(val):
            raise ServingError(
                f"row must be parallel 1-D indices/values, got shapes "
                f"{idx.shape} and {val.shape}"
            )
        n_features = self.store.current().n_features
        if len(idx) and (
            idx[0] < 0
            or idx[-1] >= n_features
            or bool(np.any(np.diff(idx) <= 0))
        ):
            raise ServingError(
                f"indices must be strictly increasing within [0, "
                f"{n_features}), got {idx.tolist()[:8]}..."
            )
        arrival = wall_clock()
        budget_ms = (
            deadline_ms if deadline_ms is not None else self.config.deadline_ms
        )
        deadline_at = arrival + budget_ms / 1e3 if budget_ms is not None else None
        request = _Request(
            idx,
            val,
            arrival,
            deadline_at,
            asyncio.get_running_loop().create_future(),
        )
        self._queue.put_nowait(request)
        self.metrics.submitted += 1
        self.metrics.observe_queue_depth(self._queue.qsize())
        return request

    # ------------------------------------------------------------------
    # batch loop
    # ------------------------------------------------------------------

    async def _batch_loop(self) -> None:
        assert self._queue is not None
        while True:
            first = await self._queue.get()
            if isinstance(first, _Stop):
                return
            batch = [first]
            self._fill_nowait(batch)
            if len(batch) < self.config.max_batch_rows:
                stop = await self._fill_until_deadline(batch, first.arrival)
                if stop:
                    await self._flush(batch)
                    return
            await self._flush(batch)

    def _fill_nowait(self, batch: list[_Request]) -> None:
        """Greedily drain the backlog (never waits, never over-fills)."""
        assert self._queue is not None
        while len(batch) < self.config.max_batch_rows:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if isinstance(item, _Stop):
                self._stopping = True
                # Re-enqueue so the outer loop terminates after this
                # batch flushes.
                self._queue.put_nowait(item)
                return
            batch.append(item)

    async def _fill_until_deadline(
        self, batch: list[_Request], opened_at: float
    ) -> bool:
        """Keep the batch open until rows or delay budget runs out.

        Returns True when the stop sentinel arrived (flush then exit).
        """
        assert self._queue is not None
        deadline = Deadline(
            opened_at + self.config.max_batch_delay_ms / 1e3
        )
        while len(batch) < self.config.max_batch_rows:
            remaining = deadline.remaining()
            if remaining <= 0.0:
                return False
            try:
                item = await asyncio.wait_for(
                    self._queue.get(), timeout=remaining
                )
            except asyncio.TimeoutError:
                return False
            if isinstance(item, _Stop):
                return True
            batch.append(item)
        return False

    async def _flush(self, batch: list[_Request]) -> None:
        """Shed expired requests, score the rest as one row block."""
        drained_at = wall_clock()
        live: list[_Request] = []
        for request in batch:
            if (
                request.deadline_at is not None
                and drained_at > request.deadline_at
            ):
                self.metrics.rejected_deadline += 1
                self._reject(
                    request,
                    "deadline",
                    f"deadline expired after "
                    f"{(drained_at - request.arrival) * 1e3:.2f} ms in queue",
                )
            else:
                live.append(request)
        if not live:
            self.metrics.empty_flushes += 1
            return

        version = self.store.current()  # read once: the whole batch
        X = self._assemble(live, version.n_features)
        self._batch_seq += 1
        batch_seq = self._batch_seq
        loop = asyncio.get_running_loop()
        assert self._score_pool is not None
        score_started = wall_clock()
        try:
            raw = await loop.run_in_executor(
                self._score_pool, version.predict_raw, X
            )
        except Exception as exc:
            for request in live:
                if not request.future.done():
                    request.future.set_exception(
                        ServingError(f"scoring failed: {exc}")
                    )
            return
        score_ms = (wall_clock() - score_started) * 1e3
        value = version.transform(raw)

        self.metrics.observe_batch(len(live))
        self.metrics.score.observe(score_ms / 1e3)
        done_at = wall_clock()
        for i, request in enumerate(live):
            queued_ms = (drained_at - request.arrival) * 1e3
            self.metrics.queue_wait.observe(queued_ms / 1e3)
            self.metrics.total.observe(done_at - request.arrival)
            self.metrics.served += 1
            if not request.future.done():
                request.future.set_result(
                    Prediction(
                        raw=float(raw[i]),
                        value=float(value[i]),
                        version=version.version,
                        batch_seq=batch_seq,
                        batch_size=len(live),
                        queued_ms=queued_ms,
                        score_ms=score_ms,
                    )
                )
        # No batch is in flight here, so retiring old versions is safe.
        self.store.release_retired()

    @staticmethod
    def _assemble(batch: list[_Request], n_features: int) -> CSRMatrix:
        """Stack validated rows into one CSR block (the kernel's shape)."""
        lengths = np.fromiter(
            (len(r.indices) for r in batch), dtype=np.int64, count=len(batch)
        )
        indptr = np.zeros(len(batch) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if indptr[-1]:
            indices = np.concatenate([r.indices for r in batch])
            data = np.concatenate([r.values for r in batch])
        else:
            indices = np.empty(0, dtype=np.int32)
            data = np.empty(0, dtype=np.float32)
        return CSRMatrix(indptr, indices, data, (len(batch), n_features))

    def _reject(self, request: _Request, reason: str, detail: str) -> None:
        if not request.future.done():
            request.future.set_exception(RequestRejectedError(reason, detail))

    # ------------------------------------------------------------------
    # hot-swap
    # ------------------------------------------------------------------

    async def swap(self, path: str) -> ModelVersion:
        """Load ``path`` and hot-swap to it without pausing intake.

        The heavy load+compile runs in an executor; the publish inside
        :meth:`ModelStore.load` is the atomic pointer flip.  The batch
        in flight (if any) finishes on the old version; the next flush
        reads the new one.
        """
        loop = asyncio.get_running_loop()
        version = await loop.run_in_executor(None, self.store.load, path)
        self.metrics.swaps += 1
        return version
