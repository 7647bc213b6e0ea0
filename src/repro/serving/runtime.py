"""The asyncio serving runtime: admission queue + dynamic micro-batcher.

Request flow::

    submit() ──admission──▶ asyncio.Queue ──batch loop──▶ CSR assembly
        │ (reject: queue full)    │ (reject: deadline expired)
        │                         ▼
        ◀──────── future ◀── run_in_executor(score) ◀── ModelStore.current()

The batching loop waits for a first request, greedily drains whatever
else is already queued (up to ``max_batch_rows``) and flushes at once.
It never waits on a timer: the flush is awaited, so whatever arrives
while it scores is the next batch.  Batches form from back-pressure —
their size grows with load by itself (big batches feed the flat kernel
the cache-sized blocks it wants), and an idle runtime answers a lone
request immediately.

Scoring runs on a dedicated single-thread executor: the event loop
keeps admitting (and shedding) requests while numpy works, and at most
one batch is ever in flight — which is what makes hot-swap trivially
safe (the loop reads :meth:`ModelStore.current` once per flush and
scores the whole batch on that version).

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
from ..utils.timing import wall_clock
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
        max_batch_rows: Most rows one micro-batch may hold; a longer
            backlog is split.  1 disables coalescing (the
            single-row-sequential baseline).
        queue_limit: Admission bound; a submit finding this many
            requests queued is rejected immediately (explicit shed, not
            queue collapse).
        deadline_ms: Default per-request deadline (milliseconds from
            admission); a request still queued past it is rejected at
            dequeue instead of scored late.  None = no default deadline.
    """

    max_batch_rows: int = 256
    queue_limit: int = 1024
    deadline_ms: float | None = None

    def __post_init__(self) -> None:
        _require(
            self.max_batch_rows >= 1,
            f"max_batch_rows must be >= 1, got {self.max_batch_rows}",
        )
        _require(
            self.queue_limit >= 1,
            f"queue_limit must be >= 1, got {self.queue_limit}",
        )
        _require(
            self.deadline_ms is None or self.deadline_ms > 0.0,
            f"deadline_ms must be > 0 or None, got {self.deadline_ms}",
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


@dataclass(slots=True, eq=False)
class _Request:
    """Internal queue entry: validated row + response future."""

    indices: np.ndarray
    values: np.ndarray
    #: Width of the version the indices were validated against: a hot
    #: swap may publish a narrower one before this row is scored.
    n_features: int
    arrival: float
    deadline_at: float | None
    future: "asyncio.Future[Prediction]"


class _Stop:
    """Queue sentinel ending the batch loop."""


_STOP = _Stop()


class ServingRuntime:
    """Owns the admission queue, the batch loop, and the score executor.

    Usage (inside a running event loop)::

        store = ModelStore()
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
        # One scoring thread: batches serialize (at most one in flight)
        # and the event loop stays responsive while numpy holds the GIL
        # slices it needs.
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
        assert self._queue is not None and self._score_pool is not None
        self._queue.put_nowait(_STOP)
        try:
            # The loop sheds what it did not pick up on its way out; a
            # loop that died re-raises here what killed it.
            await self._batch_task
        finally:
            self._batch_task = None
            self._queue = None
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
            self.metrics.rejected_shutdown += 1
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
        try:
            idx = np.asarray(indices, dtype=np.int32)
            val = np.asarray(values, dtype=np.float32)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ServingError(f"row is not numeric: {exc}") from None
        if idx.ndim != 1 or val.ndim != 1 or len(idx) != len(val):
            raise ServingError(
                f"row must be parallel 1-D indices/values, got shapes "
                f"{idx.shape} and {val.shape}"
            )
        n_features = self.store.current().n_features
        if len(idx) and (
            idx[0] < 0
            or idx[-1] >= n_features
            or (idx[1:] <= idx[:-1]).any()
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
            n_features,
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
        queue = self._queue
        assert queue is not None
        batch: list[_Request] = []
        try:
            while not self._stopping:
                first = await queue.get()
                if isinstance(first, _Stop):
                    return
                batch = [first]
                self._fill_nowait(batch)
                # Awaited: what arrives while this batch scores is the
                # next batch, so batches grow with load and never wait
                # on a clock.
                await self._flush(batch)
        finally:
            # However the loop ends, nothing may be left waiting on it:
            # later submits are refused, and what it did not answer —
            # queued, or in hand when it died — is shed.
            self._stopping = True
            while not queue.empty():
                item = queue.get_nowait()
                if isinstance(item, _Request):
                    batch.append(item)
            for request in batch:
                if not request.future.done():
                    self.metrics.rejected_shutdown += 1
                    self._reject(request, "shutdown", "runtime stopped")

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

    async def _flush(self, batch: list[_Request]) -> None:
        """Shed expired requests, score the rest as one row block.

        Never raises: whatever goes wrong with one batch is answered to
        that batch's requests, and the loop takes the next one.
        """
        try:
            await self._score(batch)
        except Exception as exc:  # the loop must outlive any one batch
            error = ServingError(f"scoring failed: {exc}")
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(error)

    async def _score(self, batch: list[_Request]) -> None:
        drained_at = wall_clock()
        version = self.store.current()  # read once: the whole batch
        n_features = version.n_features
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
            elif (
                request.n_features > n_features
                and len(request.indices)
                and request.indices[-1] >= n_features
            ):
                # Admitted under a wider version that a hot swap has
                # since replaced; its batch-mates are scored as usual.
                request.future.set_exception(
                    ServingError(
                        f"feature {request.indices[-1]} is outside version "
                        f"{version.version}'s width {n_features}"
                    )
                )
            else:
                live.append(request)
        if not live:
            self.metrics.empty_flushes += 1
            return

        X = self._assemble(live, n_features)
        self._batch_seq += 1
        batch_seq = self._batch_seq
        assert self._score_pool is not None
        score_started = wall_clock()
        raw = await asyncio.get_running_loop().run_in_executor(
            self._score_pool, version.predict_raw, X
        )
        score_ms = (wall_clock() - score_started) * 1e3
        # One conversion per batch, not one float() per request.
        raws, values = raw.tolist(), version.transform(raw).tolist()

        self.metrics.observe_batch(len(live))
        self.metrics.served += len(live)
        self.metrics.score.observe(score_ms / 1e3)
        done_at = wall_clock()
        for request, raw_i, value_i in zip(live, raws, values, strict=True):
            queued_ms = (drained_at - request.arrival) * 1e3
            self.metrics.queue_wait.observe(queued_ms / 1e3)
            self.metrics.total.observe(done_at - request.arrival)
            if not request.future.done():
                request.future.set_result(
                    Prediction(
                        raw=raw_i,
                        value=value_i,
                        version=version.version,
                        batch_seq=batch_seq,
                        batch_size=len(live),
                        queued_ms=queued_ms,
                        score_ms=score_ms,
                    )
                )

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
