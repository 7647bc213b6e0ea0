"""The asyncio serving runtime: admission queue + dynamic micro-batcher.

Request flow::

    submit() ──admission──▶ asyncio.Queue ──batch loop──▶ CSR assembly
        │ (reject: queue full,    │ (reject: deadline expired;
        │  malformed request)     ▼  indices that do not fit the version)
        ◀──────── future ◀── run_in_executor(score) ◀── ModelStore.current()

Admission checks only what must fail before a row is queued; indices
are checked once per batch, over the assembled block, against the
version that scores it.  The batching loop waits for a first request,
greedily drains whatever else is already queued (up to
``max_batch_rows``) and flushes at once.  It never waits on a timer:
the flush is awaited, so whatever arrives while it scores is the next
batch.  Batches form from back-pressure — their size grows with load
by itself (big batches feed the flat kernel the cache-sized blocks it
wants), and an idle runtime answers a lone request immediately.

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
from typing import NamedTuple, Sequence

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


class Prediction(NamedTuple):
    """One scored request, stamped with full provenance.

    A named tuple: immutable, and cheap to build once per served row.

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
    """Internal queue entry: a well-shaped row + response future (its
    indices are checked per batch, by :meth:`ServingRuntime._block`)."""

    indices: np.ndarray
    values: np.ndarray
    arrival: float
    deadline_at: float | None
    future: "asyncio.Future[Prediction]"


def _invalid_rows(
    indptr: np.ndarray, indices: np.ndarray, n_features: int
) -> np.ndarray:
    """Rows of a CSR block whose indices are not strictly increasing
    within ``[0, n_features)``, in one vectorised pass over the block.

    ``bad`` has a spare slot so ``indptr`` (values up to ``nnz``: empty
    rows may sit anywhere) can unmark every row's first entry unguarded;
    an entry belongs to the last row starting at or before it.
    """
    nnz = len(indices)
    bad = np.zeros(nnz + 1, dtype=bool)
    np.less_equal(indices[1:], indices[:-1], out=bad[1:nnz])
    bad[indptr] = False
    bad[:nnz] |= (indices < 0) | (indices >= n_features)
    at = np.flatnonzero(bad)
    return np.unique(np.searchsorted(indptr, at, side="right") - 1)


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
                from now, > 0); defaults to ``config.deadline_ms``.

        Raises:
            RequestRejectedError: Shed by admission or deadline control.
            ServingError: Malformed row or deadline (at once), or indices
                that do not fit the version scoring the row.
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
        if deadline_ms is None:
            deadline_ms = self.config.deadline_ms
        elif not deadline_ms > 0.0:  # NaN included: ServingConfig's rule
            raise ServingError(f"deadline_ms must be > 0, got {deadline_ms}")
        arrival = wall_clock()
        deadline_at = arrival + deadline_ms / 1e3 if deadline_ms is not None else None
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
        X = self._block(live, version)
        if not live:
            self.metrics.empty_flushes += 1
            return

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

        n_live = len(live)
        self.metrics.observe_batch(n_live)
        self.metrics.served += n_live
        self.metrics.score.observe(score_ms / 1e3)
        arrivals = [request.arrival for request in live]
        queued = [(drained_at - arrival) * 1e3 for arrival in arrivals]
        done_at = wall_clock()
        self.metrics.queue_wait.observe_many([ms / 1e3 for ms in queued])
        self.metrics.total.observe_many([done_at - t for t in arrivals])
        version_no = version.version
        for request, raw_i, value_i, wait_ms in zip(live, raws, values, queued):
            if not request.future.done():
                request.future.set_result(
                    Prediction(
                        raw_i, value_i, version_no, batch_seq, n_live, wait_ms, score_ms
                    )
                )

    def _block(self, live: list[_Request], version: ModelVersion) -> CSRMatrix:
        """Stack ``live`` into one CSR block (the kernel's shape).

        Rows whose indices do not fit ``version`` are answered
        ``ServingError`` and dropped from ``live`` in place; their
        batch-mates are scored as usual.
        """
        lengths = np.fromiter(
            (len(r.indices) for r in live), dtype=np.int64, count=len(live)
        )
        indptr = np.zeros(len(live) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if indptr[-1]:
            indices = np.concatenate([r.indices for r in live])
            data = np.concatenate([r.values for r in live])
        else:
            indices = np.empty(0, dtype=np.int32)
            data = np.empty(0, dtype=np.float32)
        n_features = version.n_features
        invalid = _invalid_rows(indptr, indices, n_features).tolist()
        for i in reversed(invalid):
            request = live.pop(i)
            error = ServingError(
                f"indices must be strictly increasing within [0, {n_features}) "
                f"of version {version.version}: {request.indices[:8].tolist()}..."
            )
            if not request.future.done():
                request.future.set_exception(error)
        if invalid:  # restack what is left: every row of it passes
            return self._block(live, version)
        return CSRMatrix(indptr, indices, data, (len(live), n_features))

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
