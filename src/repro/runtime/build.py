"""Histogram build strategies: how one node histogram gets constructed.

One strategy object, chosen once per fit:

* :class:`DenseBuildStrategy` — the traditional full scan over all
  ``M * K`` buckets (what the baseline systems do, Section 5.1).
* :class:`SparseBuildStrategy` — Algorithm 2's sparsity-aware build,
  O(zN + M) (DimBoost's C3 optimization).
* :class:`BatchedBuildStrategy` — Section 5.2's parallel batch
  construction over either kernel; by default it reports the simulated
  multi-core *span*, with ``real_threads=True`` it actually runs the
  batches on a thread pool (GIL-capped) and reports real wall-clock.
* :class:`ProcessParallelBuildStrategy` — Section 5.2 on real cores: a
  persistent process pool building batches against a zero-copy
  :class:`~repro.histogram.shared.SharedShard`, merged in the driver.

Every strategy returns ``(histogram, seconds)`` where ``seconds`` is
what a simulated worker should be charged for the build — measured
wall-clock for the serial and real-parallel paths, simulated span for
the span-accounting batched one — so the engine's phase barrier code no
longer branches on how the histogram was built.

Strategies that hold resources (the process pool, shared-memory
segments, pooled buffers) release them in :meth:`close`; trainers that
resolve a strategy themselves close it when the fit ends.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..config import TrainConfig
from ..histogram.binned import BinnedShard
from ..histogram.buffers import HistogramBufferPool
from ..histogram.builder import (
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from ..histogram.histogram import GradientHistogram
from ..histogram.parallel import (
    ParallelBuildResult,
    build_histogram_batched,
    simulate_span,
)
from ..histogram.shared import SharedShard, build_into_slot
from ..utils.arena import ForkPoolHost
from ..utils.timing import wall_clock

__all__ = [
    "HistogramBuildStrategy",
    "DenseBuildStrategy",
    "SparseBuildStrategy",
    "BatchedBuildStrategy",
    "ProcessParallelBuildStrategy",
    "resolve_build_strategy",
]


class HistogramBuildStrategy(ABC):
    """How a worker constructs one node's gradient histogram."""

    #: Short identifier used in logs and reprs.
    name: str = "abstract"
    #: Whether the underlying kernel is the traditional dense scan.
    dense: bool = False

    @abstractmethod
    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        """Build one node histogram.

        Returns:
            ``(histogram, seconds)`` — the histogram plus the seconds a
            simulated worker is charged for building it.
        """

    def release(self, histogram: GradientHistogram) -> None:
        """Give a consumed histogram's buffers back for reuse.

        Callers that are done with a histogram (e.g. the distributed
        engine after flattening it onto the wire) may hand it back so a
        pooled strategy can recycle the arrays.  No-op by default.  The
        histogram must not be used after release.
        """

    def close(self) -> None:
        """Release held resources (pools, shared memory).  No-op here."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DenseBuildStrategy(HistogramBuildStrategy):
    """Traditional dense scan over every (feature, bucket) pair.

    The kernel accumulates chunk by chunk into its output, so with a
    ``pool`` it builds straight into a recycled buffer.
    """

    name = "dense"
    dense = True

    def __init__(self, pool: HistogramBufferPool | None = None) -> None:
        self.pool = pool

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        out = None
        if self.pool is not None:
            out = self.pool.acquire(shard.n_features, shard.n_bins)
        histogram = build_node_histogram_dense(shard, rows, grad, hess, out=out)
        return histogram, wall_clock() - started

    def release(self, histogram: GradientHistogram) -> None:
        """Return a consumed histogram's buffers to the pool, if any."""
        if self.pool is not None:
            self.pool.release(histogram)

    def close(self) -> None:
        """Drop the pooled buffers."""
        if self.pool is not None:
            self.pool.clear()


class SparseBuildStrategy(HistogramBuildStrategy):
    """Algorithm 2: touch only the nonzeros, fold totals into zero bins.

    Never pooled: ``np.bincount`` allocates its result, so a recycled
    output buffer would only be one more copy of every histogram.
    """

    name = "sparse"
    dense = False

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        histogram = build_node_histogram_sparse(shard, rows, grad, hess)
        return histogram, wall_clock() - started


class BatchedBuildStrategy(HistogramBuildStrategy):
    """Section 5.2 parallel batch construction over a base kernel.

    With the default ``real_threads=False`` the batches run serially and
    the returned seconds are the simulated multi-core span (longest
    chain of batch builds over ``n_threads`` threads), not the serial
    wall-clock the single Python process actually spent.  With
    ``real_threads=True`` the batches run on a ThreadPoolExecutor and
    the real wall-clock is charged — honest, but GIL-capped.
    """

    name = "batched"

    def __init__(
        self,
        batch_size: int,
        n_threads: int,
        sparse: bool = True,
        real_threads: bool = False,
    ) -> None:
        self.batch_size = batch_size
        self.n_threads = n_threads
        self.dense = not sparse
        self.real_threads = real_threads
        self.kernel = (
            build_node_histogram_sparse if sparse else build_node_histogram_dense
        )
        #: Last build's full telemetry (span, wall, per-batch times).
        self.last_result: ParallelBuildResult | None = None

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        result = build_histogram_batched(
            shard,
            rows,
            grad,
            hess,
            batch_size=self.batch_size,
            n_threads=self.n_threads,
            use_real_threads=self.real_threads,
            kernel=self.kernel,
        )
        self.last_result = result
        seconds = result.wall_seconds if self.real_threads else result.span_seconds
        return result.histogram, seconds

    def __repr__(self) -> str:
        return (
            f"BatchedBuildStrategy(batch_size={self.batch_size}, "
            f"n_threads={self.n_threads}, sparse={not self.dense}, "
            f"real_threads={self.real_threads})"
        )


class ProcessParallelBuildStrategy(ForkPoolHost, HistogramBuildStrategy):
    """Real multicore batch construction on a persistent process pool.

    A node's rows are chunked into at most ``n_processes`` contiguous
    tasks; each task builds its chunk's histogram inside a worker
    process, writing into its slot of a shared-memory slab, and the
    driver sums the slots in slot order (deterministic for a fixed
    chunking).  Per-shard data and the per-round gradients live in a
    :class:`~repro.histogram.shared.SharedShard`, so nothing heavy is
    pickled per task.

    Degrades to the sequential kernel — per build for nodes too small to
    be worth the fan-out (fewer than two ``batch_size`` chunks), and
    permanently (with a warning) when process pools are unusable: no
    ``fork`` start method, shared memory unavailable, or a broken pool
    (the :class:`~repro.utils.arena.ForkPoolHost` ladder).

    The returned seconds are the real wall-clock of the fan-out, and
    :attr:`last_result` carries the full telemetry including the
    Section 5.2 simulated span for comparison.
    """

    name = "process"
    _pool_runs = "histogram build"
    _pool_fallback = "the sequential kernel"

    def __init__(
        self,
        batch_size: int,
        n_processes: int,
        sparse: bool = True,
        pool: HistogramBufferPool | None = None,
    ) -> None:
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        super().__init__(n_processes)
        self.batch_size = batch_size
        self.sparse = sparse
        self.dense = not sparse
        self.pool = pool if pool is not None else HistogramBufferPool()
        #: The sequential kernel this strategy degrades to.
        self._serial = (
            SparseBuildStrategy() if sparse else DenseBuildStrategy(self.pool)
        )
        #: Last *pooled* build's telemetry (None until one has run).
        self.last_result: ParallelBuildResult | None = None

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        rows = np.asarray(rows, dtype=np.int64)
        n_tasks = min(self.n_processes, -(-len(rows) // self.batch_size))
        shared = self._arena_for(shard, self._share) if n_tasks >= 2 else None
        if shared is None:
            return self._serial.build(shard, rows, grad, hess)
        # Trainers pass the same gradient arrays for every node of a tree,
        # so an identity check skips the copy on all but the first build
        # of each (shard, round).
        source = shared.gradient_source
        if source is None or source[0] is not grad or source[1] is not hess:
            shared.set_gradients(grad, hess)
        chunks = np.array_split(rows, n_tasks)
        started = wall_clock()
        batch_seconds = self._run(
            build_into_slot,
            [
                (shared.manifest, slot, chunk, self.sparse)
                for slot, chunk in enumerate(chunks)
            ],
        )
        if batch_seconds is None:
            return self._serial.build(shard, rows, grad, hess)
        histogram = shared.reduce(n_tasks, self.pool)
        wall = wall_clock() - started
        self.last_result = ParallelBuildResult(
            histogram=histogram,
            n_batches=n_tasks,
            batch_seconds=tuple(batch_seconds),
            span_seconds=simulate_span(batch_seconds, self.n_processes),
            wall_seconds=wall,
            serial_seconds=sum(batch_seconds),
            backend="process",
        )
        return histogram, wall

    def _share(self, shard: BinnedShard) -> SharedShard:
        return SharedShard(shard, n_slots=self.n_processes)

    def release(self, histogram: GradientHistogram) -> None:
        # The serial sparse fallback hands out bincount's own arrays, not a
        # pooled buffer: adopt one while the pool is empty and drop the
        # rest, or a run of small nodes would grow the pool without bound.
        if self.pool.n_free == 0:
            self.pool.release(histogram)

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        self._shutdown()
        self.pool.clear()

    def __repr__(self) -> str:
        return (
            f"ProcessParallelBuildStrategy(batch_size={self.batch_size}, "
            f"n_processes={self.n_processes}, sparse={self.sparse}, "
            f"fallback_reason={self.fallback_reason!r})"
        )


def resolve_build_strategy(
    config: TrainConfig,
    *,
    sparse: bool,
    batched: bool = False,
    pool: HistogramBufferPool | None = None,
) -> HistogramBuildStrategy:
    """Choose the build strategy for a fit.

    ``config.parallel_backend`` picks the execution style:

    * ``"simulated"`` (default) — today's serial kernels; ``batched``
      wraps them in Section 5.2 batch construction with span accounting.
    * ``"threads"`` — batch construction on a real thread pool
      (GIL-capped; charged real wall-clock).
    * ``"process"`` — :class:`ProcessParallelBuildStrategy` on
      ``config.n_processes`` real cores (``n_processes=1`` falls back to
      the plain kernel).

    Args:
        config: Supplies ``batch_size`` / ``n_threads`` / ``n_processes``
            / ``parallel_backend``.
        sparse: Use the Algorithm 2 kernel (else the dense scan).
        batched: Wrap the kernel in parallel batch construction (only
            meaningful for the ``"simulated"`` backend).
        pool: Optional buffer pool for the strategies that can recycle
            released histograms (the dense scan and the process pool's
            slot reduction; the serial sparse kernel cannot).
    """
    backend = config.parallel_backend
    if backend == "process" and config.n_processes > 1:
        return ProcessParallelBuildStrategy(
            batch_size=config.batch_size,
            n_processes=config.n_processes,
            sparse=sparse,
            pool=pool,
        )
    if backend == "threads":
        return BatchedBuildStrategy(
            batch_size=config.batch_size,
            n_threads=config.n_threads,
            sparse=sparse,
            real_threads=True,
        )
    if batched:
        return BatchedBuildStrategy(
            batch_size=config.batch_size,
            n_threads=config.n_threads,
            sparse=sparse,
        )
    if sparse:
        return SparseBuildStrategy()
    return DenseBuildStrategy(pool=pool)
