"""Histogram build strategies: how one node histogram gets constructed.

One strategy object, chosen once per fit:

* :class:`DenseBuildStrategy` — the traditional full scan over all
  ``M * K`` buckets (what the baseline systems do, Section 5.1).
* :class:`SparseBuildStrategy` — Algorithm 2's sparsity-aware build,
  O(zN + M) (DimBoost's C3 optimization).
* :class:`BatchedBuildStrategy` — Section 5.2's parallel batch
  construction over either kernel; it reports the simulated multi-core
  *span*.

Every strategy returns ``(histogram, seconds)`` where ``seconds`` is
what a simulated worker should be charged for the build — measured
wall-clock for the serial kernels, simulated span for the batched one —
so the engine's phase barrier code no longer branches on how the
histogram was built.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..config import TrainConfig
from ..histogram.binned import BinnedShard
from ..histogram.builder import (
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from ..histogram.histogram import GradientHistogram
from ..histogram.parallel import build_histogram_batched
from ..utils.timing import wall_clock

__all__ = [
    "HistogramBuildStrategy",
    "DenseBuildStrategy",
    "SparseBuildStrategy",
    "BatchedBuildStrategy",
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

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DenseBuildStrategy(HistogramBuildStrategy):
    """Traditional dense scan over every (feature, bucket) pair."""

    name = "dense"
    dense = True

    def build(
        self,
        shard: BinnedShard,
        rows: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
    ) -> tuple[GradientHistogram, float]:
        started = wall_clock()
        histogram = build_node_histogram_dense(shard, rows, grad, hess)
        return histogram, wall_clock() - started


class SparseBuildStrategy(HistogramBuildStrategy):
    """Algorithm 2: touch only the nonzeros, fold totals into zero bins."""

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

    The batches run serially and the returned seconds are the simulated
    multi-core span (longest chain of batch builds over ``n_threads``
    threads), not the serial wall-clock the single Python process
    actually spent.
    """

    name = "batched"

    def __init__(
        self,
        batch_size: int,
        n_threads: int,
        sparse: bool = True,
    ) -> None:
        self.batch_size = batch_size
        self.n_threads = n_threads
        self.dense = not sparse
        self.kernel = (
            build_node_histogram_sparse if sparse else build_node_histogram_dense
        )

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
            kernel=self.kernel,
        )
        return result.histogram, result.span_seconds

    def __repr__(self) -> str:
        return (
            f"BatchedBuildStrategy(batch_size={self.batch_size}, "
            f"n_threads={self.n_threads}, sparse={not self.dense})"
        )


def resolve_build_strategy(
    config: TrainConfig,
    *,
    sparse: bool,
    batched: bool = False,
) -> HistogramBuildStrategy:
    """Choose the build strategy for a fit.

    Args:
        config: Supplies ``batch_size`` / ``n_threads`` for the batched
            span account.
        sparse: Use the Algorithm 2 kernel (else the dense scan).
        batched: Wrap the kernel in Section 5.2 parallel batch
            construction with span accounting.
    """
    if batched:
        return BatchedBuildStrategy(
            batch_size=config.batch_size,
            n_threads=config.n_threads,
            sparse=sparse,
        )
    if sparse:
        return SparseBuildStrategy()
    return DenseBuildStrategy()
