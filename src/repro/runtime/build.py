"""Histogram build strategies: how one node histogram gets constructed.

One strategy object, chosen once per fit:

* :class:`DenseBuildStrategy` — the traditional full scan over all
  ``M * K`` buckets (what the baseline systems do, Section 5.1).
* :class:`SparseBuildStrategy` — Algorithm 2's sparsity-aware build,
  O(zN + M) (DimBoost's C3 optimization).

Every strategy returns the histogram; the engine times the call on
the BUILD_HISTOGRAM stage's worker timer, so its barrier code does not
branch on how the histogram was built.  Section 5.2's parallel batch
construction is measured apart, by the Table 3 bench calling
:func:`~repro.histogram.parallel.build_histogram_batched`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..histogram.binned import BinnedShard
from ..histogram.builder import (
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from ..histogram.histogram import GradientHistogram

__all__ = [
    "HistogramBuildStrategy",
    "DenseBuildStrategy",
    "SparseBuildStrategy",
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
    ) -> GradientHistogram:
        """Build one node histogram."""

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
    ) -> GradientHistogram:
        return build_node_histogram_dense(shard, rows, grad, hess)


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
    ) -> GradientHistogram:
        return build_node_histogram_sparse(shard, rows, grad, hess)
