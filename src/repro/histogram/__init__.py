"""Gradient histograms and their construction (Section 5).

Contents:

* :class:`GradientHistogram` — the ``(n_features x n_bins)`` first/second
  order gradient summary of one tree node (Section 2.2, Algorithm 1).
* :class:`BinnedShard` — a worker's data shard with every nonzero
  pre-bucketized against the split candidates (the ``indexOf(f, v)``
  lookups of Algorithm 2, done once).
* dense ("traditional") and sparsity-aware builders (Section 5.1,
  Algorithm 2).
* :class:`NodeInstanceIndex` — the node-to-instance index of Section 5.2
  (Figure 9).
* parallel batch construction of a single histogram (Section 5.2) with
  the simulated-parallel span account.
"""

from .histogram import GradientHistogram
from .binned import BinnedShard
from .builder import build_node_histogram_dense, build_node_histogram_sparse
from .index import NodeInstanceIndex
from .parallel import ParallelBuildResult, build_histogram_batched

__all__ = [
    "GradientHistogram",
    "BinnedShard",
    "build_node_histogram_dense",
    "build_node_histogram_sparse",
    "NodeInstanceIndex",
    "ParallelBuildResult",
    "build_histogram_batched",
]
