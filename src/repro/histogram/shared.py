"""Zero-copy shared-memory shards for process-parallel histogram builds.

Shipping a :class:`~repro.histogram.binned.BinnedShard` to worker
processes by pickle would copy the whole shard per task; instead
:class:`SharedShard` places the shard's arrays, the per-round
gradient/hessian vectors, and a per-task output slab into one
:class:`~repro.utils.arena.SharedArena`.  Worker processes attach it
once (cached by token) and build directly into their slab slot, so the
only per-task pickling is the row-id chunk out and one float (the
measured seconds) back.  Segment lifecycle, the worker attach cache and
the pool are the arena module's; this module says which arrays go in,
which kernel runs, and how the slots reduce.
"""

from __future__ import annotations

import numpy as np

from ..utils.arena import SHM_PREFIX, SharedArena, attach
from ..utils.timing import wall_clock
from .binned import BinnedShard
from .buffers import HistogramBufferPool
from .builder import build_node_histogram_dense, build_node_histogram_sparse
from .histogram import GradientHistogram

__all__ = ["SHM_PREFIX", "SharedShard", "build_into_slot"]

#: BinnedShard arrays mirrored into shared memory.  ``bins`` and the
#: column order are omitted: the build kernels never touch them
#: (``slots`` already encodes the buckets), and ``split_mask`` runs only
#: in the driving process.
_SHARD_FIELDS = ("indptr", "features", "slots", "row_of", "zero_bins", "zero_slots")


class SharedShard(SharedArena):
    """A :class:`BinnedShard` plus per-round gradients in shared memory.

    Args:
        shard: The shard to mirror (arrays are copied into the segments
            once; the original is not retained).
        n_slots: Number of per-task output slots in the histogram slab —
            the maximum number of concurrent builder tasks.

    The arena's arrays are the shard fields plus ``grad`` / ``hess``
    (the per-round gradient vectors; refresh with :meth:`set_gradients`
    whenever the round's gradients change) and ``slab``, the ``(n_slots,
    2, n_features, n_bins)`` float64 output: task ``i`` writes its
    partial histogram into ``slab[i]``.
    """

    def __init__(self, shard: BinnedShard, n_slots: int) -> None:
        if n_slots < 1:
            raise ValueError(f"n_slots must be >= 1, got {n_slots}")
        self.n_rows = shard.n_rows
        self.n_features = shard.n_features
        self.n_bins = shard.n_bins
        self.n_slots = n_slots
        #: The (grad, hess) objects last copied in; callers compare by
        #: identity to skip a redundant copy.
        self.gradient_source: tuple[np.ndarray, np.ndarray] | None = None
        arrays = {name: getattr(shard, name) for name in _SHARD_FIELDS}
        arrays["grad"] = arrays["hess"] = np.zeros(self.n_rows, dtype=np.float64)
        arrays["slab"] = np.zeros(
            (n_slots, 2, self.n_features, self.n_bins), dtype=np.float64
        )
        super().__init__(
            arrays,
            n_rows=self.n_rows,
            n_features=self.n_features,
            n_bins=self.n_bins,
        )

    def set_gradients(self, grad: np.ndarray, hess: np.ndarray) -> None:
        """Copy this round's gradient/hessian vectors into shared memory."""
        np.copyto(self.arrays["grad"], grad)
        np.copyto(self.arrays["hess"], hess)
        self.gradient_source = (grad, hess)

    def reduce(
        self, n_tasks: int, pool: HistogramBufferPool | None = None
    ) -> GradientHistogram:
        """Sum the first ``n_tasks`` slab slots into one histogram.

        Slots are reduced in slot order, so the merge is deterministic
        for a fixed chunking.
        """
        if pool is not None:
            out = pool.acquire(self.n_features, self.n_bins)
        else:
            out = GradientHistogram.zeros(self.n_features, self.n_bins)
        slab = self.arrays["slab"]
        np.sum(slab[:n_tasks, 0], axis=0, out=out.grad)
        np.sum(slab[:n_tasks, 1], axis=0, out=out.hess)
        return out


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _worker_view(
    manifest: dict, arrays: dict[str, np.ndarray]
) -> tuple[BinnedShard, np.ndarray, np.ndarray, np.ndarray]:
    """``(shard, grad, hess, slab)`` over a worker's attached arrays; the
    shard is a kernel-ready shell (no ``bins``, no ``split_mask``)."""
    shard = BinnedShard.__new__(BinnedShard)
    for name in _SHARD_FIELDS:
        setattr(shard, name, arrays[name])
    shard.n_rows = manifest["n_rows"]
    shard.n_features = manifest["n_features"]
    shard.n_bins = manifest["n_bins"]
    shard.feature_arange = np.arange(shard.n_features, dtype=np.int64)
    return shard, arrays["grad"], arrays["hess"], arrays["slab"]


def build_into_slot(
    manifest: dict, slot: int, rows: np.ndarray, sparse: bool
) -> float:
    """Pool task: build one row chunk's histogram into slab slot ``slot``.

    Returns the measured build seconds (the only payload pickled back).
    """
    shard, grad, hess, slab = attach(manifest, _worker_view)
    kernel = build_node_histogram_sparse if sparse else build_node_histogram_dense
    started = wall_clock()
    out = GradientHistogram(slab[slot, 0], slab[slot, 1])
    kernel(shard, rows, grad, hess, out=out)
    return wall_clock() - started
