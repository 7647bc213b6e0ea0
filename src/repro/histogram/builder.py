"""Histogram builders: the traditional dense scan and Algorithm 2.

Two builders with identical outputs but different complexity:

* :func:`build_node_histogram_dense` — the "traditional algorithm" the
  paper ascribes to existing systems: enumerate **all** ``M`` features of
  every instance, zero or not.  O(M * N_node) work.
* :func:`build_node_histogram_sparse` — the paper's sparsity-aware
  Algorithm 2: accumulate the gradient sum once, touch only nonzeros, and
  settle the zero buckets at the end.  O(z * N_node + M) work.

Both operate on a :class:`BinnedShard` so bucket lookups are precomputed;
the asymptotic gap the paper reports (52272 s -> 33 s for the Gender root
node, Table 3) comes purely from the number of buckets touched.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from .binned import BinnedShard
from .histogram import GradientHistogram


def _check_inputs(shard: BinnedShard, grad: np.ndarray, hess: np.ndarray) -> None:
    if len(grad) != shard.n_rows or len(hess) != shard.n_rows:
        raise DataError(
            f"grad/hess must have one value per shard row ({shard.n_rows}), "
            f"got {len(grad)}/{len(hess)}"
        )


def build_node_histogram_sparse(
    shard: BinnedShard,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
) -> GradientHistogram:
    """Sparsity-aware histogram build (Algorithm 2), vectorized.

    Args:
        shard: Pre-bucketized data shard.
        rows: Shard-local row ids of the instances in the tree node.
        grad: First-order gradients, one per shard row.
        hess: Second-order gradients, one per shard row.

    Returns:
        The node's gradient histogram.
    """
    _check_inputs(shard, grad, hess)
    rows = np.asarray(rows, dtype=np.int64)
    shape = (shard.n_features, shard.n_bins)
    size = shard.n_features * shard.n_bins
    positions = shard.positions_of_rows(rows)

    # Algorithm 2 lines 2-3: accumulate the gradient sums of all instances.
    g_rows, h_rows = grad[rows], hess[rows]
    sum_g = float(g_rows.sum())
    sum_h = float(h_rows.sum())

    if len(positions) == 0:
        # No nonzeros in this node: only the zero buckets receive mass.
        empty = GradientHistogram.zeros(*shape)
        empty.grad[shard.feature_arange, shard.zero_bins] += sum_g
        empty.hess[shard.feature_arange, shard.zero_bins] += sum_h
        return empty

    # Lines 4-10: scatter each nonzero's gradient into its bucket and
    # subtract it from the feature's zero bucket.  The scatter is one
    # weighted bincount over the precomputed flat slots; the subtraction
    # needs only per-feature sums of the nonzero gradients, so its
    # bincount temporary is M values, not M * n_bins.  Only the slots are
    # gathered per nonzero: ``positions`` keeps a row's nonzeros together,
    # so its gradient repeated once per nonzero is the weight array, and
    # the feature is the slot's quotient — every bincount sees the values
    # a per-nonzero gather would hand it, in the same order.
    counts = shard.indptr[rows + 1] - shard.indptr[rows]
    slots = shard.slots[positions]
    nz_features = slots // shard.n_bins
    g_nz = np.repeat(g_rows.astype(np.float64, copy=False), counts)
    h_nz = np.repeat(h_rows.astype(np.float64, copy=False), counts)

    hist_g = np.bincount(slots, weights=g_nz, minlength=size)
    hist_h = np.bincount(slots, weights=h_nz, minlength=size)
    zsub_g = np.bincount(nz_features, weights=g_nz, minlength=shard.n_features)
    zsub_h = np.bincount(nz_features, weights=h_nz, minlength=shard.n_features)

    # Lines 12-15: settle the zero buckets — remove each feature's nonzero
    # mass, then add the node totals.  Two steps (not one fused delta) so
    # the per-slot float operations match the historical kernel bit for
    # bit, between one gather and one scatter through the flat zero slots.
    for hist, zsub, total in ((hist_g, zsub_g, sum_g), (hist_h, zsub_h, sum_h)):
        at_zero = hist[shard.zero_slots]
        at_zero -= zsub
        at_zero += total
        hist[shard.zero_slots] = at_zero
    return GradientHistogram(hist_g.reshape(shape), hist_h.reshape(shape))


def build_node_histogram_dense(
    shard: BinnedShard,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    chunk_rows: int = 512,
) -> GradientHistogram:
    """Traditional dense histogram build: touch all M features per instance.

    Every instance contributes its gradient to one bucket of **every**
    feature (the zero bucket unless the feature is nonzero), so the work
    is genuinely O(M * N_node).  Rows are processed in chunks to bound the
    size of the materialized dense bucket matrix.

    Kept as the faithful baseline for the Table 3 ablation and the
    existing-systems comparison; outputs are bit-identical (up to float
    summation order) to :func:`build_node_histogram_sparse`.
    """
    _check_inputs(shard, grad, hess)
    rows = np.asarray(rows, dtype=np.int64)
    size = shard.n_features * shard.n_bins
    hist_g = np.zeros(size, dtype=np.float64)
    hist_h = np.zeros(size, dtype=np.float64)

    for lo in range(0, len(rows), chunk_rows):
        chunk = rows[lo : lo + chunk_rows]
        # Dense bucket matrix: start from every feature's zero bucket, then
        # overwrite the buckets of the nonzeros actually present.
        dense_slots = np.tile(shard.zero_slots, (len(chunk), 1))
        positions = shard.positions_of_rows(chunk)
        if len(positions) > 0:
            counts = shard.indptr[chunk + 1] - shard.indptr[chunk]
            local_row = np.repeat(np.arange(len(chunk), dtype=np.int64), counts)
            dense_slots[local_row, shard.features[positions]] = shard.slots[positions]
        g_chunk = np.repeat(grad[chunk].astype(np.float64), shard.n_features)
        h_chunk = np.repeat(hess[chunk].astype(np.float64), shard.n_features)
        flat = dense_slots.ravel()
        hist_g += np.bincount(flat, weights=g_chunk, minlength=size)
        hist_h += np.bincount(flat, weights=h_chunk, minlength=size)

    return GradientHistogram(
        hist_g.reshape(shard.n_features, shard.n_bins),
        hist_h.reshape(shard.n_features, shard.n_bins),
    )
