"""Frozen reference for the scoring kernel rewritten in PR 22.

A verbatim copy of ``repro.inference.flat.FlatEnsemble`` as it stood at
``2c406a7`` — heap-order slabs, the float64 ``(rows, n_used)`` panel
filled through three ``used``-mask selections, float64 thresholds, the
``x2, +bias, -goes`` child step — before the level-major tables, the
float32 panel with rounded-up thresholds and the dump column.  Test-only
— the differential oracle of ``tests/inference/test_flat_reference.py``
— and never imported by ``src/``.  Do not "fix" or modernise it: its
value is that it shares no table and no inner loop with the class it
checks.  The only edits are absolute ``repro`` imports, no ``__all__``,
and ``predict_raw`` without its ``n_processes`` branch (the process pool
is not part of the kernel).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.sparse import CSRMatrix
from repro.errors import DataError, TrainingError
from repro.tree.tree import LEAF, UNUSED, RegressionTree

#: Target footprint of one block: its dense feature panel (float64)
#: plus its per-level scratch should sit in L2/L3, not RAM.
DEFAULT_BLOCK_BYTES = 4 * 1024 * 1024

#: Scratch bytes per (row, tree) cell, summed over :class:`_Scratch`'s
#: planes: int64 node/pos, int32 cols, float64 vals/thresh/sums, bool goes.
SCRATCH_CELL_BYTES = 45

#: Never shrink blocks below this many rows — tiny blocks pay python
#: dispatch per block instead of amortizing it.
MIN_BLOCK_ROWS = 64


class _Scratch:
    """Reusable per-call buffers: one block panel + (rows, trees) planes.

    Allocated once per scoring call and reused across every block and
    level, so the hot loop performs no allocations (the per-call
    ``dense_col`` / ``goes_left`` churn of the per-tree path is gone).
    """

    def __init__(self, n_rows: int, n_trees: int, n_used: int) -> None:
        shape = (n_rows, n_trees)
        self.block = np.zeros((n_rows, max(1, n_used)), dtype=np.float64)
        self.node = np.empty(shape, dtype=np.int64)
        self.cols = np.empty(shape, dtype=np.int32)
        self.pos = np.empty(shape, dtype=np.int64)
        self.vals = np.empty(shape, dtype=np.float64)
        self.thresh = np.empty(shape, dtype=np.float64)
        self.goes = np.empty(shape, dtype=bool)
        # Column 0 is the seed of the running sum (the base score);
        # column t + 1 receives tree t's leaf weight.
        self.sums = np.empty((n_rows, n_trees + 1), dtype=np.float64)
        # Row r of the block starts at flat panel position r * n_used.
        self.row_base = (
            np.arange(n_rows, dtype=np.int64) * max(1, n_used)
        )[:, None]


class FlatEnsemble:
    """An ensemble compiled to contiguous struct-of-arrays for scoring.

    Attributes:
        n_trees: Number of compiled trees T.
        n_features: Feature-space width the model was trained on.
        max_depth: Uniform compiled depth D (the deepest tree's).
        slab: Slots per tree, ``2**D - 1``.
        split_feature: int32 ``(T * slab,)``; feature id, or LEAF /
            UNUSED (padded pseudo-splits keep LEAF).
        split_value: float64 thresholds (``+inf`` on pseudo-splits).
        weight: float64 leaf weights (propagated down padded chains).
        slot_col: int32 compact column per slot (0 on non-internal
            slots — they compare against ``+inf``, so the gathered
            value never matters).
        leaf_origin: int64 local slot of the *original* leaf each
            bottom slot descends from (inverts the padding).
        tree_offset: int64 (T,); tree ``t`` owns slots
            ``[t * slab, (t + 1) * slab)``.
        used_features: Sorted unique features any real split tests.
        col_of_feature: int32 inverse map, ``-1`` for unused features.
    """

    def __init__(
        self, trees: Sequence[RegressionTree], n_features: int
    ) -> None:
        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.max_depth = max((t.max_depth for t in trees), default=1)
        self.slab = (1 << self.max_depth) - 1
        self.tree_offset = (
            np.arange(self.n_trees, dtype=np.int64) * self.slab
        )
        total = self.n_trees * self.slab
        self.split_feature = np.full(total, UNUSED, dtype=np.int32)
        self.split_value = np.zeros(total, dtype=np.float64)
        self.weight = np.zeros(total, dtype=np.float64)
        for t, tree in enumerate(trees):
            if tree.split_feature[0] == UNUSED:
                raise TrainingError(f"tree {t} has no root")
            lo = t * self.slab
            hi = lo + tree.max_nodes
            self.split_feature[lo:hi] = tree.split_feature
            self.split_value[lo:hi] = tree.split_value
            self.weight[lo:hi] = tree.weight
        internal = self.split_feature[self.split_feature >= 0]
        if internal.size and int(internal.max()) >= self.n_features:
            raise DataError(
                f"ensemble splits on feature {int(internal.max())}, model "
                f"width is {self.n_features}"
            )
        self.used_features = np.unique(internal).astype(np.int64)
        self.n_used = len(self.used_features)
        self.col_of_feature = np.full(
            max(1, self.n_features), -1, dtype=np.int32
        )
        self.col_of_feature[self.used_features] = np.arange(
            self.n_used, dtype=np.int32
        )
        self._pad_to_full_depth()
        # Pre-resolve each slot's compact column: the hot loop gathers
        # slot -> column directly, never touching feature ids.  Slot 0
        # on non-internal slots is harmless — their threshold is +inf.
        self.slot_col = self.col_of_feature[
            np.maximum(self.split_feature, 0)
        ].astype(np.int32)
        self.slot_col[self.split_feature < 0] = 0

    def _pad_to_full_depth(self) -> None:
        """Push every shallow leaf down to the bottom level.

        A leaf above the bottom becomes a pseudo-split with threshold
        ``+inf`` (every value, 0.0 included, routes left) whose children
        both carry the leaf's weight — so traversal can descend
        ``max_depth - 1`` levels unconditionally and read a weight at
        whatever slot it lands on.  ``leaf_origin`` records the original
        leaf each padded slot stands in for.
        """
        self.leaf_origin = np.tile(
            np.arange(self.slab, dtype=np.int64), self.n_trees
        )
        if self.n_trees == 0:
            return
        # Level by level, top down (so padded children created at level d
        # are themselves padded at level d+1), all trees at once; local
        # heap slots of level d are [2**d - 1, 2**(d+1) - 2].
        feat = self.split_feature.reshape(self.n_trees, self.slab)
        value = self.split_value.reshape(self.n_trees, self.slab)
        weight = self.weight.reshape(self.n_trees, self.slab)
        origin = self.leaf_origin.reshape(self.n_trees, self.slab)
        for depth in range(self.max_depth - 1):
            lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
            tree_ids, local = np.nonzero(feat[:, lo:hi] == LEAF)
            if len(tree_ids) == 0:
                continue
            local = local + lo
            left, right = 2 * local + 1, 2 * local + 2
            value[tree_ids, local] = np.inf
            for child in (left, right):
                feat[tree_ids, child] = LEAF
                weight[tree_ids, child] = weight[tree_ids, local]
                origin[tree_ids, child] = origin[tree_ids, local]

    @classmethod
    def compile(
        cls, trees: Sequence[RegressionTree], n_features: int
    ) -> "FlatEnsemble":
        """Alias constructor, for symmetry with ``model.compiled()``."""
        return cls(trees, n_features)

    # ------------------------------------------------------------------
    # public scoring API
    # ------------------------------------------------------------------

    def predict_raw(
        self,
        X: CSRMatrix,
        base_score: float = 0.0,
        n_trees: int | None = None,
        batch_rows: int | None = None,
    ) -> np.ndarray:
        """Raw margin scores, bit-identical to the per-tree reference.

        Args:
            X: Input rows; ``X.n_cols`` may be narrower than the model
                (absent features score as 0.0) but not wider.
            base_score: Constant every row starts from.
            n_trees: Truncate to the first trees (slice semantics, like
                ``trees[:n_trees]``).
            batch_rows: Rows per block; default sizes the block's dense
                panel plus scratch to ~:data:`DEFAULT_BLOCK_BYTES`.
        """
        n_use = self._n_use(n_trees)
        out = np.empty(X.n_rows, dtype=np.float64)
        self.score_into(
            X, out, base_score=base_score, n_use=n_use, batch_rows=batch_rows
        )
        return out

    def predict_raw_classes(
        self,
        X: CSRMatrix,
        base_scores: np.ndarray,
        n_classes: int,
        batch_rows: int | None = None,
    ) -> np.ndarray:
        """Score round-major multiclass trees in one shared traversal.

        The compiled trees must be laid out round-major (round 0's K
        class trees, then round 1's, ...); every class reuses the single
        level-synchronous traversal and block panel, instead of K * T
        separate ``leaf_of`` passes.  Returns ``(n_rows, n_classes)``
        float64 margins, bit-identical to the per-group reference loop.
        """
        if n_classes < 1 or self.n_trees % n_classes:
            raise DataError(
                f"{self.n_trees} trees do not split into {n_classes} classes"
            )
        base_scores = np.asarray(base_scores, dtype=np.float64)
        out = np.tile(base_scores, (X.n_rows, 1))
        if self.n_trees == 0 or X.n_rows == 0:
            return out
        batch = self._resolve_batch(batch_rows, X.n_rows)
        scratch = _Scratch(min(batch, X.n_rows), self.n_trees, self.n_used)
        col_of = self._col_lookup(X)
        for lo in range(0, X.n_rows, batch):
            hi = min(lo + batch, X.n_rows)
            weights = self._leaf_weights_block(
                X, lo, hi, self.n_trees, scratch, col_of
            )
            # Boosting order per class: round-major columns t = r*K + k.
            for t in range(self.n_trees):
                out[lo:hi, t % n_classes] += weights[:, t]
        return out

    def leaf_slots(
        self,
        X: CSRMatrix,
        n_trees: int | None = None,
        batch_rows: int | None = None,
    ) -> np.ndarray:
        """Per-tree *local* leaf slot ids, shape ``(n_rows, n_trees)``.

        Column ``t`` equals ``trees[t].leaf_of(X)`` — ``leaf_origin``
        maps each padded bottom slot back to the original leaf, and the
        oracle tests compare against exactly that.
        """
        n_use = self._n_use(n_trees)
        out = np.zeros((X.n_rows, n_use), dtype=np.int64)
        if n_use == 0 or X.n_rows == 0:
            return out
        batch = self._resolve_batch(batch_rows, X.n_rows)
        scratch = _Scratch(min(batch, X.n_rows), n_use, self.n_used)
        col_of = self._col_lookup(X)
        for lo in range(0, X.n_rows, batch):
            hi = min(lo + batch, X.n_rows)
            node = self._traverse_block(X, lo, hi, n_use, scratch, col_of)
            out[lo:hi] = self.leaf_origin[node]
        return out

    def score_into(
        self,
        X: CSRMatrix,
        out: np.ndarray,
        base_score: float,
        n_use: int,
        batch_rows: int | None = None,
        start: int = 0,
        stop: int | None = None,
    ) -> None:
        """Score rows ``[start, stop)`` into ``out[start:stop]``.

        The span form is what the process-parallel workers call: each
        worker owns a disjoint row span of a shared output vector, so
        any chunking produces the same bits (rows are independent).
        """
        stop = X.n_rows if stop is None else stop
        if stop <= start:
            return
        batch = self._resolve_batch(batch_rows, stop - start)
        scratch = _Scratch(min(batch, stop - start), n_use, self.n_used)
        col_of = self._col_lookup(X)
        for lo in range(start, stop, batch):
            hi = min(lo + batch, stop)
            # Leaf weights land in sums[:, 1:]; column 0 seeds the sum.
            self._leaf_weights_block(X, lo, hi, n_use, scratch, col_of)
            sums = scratch.sums[: hi - lo, : n_use + 1]
            sums[:, 0] = base_score
            # Tree-order accumulation: a running sum is sequential by
            # definition, so this is the same float64 addition sequence
            # as `raw += tree.predict(X)` per boosting round (np.sum /
            # np.add.reduce add pairwise and would change the bits).
            np.cumsum(sums, axis=1, out=sums)
            out[lo:hi] = sums[:, -1]

    # ------------------------------------------------------------------
    # block kernels
    # ------------------------------------------------------------------

    def _leaf_weights_block(
        self,
        X: CSRMatrix,
        lo: int,
        hi: int,
        n_use: int,
        scratch: _Scratch,
        col_of: np.ndarray,
    ) -> np.ndarray:
        """Leaf weight of rows ``[lo, hi)`` in every tree: ``(n, n_use)``."""
        node = self._traverse_block(X, lo, hi, n_use, scratch, col_of)
        weights = scratch.sums[: hi - lo, 1 : n_use + 1]
        self.weight.take(node, out=weights, mode="wrap")
        return weights

    def _traverse_block(
        self,
        X: CSRMatrix,
        lo: int,
        hi: int,
        n_use: int,
        scratch: _Scratch,
        col_of: np.ndarray,
    ) -> np.ndarray:
        """Level-synchronous descent of all trees over rows ``[lo, hi)``.

        Returns the ``(n, n_use)`` *global* slot per (row, tree) — a
        view into scratch, valid until the next block.  Thanks to the
        full-depth padding there is no per-level active mask: every row
        descends exactly ``max_depth - 1`` levels in every tree.
        """
        n = hi - lo
        block = scratch.block[:n]
        flat_block = block.ravel()

        # Densify ensemble-used columns of this row block: one gather +
        # one scatter over the block's contiguous CSR slice, at flat
        # (row * n_used + col) positions.
        s, e = int(X.indptr[lo]), int(X.indptr[hi])
        entry_col = col_of[X.indices[s:e]]
        used = entry_col >= 0
        entry_row = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(X.indptr[lo : hi + 1])
        )[used]
        entry_pos = entry_row * max(1, self.n_used)
        entry_pos += entry_col[used]
        flat_block[entry_pos] = X.data[s:e][used]

        node = scratch.node[:n, :n_use]
        offsets = self.tree_offset[:n_use]
        # Descent in global slots: child = 2*g + (2 - offset) - goes_left
        # (global g = offset + local, local child = 2*local + 2 - goes).
        bias = 2 - offsets
        node[:] = offsets  # every row starts at each tree's root
        cols = scratch.cols[:n, :n_use]
        pos = scratch.pos[:n, :n_use]
        vals = scratch.vals[:n, :n_use]
        thresh = scratch.thresh[:n, :n_use]
        goes = scratch.goes[:n, :n_use]
        row_base = scratch.row_base[:n]
        slot_col, split_value = self.slot_col, self.split_value
        for _ in range(self.max_depth - 1):
            # The ndarray method, not np.take: the function form is a
            # Python wrapper whose dispatch shows at serving batch sizes.
            # mode="wrap" skips numpy's per-element bounds check; the
            # descent can only produce in-range slots (and the tests
            # assert bit-identity, so a wrap-around could not hide).
            slot_col.take(node, out=cols, mode="wrap")
            np.add(row_base, cols, out=pos)
            flat_block.take(pos, out=vals, mode="wrap")
            split_value.take(node, out=thresh, mode="wrap")
            # The exact comparison RegressionTree.leaf_of performs
            # (DESIGN §4b: an absent feature is the value 0.0, routed by
            # ``0 < threshold``); pseudo-splits compare against +inf.
            np.less(vals, thresh, out=goes)
            np.multiply(node, 2, out=node)
            np.add(node, bias, out=node)
            np.subtract(node, goes, out=node)

        # Reset only the touched panel entries for the next block.
        flat_block[entry_pos] = 0.0
        return node

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _col_lookup(self, X: CSRMatrix) -> np.ndarray:
        """Column map sized to cover ``X``'s width (extra cols unused)."""
        if X.n_cols <= len(self.col_of_feature):
            return self.col_of_feature
        pad = np.full(X.n_cols, -1, dtype=np.int32)
        pad[: len(self.col_of_feature)] = self.col_of_feature
        return pad

    def _n_use(self, n_trees: int | None) -> int:
        """Python slice semantics of ``trees[:n_trees]``."""
        if n_trees is None:
            return self.n_trees
        return len(range(self.n_trees)[:n_trees])

    def _resolve_batch(self, batch_rows: int | None, n_rows: int) -> int:
        if batch_rows is not None:
            if batch_rows < 1:
                raise DataError(f"batch_rows must be >= 1, got {batch_rows}")
            return batch_rows
        per_row = 8 * max(1, self.n_used) + SCRATCH_CELL_BYTES * self.n_trees
        rows = DEFAULT_BLOCK_BYTES // per_row
        return int(min(max(rows, MIN_BLOCK_ROWS), max(1, n_rows)))

    def __repr__(self) -> str:
        return (
            f"FlatEnsemble(n_trees={self.n_trees}, max_depth={self.max_depth}, "
            f"n_features={self.n_features}, n_used={self.n_used})"
        )
