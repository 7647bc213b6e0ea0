"""Compiled flat-ensemble scoring: level-major tables, row-blocked.

``GBDTModel.predict_raw`` used to loop over trees one at a time, and
every ``RegressionTree.leaf_of`` call re-derived the whole CSC view of
the input and scattered one dense column per (tree, level, feature) —
O(T) matrix conversions and thousands of small numpy calls per predict.
Booster (arXiv:2011.02022) and GPU XGBoost (arXiv:1806.11248) show that
ensemble traversal is memory-bound and is fixed by the same shape: lay
*all* trees out contiguously and walk them level-synchronously over
blocks of instances.

:class:`FlatEnsemble` is that execution model:

* **Compile once.** Every tree is padded to the ensemble's deepest
  level (a shallow leaf becomes an always-left pseudo-split whose
  children carry the leaf's weight), so traversal needs no per-level
  "is this row still active" mask.  The padded trees are then laid out
  *level-major*: level ``d`` is one tree-major table of ``T * 2**d``
  entries, position ``k = t * 2**d + idx``, ordered so the children of
  ``k`` sit at ``2k`` (right) and ``2k + 1`` (left) of the next level's
  table.  The features the ensemble actually tests are remapped to a
  compact ``[0, n_used)`` column space and pre-resolved per position
  (``level_col``), so the hot loop never touches feature ids; every
  other feature maps to one *dump column* ``n_used``.
* **Densify once per block.** Scoring walks the input in contiguous row
  blocks sized for cache residency; each block scatters *all* of its
  nonzeros into one reusable ``(block_rows, n_used + 1)`` float32 panel
  straight from the row-native CSR arrays — entries no split tests land
  in the dump column, which no real split reads, so there is no mask
  and no selection over the block's nonzeros.
* **Traverse all trees at once.** One ``(block_rows, n_trees)`` cursor
  of level positions descends every tree simultaneously — three
  gathers, one compare and three adds per level, every intermediate
  written into preallocated scratch; the child step is ``k += k;
  k += goes_left``.

Bit-identity contract: the flat path routes exactly as
:meth:`RegressionTree.leaf_of` does.  The reference promotes each
float32 feature value ``x`` to float64 and tests ``x < t`` against the
float64 threshold; the flat path keeps ``x`` in float32 and tests it
against ``up32(t)``, the smallest float32 ``>= t``
(:func:`round_up_float32`).  For a float32 ``x`` the two agree: if
``x < t`` then ``x < t <= up32(t)``; if ``x >= t`` then ``x`` is itself
a float32 ``>= t``, so ``x >= up32(t)`` by minimality; a NaN on either
side compares false both ways.  Absent features are the value 0.0,
routed by ``0 < threshold``; padded pseudo-splits compare against
``+inf`` and carry the leaf weight on *both* children, so even NaN
values land on the same weight.  Leaf weights accumulate in boosting
order from the same float64 base score — raw scores equal the per-tree
reference bit for bit, which the tests (against the oracle and against
the frozen float64-panel kernel in ``tests/_reference_flat.py``) and
``benchmarks/bench_ext_inference.py`` assert on every configuration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import DataError, TrainingError
from ..tree.tree import LEAF, UNUSED, RegressionTree

__all__ = ["FlatEnsemble", "DEFAULT_BLOCK_BYTES", "round_up_float32"]

#: Target footprint of one block: its dense feature panel (float32)
#: plus its per-level scratch should sit in one core's L2, not RAM.
DEFAULT_BLOCK_BYTES = 2 * 1024 * 1024

#: Scratch bytes per (row, tree) cell, summed over :class:`_Scratch`'s
#: planes: int64 node/pos, float32 vals/thresh, bool goes, float64 sums.
SCRATCH_CELL_BYTES = 8 + 8 + 4 + 4 + 1 + 8

#: Never shrink blocks below this many rows — tiny blocks pay python
#: dispatch per block instead of amortizing it.
MIN_BLOCK_ROWS = 64


def round_up_float32(thresholds: np.ndarray) -> np.ndarray:
    """The smallest float32 ``>=`` each float64 threshold.

    For every float32 ``x``, ``x < t`` exactly when ``x <
    round_up_float32(t)`` — the module docstring has the two-line proof.
    ``|t| > FLT_MAX`` rounds to ``+inf`` / ``-FLT_MAX``, a positive
    threshold below the smallest subnormal to that subnormal, NaN stays
    NaN.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    # Both the cast (|t| > FLT_MAX) and the step from FLT_MAX to +inf
    # set the overflow flag; both results are the intended ones.
    with np.errstate(over="ignore"):
        rounded = thresholds.astype(np.float32)
        low = rounded.astype(np.float64) < thresholds
        rounded[low] = np.nextafter(rounded[low], np.float32(np.inf))
    return rounded


def _pad_to_full_depth(
    split_feature: np.ndarray, split_value: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Push every shallow leaf of the ``(T, slab)`` heap slabs down to
    the bottom level, in place.

    A leaf above the bottom becomes a pseudo-split with threshold
    ``+inf`` (every value, 0.0 included, routes left) whose children
    both carry the leaf's weight — so traversal can descend
    ``max_depth - 1`` levels unconditionally and read a weight at
    whatever slot it lands on.  Returns ``origin``, the heap slot of the
    original leaf each padded slot stands in for.
    """
    n_trees, slab = split_feature.shape
    origin = np.tile(np.arange(slab, dtype=np.int64), (n_trees, 1))
    # Level by level, top down (so padded children created at level d
    # are themselves padded at level d+1), all trees at once; heap
    # slots of level d are [2**d - 1, 2**(d+1) - 2].
    max_depth = (slab + 1).bit_length() - 1
    for depth in range(max_depth - 1):
        lo, hi = (1 << depth) - 1, (1 << (depth + 1)) - 1
        tree_ids, local = np.nonzero(split_feature[:, lo:hi] == LEAF)
        if len(tree_ids) == 0:
            continue
        local = local + lo
        split_value[tree_ids, local] = np.inf
        for child in (2 * local + 1, 2 * local + 2):
            split_feature[tree_ids, child] = LEAF
            weight[tree_ids, child] = weight[tree_ids, local]
            origin[tree_ids, child] = origin[tree_ids, local]
    return origin


def _level_major(slabs: np.ndarray, levels: range) -> np.ndarray:
    """Heap slabs ``(T, slab)`` -> the given levels' tables back to back.

    Within a tree a level's table is its heap level reversed: heap
    children ``2j`` (left) / ``2j + 1`` (right) of in-level index ``j``
    become ``2i + 1`` / ``2i`` of ``i = 2**d - 1 - j``, which is what
    makes the child step ``2k + goes_left`` over the whole table.
    """
    return np.concatenate(
        [
            slabs[:, :0].ravel(),  # depth-1 ensembles have no split level
            *(
                slabs[:, (1 << depth) - 1 : (1 << (depth + 1)) - 1][:, ::-1].ravel()
                for depth in levels
            ),
        ]
    )


class _Scratch:
    """Reusable per-call buffers: one block panel + (rows, trees) planes.

    Allocated once per scoring call and reused across every block and
    level, so the hot loop performs no allocations (the per-call
    ``dense_col`` / ``goes_left`` churn of the per-tree path is gone).
    """

    def __init__(self, n_rows: int, n_trees: int, n_used: int) -> None:
        shape = (n_rows, n_trees)
        # One column past the compact space: the dump column.
        width = n_used + 1
        self.panel = np.zeros(n_rows * width, dtype=np.float32)
        self.node = np.empty(shape, dtype=np.int64)
        self.pos = np.empty(shape, dtype=np.int64)
        self.vals = np.empty(shape, dtype=np.float32)
        self.thresh = np.empty(shape, dtype=np.float32)
        self.goes = np.empty(shape, dtype=bool)
        # Column 0 is the seed of the running sum (the base score);
        # column t + 1 receives tree t's leaf weight.
        self.sums = np.empty((n_rows, n_trees + 1), dtype=np.float64)
        # Row r of the block starts at flat panel position r * width.
        self.row_base = np.arange(n_rows, dtype=np.int64) * width
        self.roots = np.arange(n_trees, dtype=np.int64)


class FlatEnsemble:
    """An ensemble compiled to contiguous level-major tables for scoring.

    Level ``d`` (root = 0) of the padded ensemble is a table of
    ``n_trees * 2**d`` entries; tree ``t`` owns positions ``[t * 2**d,
    (t + 1) * 2**d)`` and the children of position ``k`` are ``2k``
    (right) and ``2k + 1`` (left) in level ``d + 1`` — within a tree a
    level is its heap level reversed.  Truncating to the first ``n``
    trees is the prefix ``[: n * 2**d]`` of every table.

    Attributes:
        n_trees: Number of compiled trees T.
        n_features: Feature-space width the model was trained on.
        max_depth: Uniform compiled depth D (the deepest tree's).
        level_col: int64, the split levels ``0 .. D-2`` back to back;
            compact panel column each position tests (0 on padded
            pseudo-splits — they compare against ``+inf``, so the
            gathered value never matters).
        level_thresh: float32, same layout; each split's threshold
            rounded up (:func:`round_up_float32`), ``+inf`` on
            pseudo-splits.
        leaf_weight: float64 ``(T * 2**(D-1),)``; the bottom level's
            weights (propagated down padded chains).
        leaf_origin: int64, same layout; heap slot of the *original*
            leaf each bottom position descends from (inverts the
            padding).
        used_features: Sorted unique features any real split tests.
        n_used: Their count; also the panel's dump column.
        col_of_feature: int64 feature -> compact column, ``n_used`` (the
            dump column) for every feature no split tests.
    """

    def __init__(
        self, trees: Sequence[RegressionTree], n_features: int
    ) -> None:
        self.n_trees = len(trees)
        self.n_features = int(n_features)
        self.max_depth = max((t.max_depth for t in trees), default=1)
        # Heap-order slabs, one per tree back to back: the compile
        # intermediate the level tables are cut from.
        slab = (1 << self.max_depth) - 1
        split_feature = np.full((self.n_trees, slab), UNUSED, dtype=np.int32)
        split_value = np.zeros((self.n_trees, slab), dtype=np.float64)
        weight = np.zeros((self.n_trees, slab), dtype=np.float64)
        for t, tree in enumerate(trees):
            if tree.split_feature[0] == UNUSED:
                raise TrainingError(f"tree {t} has no root")
            split_feature[t, : tree.max_nodes] = tree.split_feature
            split_value[t, : tree.max_nodes] = tree.split_value
            weight[t, : tree.max_nodes] = tree.weight
        internal = split_feature[split_feature >= 0]
        if internal.size and int(internal.max()) >= self.n_features:
            raise DataError(
                f"ensemble splits on feature {int(internal.max())}, model "
                f"width is {self.n_features}"
            )
        self.used_features = np.unique(internal).astype(np.int64)
        self.n_used = len(self.used_features)
        self.col_of_feature = np.full(
            max(1, self.n_features), self.n_used, dtype=np.int64
        )
        self.col_of_feature[self.used_features] = np.arange(
            self.n_used, dtype=np.int64
        )
        origin = _pad_to_full_depth(split_feature, split_value, weight)
        # Pre-resolve each slot's compact column: the hot loop gathers
        # position -> column directly, never touching feature ids.
        # Column 0 on pseudo-splits is harmless — their threshold is +inf.
        slot_col = self.col_of_feature[np.maximum(split_feature, 0)]
        slot_col[split_feature < 0] = 0
        split_levels = range(self.max_depth - 1)
        self.level_col = _level_major(slot_col, split_levels)
        self.level_thresh = round_up_float32(
            _level_major(split_value, split_levels)
        )
        bottom = range(self.max_depth - 1, self.max_depth)
        self.leaf_weight = _level_major(weight, bottom)
        self.leaf_origin = _level_major(origin, bottom)
        self._bind_levels()

    def _bind_levels(self) -> None:
        """Cut the per-level views the descent reads out of the tables.

        Also what a scoring-only shell over shared arrays
        (:mod:`repro.inference.parallel`) calls once it holds
        ``level_col`` / ``level_thresh`` and the scalar shape fields.
        """
        bounds = [
            self.n_trees * ((1 << depth) - 1) for depth in range(self.max_depth)
        ]
        self._levels = [
            (self.level_col[lo:hi], self.level_thresh[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]

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
        n_processes: int = 1,
    ) -> np.ndarray:
        """Raw margin scores, bit-identical to the per-tree reference.

        Args:
            X: Input rows of any width: absent features score as 0.0,
                columns past the model's features go to the dump column
                (only ``GBDTModel`` rejects wider input).
            base_score: Constant every row starts from.
            n_trees: Truncate to the first trees (slice semantics, like
                ``trees[:n_trees]``).
            batch_rows: Rows per block; default sizes the block's dense
                panel plus scratch to ~:data:`DEFAULT_BLOCK_BYTES`.
            n_processes: With >= 2, score row blocks on a shared-memory
                process pool (falls back to this serial path when pools
                are unusable — see :mod:`repro.inference.parallel`).
        """
        if n_processes < 1:
            raise DataError(f"n_processes must be >= 1, got {n_processes}")
        n_use = self._n_use(n_trees)
        if n_processes > 1 and X.n_rows > 1:
            from .parallel import ParallelScorer

            with ParallelScorer(
                self, n_processes=n_processes, batch_rows=batch_rows
            ) as scorer:
                return scorer.predict_raw(
                    X, base_score=base_score, n_trees=n_trees
                )
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
        self.leaf_weight.take(node, out=weights, mode="wrap")
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

        Returns the ``(n, n_use)`` bottom-level position per (row, tree)
        — a view into scratch, valid until the next block.  Thanks to
        the full-depth padding there is no per-level active mask: every
        row descends exactly ``max_depth - 1`` levels in every tree.
        """
        n = hi - lo
        panel = scratch.panel
        row_base = scratch.row_base[:n]

        # Densify this row block: one scatter of the block's contiguous
        # CSR slice at flat (row * width + col) positions.  Entries of a
        # feature no split tests go to the row's dump column.
        s, e = int(X.indptr[lo]), int(X.indptr[hi])
        entry_pos = np.repeat(row_base, np.diff(X.indptr[lo : hi + 1]))
        entry_pos += col_of.take(X.indices[s:e])
        panel[entry_pos] = X.data[s:e]

        node = scratch.node[:n, :n_use]
        node[:] = scratch.roots[:n_use]  # level 0: tree t's root is position t
        pos = scratch.pos[:n, :n_use]
        vals = scratch.vals[:n, :n_use]
        thresh = scratch.thresh[:n, :n_use]
        goes = scratch.goes[:n, :n_use]
        row_base = row_base[:, None]  # broadcast down each row's trees
        for level_col, level_thresh in self._levels:
            # The ndarray method, not np.take: the function form is a
            # Python wrapper whose dispatch shows at serving batch sizes.
            # mode="wrap" skips numpy's per-element bounds check; the
            # descent can only produce in-range positions (and the tests
            # assert bit-identity, so a wrap-around could not hide).
            level_col.take(node, out=pos, mode="wrap")
            np.add(pos, row_base, out=pos)
            panel.take(pos, out=vals, mode="wrap")
            level_thresh.take(node, out=thresh, mode="wrap")
            # The comparison RegressionTree.leaf_of performs, in float32
            # against the rounded-up threshold (DESIGN §4b: an absent
            # feature is the value 0.0, routed by ``0 < threshold``);
            # pseudo-splits compare against +inf.
            np.less(vals, thresh, out=goes)
            np.add(node, node, out=node)
            np.add(node, goes, out=node)

        # Reset only the touched panel entries for the next block.
        panel[entry_pos] = 0.0
        return node

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _col_lookup(self, X: CSRMatrix) -> np.ndarray:
        """Column map sized to cover ``X``'s width (extra cols dumped)."""
        if X.n_cols <= len(self.col_of_feature):
            return self.col_of_feature
        pad = np.full(X.n_cols, self.n_used, dtype=np.int64)
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
        per_row = 4 * (self.n_used + 1) + SCRATCH_CELL_BYTES * self.n_trees
        rows = DEFAULT_BLOCK_BYTES // per_row
        return int(min(max(rows, MIN_BLOCK_ROWS), max(1, n_rows)))

    def __repr__(self) -> str:
        return (
            f"FlatEnsemble(n_trees={self.n_trees}, max_depth={self.max_depth}, "
            f"n_features={self.n_features}, n_used={self.n_used})"
        )
