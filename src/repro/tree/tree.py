"""Regression tree structure and prediction.

Nodes live in heap layout (node ``i`` has children ``2i+1`` / ``2i+2``),
matching the paper's state array (Section 6.2) and the PS GradHist row
indexing (Section 4.3).  Zero-valued (absent) sparse features are real
zeros: an instance missing feature ``f`` is routed by ``0 < value``, the
same rule the zero bucket gives the histograms — so training statistics
and prediction agree exactly.
"""

from __future__ import annotations

from math import isfinite
from typing import Any, NoReturn

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import DataError, TrainingError

#: Marker in ``split_feature`` for a node that is a leaf.
LEAF = -1
#: Marker in ``split_feature`` for a slot not present in the tree.
UNUSED = -2

#: Deepest tree a model artifact may declare.  A tree allocates its
#: ``2**max_depth - 1`` heap slots whatever its node count, so the
#: loaders refuse a file that asks for more than 16 M of them.
MAX_ARTIFACT_DEPTH = 24

_MAX_FEATURES = int(np.iinfo(np.int32).max)


def artifact_field(payload: Any, key: str, kind: type, where: str) -> Any:
    """``payload[key]`` of a parsed model artifact, or :class:`DataError`.

    The one validator every artifact loader (tree, binary model,
    multiclass model) reads its fields through, so a hostile file is
    refused with the name of the offending field instead of whatever
    ``KeyError`` / ``TypeError`` / ``ValueError`` indexing it would
    raise.  ``kind`` as for :func:`artifact_value`.
    """
    if not isinstance(payload, dict):
        raise DataError(
            f"{where}: expected an object, got {type(payload).__name__}"
        )
    if key not in payload:
        raise DataError(f"{where}.{key}: missing")
    return artifact_value(payload[key], kind, f"{where}.{key}")


def artifact_value(value: Any, kind: type, at: str) -> Any:
    """``value`` if it is a ``kind``, else :class:`DataError` naming ``at``.

    ``kind`` is ``dict``, ``list``, ``str``, ``int`` (a JSON integer;
    ``true`` is not one) or ``float`` (any finite JSON number, returned
    as a float).
    """
    if kind is float:
        if type(value) not in (int, float):
            raise DataError(
                f"{at}: expected a number, got {type(value).__name__}"
            )
        try:
            finite = isfinite(value)
        except OverflowError:  # an integer beyond float range
            finite = False
        if not finite:
            raise DataError(f"{at}: expected a finite number, got {value!r}")
        return float(value)
    if type(value) is not kind:
        raise DataError(
            f"{at}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


#: Per-node fields of a serialized tree: (key, kind, required).
_SPLIT_FIELDS = (
    ("id", int, True),
    ("feature", int, True),
    ("value", float, True),
    ("gain", float, False),
    ("cover", float, False),
)
_LEAF_FIELDS = (("id", int, True), ("weight", float, True), ("cover", float, False))


def _is_table(table: np.ndarray, shape: tuple[int, ...], kinds: str) -> bool:
    """Whether ``np.array`` made the numeric table it was meant to: one
    row per field, of a dtype kind in ``kinds`` (numpy types an empty
    table float, so an empty one passes)."""
    return table.shape == shape and (
        table.size == 0 or table.dtype.kind in kinds
    )


def _refuse(nodes: list, max_nodes: int, n_features: int, where: str) -> NoReturn:
    """Raise the :class:`DataError` for a tree ``from_dict`` found unsound.

    The loader validates a tree's nodes in bulk and only learns *that*
    something is wrong; this walks them one by one and names the first
    offence by its place in the file.
    """
    is_split: dict[int, bool] = {}
    for i, entry in enumerate(nodes):
        at = f"{where}.nodes[{i}]"
        if not isinstance(entry, dict):
            raise DataError(
                f"{at}: expected an object, got {type(entry).__name__}"
            )
        split = "feature" in entry
        for key, kind, required in _SPLIT_FIELDS if split else _LEAF_FIELDS:
            if required or key in entry:
                artifact_field(entry, key, kind, at)
        node = entry["id"]
        if not 0 <= node < max_nodes:
            raise DataError(f"{at}.id: {node} outside [0, {max_nodes})")
        if node in is_split:
            raise DataError(f"{at}.id: node {node} appears twice")
        if split and 2 * node + 2 >= max_nodes:
            raise DataError(
                f"{at}.feature: node {node} is on the bottom level and "
                f"cannot split"
            )
        if split and not 0 <= entry["feature"] < n_features:
            raise DataError(
                f"{at}.feature: {entry['feature']} outside [0, {n_features})"
            )
        is_split[node] = split
    if 0 not in is_split:
        raise DataError(f"{where}.nodes: no root (no node with id 0)")
    for node, split in is_split.items():
        parent = (node - 1) >> 1
        if node and not is_split.get(parent, False):
            raise DataError(
                f"{where}.nodes: node {node} has no internal parent "
                f"(node {parent} is absent or a leaf)"
            )
        if split and not (
            2 * node + 1 in is_split and 2 * node + 2 in is_split
        ):
            raise DataError(
                f"{where}.nodes: internal node {node} lacks a child"
            )
    raise DataError(f"{where}.nodes: malformed tree")


class RegressionTree:
    """A binary regression tree over ``max_nodes`` heap slots.

    Attributes:
        split_feature: int32 per slot; feature id, or LEAF / UNUSED.
        split_value: float64 threshold per internal node.
        weight: float64 leaf weight per leaf node.
    """

    def __init__(self, max_depth: int) -> None:
        if max_depth < 1:
            raise TrainingError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self.max_nodes = (1 << max_depth) - 1
        self.split_feature = np.full(self.max_nodes, UNUSED, dtype=np.int32)
        self.split_value = np.zeros(self.max_nodes, dtype=np.float64)
        self.weight = np.zeros(self.max_nodes, dtype=np.float64)
        # Optional per-node statistics (model introspection): the split's
        # objective gain and the node's hessian mass ("cover").
        self.gain = np.zeros(self.max_nodes, dtype=np.float64)
        self.cover = np.zeros(self.max_nodes, dtype=np.float64)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _check_slot(self, node: int) -> None:
        if not 0 <= node < self.max_nodes:
            raise TrainingError(f"node {node} out of range [0, {self.max_nodes})")

    def set_split(
        self,
        node: int,
        feature: int,
        value: float,
        gain: float = 0.0,
        cover: float = 0.0,
    ) -> tuple[int, int]:
        """Make ``node`` internal, splitting on ``x[feature] < value``.

        ``gain`` and ``cover`` (the split's objective gain and the node's
        hessian mass) are optional introspection statistics.

        Returns the (left, right) child slot ids.
        """
        self._check_slot(node)
        left, right = 2 * node + 1, 2 * node + 2
        if right >= self.max_nodes:
            raise TrainingError(
                f"node {node} is at maximal depth; cannot split"
            )
        if feature < 0:
            raise TrainingError(f"split feature must be >= 0, got {feature}")
        self.split_feature[node] = feature
        self.split_value[node] = value
        self.gain[node] = gain
        self.cover[node] = cover
        return left, right

    def set_leaf(self, node: int, weight: float, cover: float = 0.0) -> None:
        """Make ``node`` a leaf predicting ``weight``."""
        self._check_slot(node)
        self.split_feature[node] = LEAF
        self.weight[node] = weight
        self.cover[node] = cover

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def is_leaf(self, node: int) -> bool:
        """Whether ``node`` is a leaf."""
        self._check_slot(node)
        return self.split_feature[node] == LEAF

    def is_internal(self, node: int) -> bool:
        """Whether ``node`` is an internal (split) node."""
        self._check_slot(node)
        return self.split_feature[node] >= 0

    @property
    def n_leaves(self) -> int:
        """Number of leaves L (the regularizer's leaf count)."""
        return int(np.sum(self.split_feature == LEAF))

    @property
    def n_internal(self) -> int:
        """Number of split nodes."""
        return int(np.sum(self.split_feature >= 0))

    def depth_of(self, node: int) -> int:
        """1-based depth of a heap slot (root = 1)."""
        self._check_slot(node)
        return (node + 1).bit_length()

    def validate(self) -> None:
        """Check structural invariants; raises TrainingError on violation."""
        if self.split_feature[0] == UNUSED:
            raise TrainingError("tree has no root")
        for node in range(self.max_nodes):
            state = self.split_feature[node]
            left, right = 2 * node + 1, 2 * node + 2
            if state >= 0:
                if right >= self.max_nodes:
                    raise TrainingError(f"internal node {node} beyond max depth")
                if self.split_feature[left] == UNUSED or (
                    self.split_feature[right] == UNUSED
                ):
                    raise TrainingError(f"internal node {node} missing children")
            elif state == LEAF and node != 0:
                parent = (node - 1) // 2
                if self.split_feature[parent] < 0:
                    raise TrainingError(f"leaf {node} has a non-internal parent")

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def leaf_of(self, X: CSRMatrix) -> np.ndarray:
        """The leaf slot each instance reaches (vectorized, level by level).

        This is the reference per-tree path; batch scoring goes through
        the compiled :class:`~repro.inference.flat.FlatEnsemble`.  The
        ``to_csc()`` call below is memoized on the matrix, so repeated
        per-tree calls convert once, not once per tree.
        """
        if self.split_feature[0] == UNUSED:
            raise TrainingError("tree has no root")
        n = X.n_rows
        node_of = np.zeros(n, dtype=np.int64)
        col_indptr, row_indices, values = X.to_csc()
        dense_col = np.zeros(n, dtype=np.float64)
        for _ in range(self.max_depth - 1):
            feats = self.split_feature[node_of]
            active = feats >= 0
            if not active.any():
                break
            goes_left = np.zeros(n, dtype=bool)
            for f in np.unique(feats[active]):
                if f >= X.n_cols:
                    # Feature beyond this matrix's width: value is 0.
                    col_rows = np.empty(0, dtype=np.int64)
                else:
                    lo, hi = col_indptr[f], col_indptr[f + 1]
                    col_rows = row_indices[lo:hi]
                    dense_col[col_rows] = values[lo:hi]
                at_f = active & (feats == f)
                goes_left[at_f] = (
                    dense_col[at_f] < self.split_value[node_of[at_f]]
                )
                if f < X.n_cols:
                    dense_col[col_rows] = 0.0
            node_of = np.where(
                active,
                np.where(goes_left, 2 * node_of + 1, 2 * node_of + 2),
                node_of,
            )
        return node_of

    def predict(self, X: CSRMatrix) -> np.ndarray:
        """Leaf weight of every instance."""
        return self.weight[self.leaf_of(X)]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready structure (per-node stats included when present)."""
        nodes = []
        for node in range(self.max_nodes):
            state = int(self.split_feature[node])
            if state == UNUSED:
                continue
            entry: dict[str, Any] = {"id": node}
            if state == LEAF:
                entry["weight"] = float(self.weight[node])
            else:
                entry["feature"] = state
                entry["value"] = float(self.split_value[node])
                if self.gain[node]:
                    entry["gain"] = float(self.gain[node])
            if self.cover[node]:
                entry["cover"] = float(self.cover[node])
            nodes.append(entry)
        return {"max_depth": self.max_depth, "nodes": nodes}

    @classmethod
    def from_dict(
        cls,
        payload: dict[str, Any],
        n_features: int | None = None,
        where: str = "tree",
    ) -> "RegressionTree":
        """Inverse of :meth:`to_dict`, total over hostile input.

        Every malformed payload — wrong container types, missing keys,
        non-integral / out-of-range / repeated ids, a ``feature``
        outside ``[0, n_features)`` (when given), a non-finite number, a
        split on the bottom level, a node without an internal parent, an
        internal node without both children, no root, ``max_depth``
        outside ``[1, MAX_ARTIFACT_DEPTH]`` — raises :class:`DataError`
        naming the field as ``where.nodes[i].key``, and does so before
        the tree's ``2**max_depth - 1`` slots are allocated.  (A JSON
        ``true`` / ``false`` among a tree's numbers reads as 1 / 0, the
        way numpy reads it.)
        """
        max_depth = artifact_field(payload, "max_depth", int, where)
        if not 1 <= max_depth <= MAX_ARTIFACT_DEPTH:
            raise DataError(
                f"{where}.max_depth: {max_depth} outside "
                f"[1, {MAX_ARTIFACT_DEPTH}]"
            )
        nodes = artifact_field(payload, "nodes", list, where)
        max_nodes = (1 << max_depth) - 1
        # ``split_feature`` is int32 whatever width the caller names.
        n_features = (
            _MAX_FEATURES
            if n_features is None
            else min(n_features, _MAX_FEATURES)
        )
        # Bulk pass: one column per field, checked whole.  It only finds
        # out whether the tree is sound; _refuse names what is not.
        try:
            splits = [entry for entry in nodes if "feature" in entry]
            leaves = [entry for entry in nodes if "feature" not in entry]
            split_id = [entry["id"] for entry in splits]
            leaf_id = [entry["id"] for entry in leaves]
            ids = split_id + leaf_id
            # Rows: split id, feature | value, gain, cover | weight, cover.
            split_ints = np.array(
                [split_id, [entry["feature"] for entry in splits]]
            )
            split_floats = np.array(
                [
                    [entry["value"] for entry in splits],
                    [entry.get("gain", 0.0) for entry in splits],
                    [entry.get("cover", 0.0) for entry in splits],
                ]
            )
            leaf_ints = np.array(leaf_id)
            leaf_floats = np.array(
                [
                    [entry["weight"] for entry in leaves],
                    [entry.get("cover", 0.0) for entry in leaves],
                ]
            )
            sound = (
                _is_table(split_ints, (2, len(splits)), "iu")
                and _is_table(leaf_ints, (len(leaves),), "iu")
                and _is_table(split_floats, (3, len(splits)), "fiu")
                and _is_table(leaf_floats, (2, len(leaves)), "fiu")
                and bool(np.isfinite(split_floats).all())
                and bool(np.isfinite(leaf_floats).all())
                and min(ids) == 0
                and max(ids) < max_nodes
                and len(set(ids)) == len(ids)
                and (
                    not splits
                    or (
                        max(split_id) < max_nodes // 2
                        and 0 <= split_ints[1].min()
                        and split_ints[1].max() < n_features
                    )
                )
                # Every other node hangs off a split, and with unique ids
                # the count says every split has both children.
                and {(node - 1) >> 1 for node in ids if node} <= set(split_id)
                and len(ids) - 1 == 2 * len(splits)
            )
        except (TypeError, KeyError, AttributeError, ValueError, OverflowError):
            sound = False
        if not sound:
            _refuse(nodes, max_nodes, n_features, where)
        tree = cls(max_depth)
        if splits:
            split_at = split_ints[0]
            tree.split_feature[split_at] = split_ints[1]
            tree.split_value[split_at] = split_floats[0]
            tree.gain[split_at] = split_floats[1]
            tree.cover[split_at] = split_floats[2]
        tree.split_feature[leaf_ints] = LEAF
        tree.weight[leaf_ints] = leaf_floats[0]
        tree.cover[leaf_ints] = leaf_floats[1]
        return tree

    def to_text(self) -> str:
        """Human-readable dump, one indented line per node.

        Example::

            0: [f213 < 0.4948] gain=113.14 cover=900.0
              1: [f85 < 0.8253] gain=12.3 cover=450.2
                3: leaf=0.2926
                ...
        """
        if self.split_feature[0] == UNUSED:
            raise TrainingError("tree has no root")
        lines: list[str] = []

        def visit(node: int, depth: int) -> None:
            indent = "  " * depth
            state = int(self.split_feature[node])
            if state == LEAF:
                line = f"{indent}{node}: leaf={self.weight[node]:.6g}"
                if self.cover[node]:
                    line += f" cover={self.cover[node]:.6g}"
                lines.append(line)
                return
            line = (
                f"{indent}{node}: [f{state} < {self.split_value[node]:.6g}]"
            )
            if self.gain[node]:
                line += f" gain={self.gain[node]:.6g}"
            if self.cover[node]:
                line += f" cover={self.cover[node]:.6g}"
            lines.append(line)
            visit(2 * node + 1, depth + 1)
            visit(2 * node + 2, depth + 1)

        visit(0, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"RegressionTree(max_depth={self.max_depth}, "
            f"internal={self.n_internal}, leaves={self.n_leaves})"
        )
