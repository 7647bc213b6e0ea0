"""FlatEnsemble held to the frozen PR-21 kernel and to the per-tree oracle.

PR 22 rebuilt the scoring loop (level-major tables, a float32 panel
against thresholds rounded up to float32, a dump column instead of the
``used`` masks).  ``tests/_reference_flat.py`` is the kernel as it stood
before; every property here demands the same bits from the new class,
the old class and ``RegressionTree.leaf_of`` — on scores and on leaf
slots — with thresholds and feature values drawn to sit exactly on, one
ulp beside and midway between float32s, which is where a float32
comparison could part from the float64 one.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boosting.model import GBDTModel
from repro.boosting.multiclass import MulticlassModel
from repro.datasets.sparse import CSRMatrix
from repro.inference import FlatEnsemble
from repro.inference.flat import round_up_float32
from repro.tree.tree import RegressionTree

from .._reference_flat import FlatEnsemble as ReferenceFlatEnsemble

FLT_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.nextafter(np.float32(0.0), np.float32(1.0)))  # 1.4e-45

#: float32 values the attack thresholds are built around.
ANCHORS = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 3.0e-39, F32_TINY, -F32_TINY, 1.0e30,
     FLT_MAX, -FLT_MAX],
    dtype=np.float32,
)


def _f32_neighbours(x: np.ndarray) -> np.ndarray:
    """``x`` with the float32 just below and just above each element."""
    with np.errstate(over="ignore"):
        return np.concatenate(
            [
                x,
                np.nextafter(x, np.float32(-np.inf)),
                np.nextafter(x, np.float32(np.inf)),
            ]
        )


def attack_thresholds() -> np.ndarray:
    """float64 thresholds that sit where float32 rounding could matter."""
    anchors = ANCHORS.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        above = np.nextafter(ANCHORS, np.float32(np.inf)).astype(np.float64)
        midway = anchors + (above - anchors) / 2.0
    return np.concatenate(
        [
            anchors,  # exactly a float32
            np.nextafter(anchors, np.inf),  # one float64 ulp above it
            np.nextafter(anchors, -np.inf),  # one float64 ulp below it
            midway[np.isfinite(midway)],  # between two float32s
            [1e300, -1e300, np.inf, -np.inf, np.nan, 5e-324, 1e-50, -1e-50],
        ]
    )


THRESHOLDS = attack_thresholds()
#: Every float32 a threshold rounds to either way, their neighbours, and
#: the non-finite values: x == t, x adjacent to t, and x strictly between
#: t and up32(t) cannot exist — but x == up32(t) and x == down32(t) do.
with np.errstate(over="ignore"):
    VALUES = np.unique(
        np.concatenate(
            [
                _f32_neighbours(THRESHOLDS[~np.isnan(THRESHOLDS)].astype(np.float32)),
                _f32_neighbours(round_up_float32(THRESHOLDS[~np.isnan(THRESHOLDS)])),
                np.array([np.inf, -np.inf, 0.0, -0.0], dtype=np.float32),
            ]
        )
    )
VALUES = np.concatenate([VALUES, np.array([np.nan, -0.0], dtype=np.float32)])


def attack_tree(
    rng: np.random.Generator, n_features: int, max_depth: int, split_prob: float
) -> RegressionTree:
    """A ragged random tree (early leaves at every level, down to a lone
    leaf) whose thresholds come from :data:`THRESHOLDS` or a normal draw."""
    tree = RegressionTree(max_depth=max_depth)
    frontier = [0]
    while frontier:
        node = frontier.pop()
        if 2 * node + 2 < tree.max_nodes and rng.random() < split_prob:
            value = (
                float(rng.choice(THRESHOLDS))
                if rng.random() < 0.7
                else float(rng.normal())
            )
            frontier.extend(
                tree.set_split(node, int(rng.integers(0, n_features)), value)
            )
        else:
            tree.set_leaf(node, float(rng.normal()))
    return tree


def attack_matrix(
    rng: np.random.Generator, n_rows: int, n_cols: int
) -> CSRMatrix:
    """Random CSR rows (some empty, explicit zeros kept) over
    :data:`VALUES` and normal draws."""
    rows = []
    for _ in range(n_rows):
        if n_cols == 0 or rng.random() < 0.15:
            rows.append([])
            continue
        cols = np.flatnonzero(rng.random(n_cols) < rng.uniform(0.2, 0.9))
        rows.append(
            [
                (
                    int(c),
                    rng.choice(VALUES)
                    if rng.random() < 0.7
                    else np.float32(rng.normal()),
                )
                for c in cols
            ]
        )
    return CSRMatrix.from_rows(rows, n_cols=n_cols)


def draw_case(seed: int):
    """(trees, n_features, base_score, X) for one seed."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 12))
    split_prob = float(rng.choice([0.0, 0.5, 0.8, 1.0]))
    trees = [
        attack_tree(rng, n_features, int(rng.integers(1, 8)), split_prob)
        for _ in range(int(rng.integers(1, 7)))
    ]
    # Narrower than, as wide as, or wider than the model.
    n_cols = int(rng.integers(0, n_features + 4))
    n_rows = int(rng.choice([0, 1, rng.integers(2, 25)]))
    return trees, n_features, float(rng.normal()), attack_matrix(rng, n_rows, n_cols)


def per_tree_scores(trees, base_score: float, X: CSRMatrix) -> np.ndarray:
    """``GBDTModel.predict_raw_per_tree`` without its width check (the
    flat classes accept a wider ``X``; ``leaf_of`` does too)."""
    raw = np.full(X.n_rows, base_score, dtype=np.float64)
    for tree in trees:
        raw += tree.predict(X)
    return raw


class TestRoundUpFloat32:
    def test_comparison_equivalence_on_random_thresholds(self):
        rng = np.random.default_rng(22)
        magnitude = 10.0 ** rng.uniform(-50.0, 45.0, size=10_000)
        t = rng.choice([-1.0, 1.0], size=10_000) * magnitude
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up = round_up_float32(t)
            with np.errstate(over="ignore"):
                nearest = t.astype(np.float32)
        assert up.dtype == np.float32
        assert np.all(up.astype(np.float64) >= t)
        # Both float32 neighbours of t (and theirs): the only x that a
        # wrongly rounded threshold could route differently.
        for x in _f32_neighbours(_f32_neighbours(nearest)).reshape(9, -1):
            np.testing.assert_array_equal(x.astype(np.float64) < t, x < up)

    def test_attack_thresholds_against_every_value(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up = round_up_float32(THRESHOLDS)
        expected = VALUES.astype(np.float64)[:, None] < THRESHOLDS[None, :]
        np.testing.assert_array_equal(VALUES[:, None] < up[None, :], expected)

    def test_named_cases(self):
        up = round_up_float32(
            np.array([1e300, -1e300, np.inf, -np.inf, 1e-50, -1e-50, -0.0,
                      np.nextafter(FLT_MAX, np.inf)])
        )
        np.testing.assert_array_equal(
            up,
            np.array([np.inf, -FLT_MAX, np.inf, -np.inf, F32_TINY, -0.0, -0.0,
                      np.inf], dtype=np.float32),
        )
        assert np.isnan(round_up_float32(np.array([np.nan]))[0])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([None, 0, 1, -1, "T+3"]),
    st.sampled_from([1, 7, "n", None]),
)
def test_scores_match_reference_and_oracle(seed, n_trees, batch_rows):
    trees, n_features, base_score, X = draw_case(seed)
    if n_trees == "T+3":
        n_trees = len(trees) + 3
    if batch_rows == "n":
        batch_rows = max(1, X.n_rows)
    new = FlatEnsemble(trees, n_features)
    old = ReferenceFlatEnsemble(trees, n_features)
    got = new.predict_raw(
        X, base_score=base_score, n_trees=n_trees, batch_rows=batch_rows
    )
    want = old.predict_raw(
        X, base_score=base_score, n_trees=n_trees, batch_rows=batch_rows
    )
    assert got.dtype == want.dtype and np.array_equal(got, want)
    oracle = per_tree_scores(trees[:n_trees], base_score, X)
    assert np.array_equal(got, oracle)
    if X.n_cols <= n_features:
        model = GBDTModel(trees, base_score, "squared", n_features)
        assert np.array_equal(
            model.predict_raw(X, n_trees=n_trees, batch_rows=batch_rows),
            model.predict_raw_per_tree(X, n_trees=n_trees),
        )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from([None, 0, 1, -1, "T+3"]),
    st.sampled_from([1, 7, None]),
)
def test_leaf_slots_match_reference_and_leaf_of(seed, n_trees, batch_rows):
    trees, n_features, _, X = draw_case(seed)
    if n_trees == "T+3":
        n_trees = len(trees) + 3
    new = FlatEnsemble(trees, n_features)
    old = ReferenceFlatEnsemble(trees, n_features)
    got = new.leaf_slots(X, n_trees=n_trees, batch_rows=batch_rows)
    np.testing.assert_array_equal(
        got, old.leaf_slots(X, n_trees=n_trees, batch_rows=batch_rows)
    )
    kept = trees[:n_trees]
    assert got.shape == (X.n_rows, len(kept))
    for t, tree in enumerate(kept):
        np.testing.assert_array_equal(got[:, t], tree.leaf_of(X))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 7, None]))
def test_score_into_spans_match_reference(seed, batch_rows):
    trees, n_features, base_score, X = draw_case(seed)
    rng = np.random.default_rng(seed + 1)
    start = int(rng.integers(0, X.n_rows + 1))
    stop = int(rng.integers(0, X.n_rows + 1))
    n_use = int(rng.integers(0, len(trees) + 1))
    got = np.full(X.n_rows, 123.0)
    want = np.full(X.n_rows, 123.0)
    for flat, out in (
        (FlatEnsemble(trees, n_features), got),
        (ReferenceFlatEnsemble(trees, n_features), want),
    ):
        flat.score_into(
            X, out, base_score=base_score, n_use=n_use,
            batch_rows=batch_rows, start=start, stop=stop,
        )
    assert np.array_equal(got, want)
    # Rows outside the span are untouched.
    outside = np.ones(X.n_rows, dtype=bool)
    outside[start:stop] = False
    assert np.all(got[outside] == 123.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.sampled_from([1, 7, None]))
def test_round_major_multiclass_matches_reference(seed, batch_rows):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 10))
    n_classes = int(rng.integers(2, 5))
    groups = [
        [
            attack_tree(rng, n_features, int(rng.integers(1, 6)), 0.7)
            for _ in range(n_classes)
        ]
        for _ in range(int(rng.integers(1, 5)))
    ]
    base_scores = rng.normal(size=n_classes)
    X = attack_matrix(rng, int(rng.integers(0, 20)), int(rng.integers(0, n_features + 1)))
    model = MulticlassModel(groups, base_scores, n_features)
    trees = [tree for group in groups for tree in group]
    want = ReferenceFlatEnsemble(trees, n_features).predict_raw_classes(
        X, base_scores, n_classes, batch_rows=batch_rows
    )
    got = model.predict_raw(X, batch_rows=batch_rows)
    assert np.array_equal(got, want)
    assert np.array_equal(got, model.predict_raw_per_tree(X))


def test_no_split_ensemble_reads_only_the_dump_column():
    """``n_used == 0``: the panel is the dump column alone, and whatever
    lands in it cannot move a score."""
    trees = []
    for weight in (0.5, -2.0):
        tree = RegressionTree(max_depth=4)
        tree.set_leaf(0, weight)
        trees.append(tree)
    flat = FlatEnsemble(trees, n_features=3)
    assert flat.n_used == 0 and flat.max_depth == 4
    X = CSRMatrix.from_rows(
        [[(0, np.nan), (2, np.inf)], [], [(1, -np.inf)]], n_cols=3
    )
    np.testing.assert_array_equal(
        flat.predict_raw(X, base_score=1.0), np.full(3, 1.0 + 0.5 - 2.0)
    )
    np.testing.assert_array_equal(flat.leaf_slots(X), np.zeros((3, 2), dtype=np.int64))


@pytest.mark.parametrize("n_use", [0, 1, 3])
def test_truncation_is_a_table_prefix(n_use):
    """Level tables are tree-major, so the first n trees of a compiled
    ensemble are the prefix ``[: n * 2**d]`` of every level — and score
    as an ensemble compiled from those n trees alone."""
    rng = np.random.default_rng(7)
    trees = [attack_tree(rng, 6, 4, split_prob=1.0) for _ in range(5)]
    X = attack_matrix(rng, 12, 6)
    whole = FlatEnsemble(trees, n_features=6)
    prefix = FlatEnsemble(trees[:n_use], n_features=6)
    if n_use:
        for depth in range(3):
            lo, plo = 5 * ((1 << depth) - 1), n_use * ((1 << depth) - 1)
            np.testing.assert_array_equal(
                whole.level_thresh[lo : lo + (n_use << depth)],
                prefix.level_thresh[plo : plo + (n_use << depth)],
            )
        np.testing.assert_array_equal(
            whole.leaf_weight[: n_use << 3], prefix.leaf_weight
        )
    np.testing.assert_array_equal(
        whole.predict_raw(X, base_score=0.5, n_trees=n_use),
        prefix.predict_raw(X, base_score=0.5),
    )
