"""Property tests: FlatEnsemble ≡ per-tree reference on random models.

Seed-driven in the repo's house style: hypothesis draws a seed, the seed
derives a random partial-tree model, a random (sometimes narrower,
sometimes empty-rowed) input, and a random batch/truncation setting —
and the compiled path must reproduce the per-tree loop bit for bit.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boosting.multiclass import MulticlassModel
from repro.inference import FlatEnsemble

from .conftest import random_matrix, random_model, random_tree


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_flat_matches_per_tree(seed):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 24))
    model = random_model(
        rng,
        n_trees=int(rng.integers(1, 9)),
        n_features=n_features,
        max_depth=int(rng.integers(1, 6)),
        split_prob=float(rng.uniform(0.0, 1.0)),
    )
    # Sometimes narrower than the model; absent features route as zero.
    n_cols = int(rng.integers(0, n_features + 1))
    X = random_matrix(rng, n_rows=int(rng.integers(0, 30)), n_cols=n_cols)
    n_trees = (
        None if rng.random() < 0.5 else int(rng.integers(-2, model.n_trees + 2))
    )
    batch_rows = None if rng.random() < 0.5 else int(rng.integers(1, 40))

    oracle = model.predict_raw_per_tree(X, n_trees=n_trees)
    got = model.predict_raw(X, n_trees=n_trees, batch_rows=batch_rows)
    np.testing.assert_array_equal(got, oracle)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_accumulation_is_sequential_in_boosting_order(seed):
    """Leaf weights spanning sixteen decades from a non-zero base score:
    any sum that is not ((base + w0) + w1) + ... — pairwise, reordered,
    base added last — lands on different bits than the per-tree loop."""
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 16))
    model = random_model(
        rng,
        n_trees=int(rng.integers(9, 40)),
        n_features=n_features,
        max_depth=int(rng.integers(1, 5)),
    )
    for tree in model.trees:
        tree.weight *= 10.0 ** rng.uniform(-8.0, 8.0)
    model.base_score = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-8.0, 8.0))
    # Serving shapes: no rows, a lone row, a ragged block.
    n_rows = int(rng.choice([0, 1, rng.integers(2, 40)]))
    X = random_matrix(rng, n_rows=n_rows, n_cols=n_features, empty_row_prob=0.3)
    n_trees = (
        None if rng.random() < 0.5 else int(rng.integers(-2, model.n_trees + 2))
    )
    batch_rows = None if rng.random() < 0.5 else int(rng.integers(1, 12))

    oracle = model.predict_raw_per_tree(X, n_trees=n_trees)
    got = model.predict_raw(X, n_trees=n_trees, batch_rows=batch_rows)
    assert np.array_equal(got, oracle)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_leaf_slots_match_leaf_of(seed):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 16))
    trees = [
        random_tree(rng, n_features, int(rng.integers(1, 5)))
        for _ in range(int(rng.integers(1, 6)))
    ]
    flat = FlatEnsemble(trees, n_features)
    X = random_matrix(rng, n_rows=int(rng.integers(1, 25)), n_cols=n_features)
    slots = flat.leaf_slots(X)
    for t, tree in enumerate(trees):
        np.testing.assert_array_equal(slots[:, t], tree.leaf_of(X))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_multiclass_one_pass_matches_per_tree(seed):
    rng = np.random.default_rng(seed)
    n_features = int(rng.integers(1, 16))
    n_classes = int(rng.integers(2, 5))
    n_rounds = int(rng.integers(1, 5))
    groups = [
        [
            random_tree(rng, n_features, int(rng.integers(1, 5)))
            for _ in range(n_classes)
        ]
        for _ in range(n_rounds)
    ]
    model = MulticlassModel(
        tree_groups=groups,
        base_scores=rng.normal(size=n_classes),
        n_features=n_features,
    )
    X = random_matrix(rng, n_rows=int(rng.integers(0, 25)), n_cols=n_features)
    batch_rows = None if rng.random() < 0.5 else int(rng.integers(1, 30))
    np.testing.assert_array_equal(
        model.predict_raw(X, batch_rows=batch_rows),
        model.predict_raw_per_tree(X),
    )
