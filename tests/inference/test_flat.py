"""FlatEnsemble: compiled layout + bit-identity against the per-tree path."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TrainConfig
from repro.boosting.multiclass import MulticlassGBDT
from repro.datasets import Dataset
from repro.datasets.sparse import CSRMatrix
from repro.errors import DataError, TrainingError
from repro.inference import FlatEnsemble
from repro.inference.flat import round_up_float32
from repro.tree.tree import LEAF, UNUSED, RegressionTree

from .conftest import random_matrix, random_model, random_tree


class TestCompile:
    def test_layout_matches_trees(self, rng):
        trees = [random_tree(rng, 12, 4) for _ in range(5)]
        flat = FlatEnsemble(trees, n_features=12)
        assert flat.n_trees == 5
        depth = flat.max_depth
        bottom = depth - 1
        assert len(flat.level_col) == len(flat.level_thresh)
        assert len(flat.level_col) == 5 * ((1 << bottom) - 1)
        assert len(flat.leaf_weight) == len(flat.leaf_origin) == 5 << bottom
        for t, tree in enumerate(trees):
            for slot in range(tree.max_nodes):
                state = tree.split_feature[slot]
                if state == UNUSED:
                    continue
                # Level d is a tree-major table starting after levels
                # 0..d-1; within the tree it is the heap level reversed,
                # so heap children 2h+1 / 2h+2 sit at 2k+1 / 2k.
                d = (slot + 1).bit_length() - 1
                in_level = slot - ((1 << d) - 1)
                k = (t << d) + ((1 << d) - 1 - in_level)
                at = 5 * ((1 << d) - 1) + k
                if state >= 0:
                    # Real splits: compact column and rounded-up threshold.
                    assert flat.level_col[at] == flat.col_of_feature[state]
                    assert flat.level_thresh[at] == round_up_float32(
                        tree.split_value[slot]
                    )
                    continue
                if d < bottom:
                    # Padded pseudo-splits route everything left.
                    assert np.isposinf(flat.level_thresh[at])
                    assert flat.level_col[at] == 0
                # Every bottom position under a leaf carries its weight
                # and names it as the origin.
                under = slice(k << (bottom - d), (k + 1) << (bottom - d))
                np.testing.assert_array_equal(
                    flat.leaf_weight[under], tree.weight[slot]
                )
                np.testing.assert_array_equal(flat.leaf_origin[under], slot)

    def test_used_features_compact_map(self, rng):
        tree = RegressionTree(max_depth=3)
        left, right = tree.set_split(0, 7, 0.5)
        tree.set_leaf(left, 1.0)
        tree.set_leaf(right, -1.0)
        flat = FlatEnsemble([tree], n_features=10)
        np.testing.assert_array_equal(flat.used_features, [7])
        assert flat.n_used == 1
        assert flat.col_of_feature[7] == 0
        # Every feature no split tests maps to the dump column, n_used.
        assert (np.delete(flat.col_of_feature, 7) == flat.n_used).all()

    def test_rootless_tree_rejected(self):
        with pytest.raises(TrainingError, match="no root"):
            FlatEnsemble([RegressionTree(max_depth=3)], n_features=4)

    def test_split_beyond_width_rejected(self, rng):
        tree = random_tree(rng, n_features=8, max_depth=3, split_prob=1.0)
        with pytest.raises(DataError, match="width"):
            FlatEnsemble([tree], n_features=4)

    def test_empty_ensemble(self):
        flat = FlatEnsemble([], n_features=6)
        X = random_matrix(np.random.default_rng(0), 5, 6)
        np.testing.assert_array_equal(
            flat.predict_raw(X, base_score=0.25), np.full(5, 0.25)
        )


class TestParity:
    def _assert_parity(self, model, X, **kwargs):
        oracle = model.predict_raw_per_tree(X, n_trees=kwargs.get("n_trees"))
        got = model.predict_raw(X, **kwargs)
        np.testing.assert_array_equal(got, oracle)

    def test_trained_model_bitwise(self, trained_model, tiny_dataset):
        self._assert_parity(trained_model, tiny_dataset.X)

    @pytest.mark.parametrize("batch_rows", [1, 3, 64, 300, 10_000])
    def test_batch_rows_invariant(self, trained_model, tiny_dataset, batch_rows):
        self._assert_parity(trained_model, tiny_dataset.X, batch_rows=batch_rows)

    @pytest.mark.parametrize("n_trees", [0, 1, 4, 10, None, -2])
    def test_truncation(self, trained_model, tiny_dataset, n_trees):
        self._assert_parity(trained_model, tiny_dataset.X, n_trees=n_trees)

    def test_empty_input(self, trained_model):
        X = CSRMatrix.from_rows([], n_cols=trained_model.n_features)
        assert trained_model.predict_raw(X).shape == (0,)

    def test_empty_rows(self, trained_model):
        X = CSRMatrix.from_rows(
            [[], [(0, 1.0)], []], n_cols=trained_model.n_features
        )
        self._assert_parity(trained_model, X)

    def test_single_leaf_trees(self, rng):
        model = random_model(rng, n_trees=4, n_features=6, max_depth=3,
                             split_prob=0.0)
        assert all(t.split_feature[0] == LEAF for t in model.trees)
        X = random_matrix(rng, 7, 6)
        self._assert_parity(model, X)

    def test_batch_rows_must_be_positive(self, trained_model, tiny_dataset):
        with pytest.raises(DataError, match="batch_rows"):
            trained_model.predict_raw(tiny_dataset.X, batch_rows=0)

    @pytest.mark.parametrize("n_processes", [0, -2])
    def test_n_processes_must_be_positive(
        self, trained_model, tiny_dataset, n_processes, monkeypatch
    ):
        """Refused at the entry point, before any scoring, like
        ``ParallelScorer(flat, n_processes=0)`` and ``batch_rows=0``."""
        flat = trained_model.compiled()

        def no_scoring(*args, **kwargs):
            raise AssertionError("scored before validating n_processes")

        monkeypatch.setattr(flat, "score_into", no_scoring)
        for entry in (
            flat.predict_raw,
            trained_model.predict_raw,
            trained_model.predict,
            trained_model.predict_labels,
        ):
            with pytest.raises(DataError, match="n_processes must be >= 1, got"):
                entry(tiny_dataset.X, n_processes=n_processes)

    def test_wider_input_rejected(self, trained_model):
        X = CSRMatrix.from_rows(
            [[(0, 1.0)]], n_cols=trained_model.n_features + 3
        )
        with pytest.raises(DataError, match="trained on"):
            trained_model.predict_raw(X)

    def test_predict_matches_transform(self, trained_model, tiny_dataset):
        raw = trained_model.predict_raw_per_tree(tiny_dataset.X)
        expected = trained_model._loss.transform(raw)
        np.testing.assert_array_equal(
            trained_model.predict(tiny_dataset.X), expected
        )
        np.testing.assert_array_equal(
            trained_model.predict_labels(tiny_dataset.X),
            (expected >= 0.5).astype(np.float32),
        )

    def test_compiled_cache_tracks_tree_count(self, rng):
        model = random_model(rng, n_trees=3, n_features=5, max_depth=3)
        first = model.compiled()
        assert model.compiled() is first
        model.trees.append(random_tree(rng, 5, 3))
        recompiled = model.compiled()
        assert recompiled is not first
        assert recompiled.n_trees == 4


class TestNarrowInput:
    """X.n_cols < n_features: absent features route as 0 < threshold."""

    @pytest.mark.parametrize("threshold", [0.5, 0.0, -0.5])
    def test_absent_feature_zero_routing(self, threshold):
        # Feature 3 never appears in the 2-column input.
        tree = RegressionTree(max_depth=2)
        left, right = tree.set_split(0, 3, threshold)
        tree.set_leaf(left, 10.0)   # reached iff 0 < threshold
        tree.set_leaf(right, -10.0)
        flat = FlatEnsemble([tree], n_features=5)
        X = CSRMatrix.from_rows([[(0, 7.0)], []], n_cols=2)
        got = flat.predict_raw(X)
        expected_leaf = 10.0 if 0.0 < threshold else -10.0
        np.testing.assert_array_equal(got, [expected_leaf, expected_leaf])
        np.testing.assert_array_equal(got, tree.predict(X))

    def test_narrow_input_parity_random(self, rng):
        model = random_model(rng, n_trees=6, n_features=10, max_depth=4)
        X = random_matrix(rng, 20, 4)  # misses features 4..9 entirely
        oracle = np.full(X.n_rows, model.base_score)
        for tree in model.trees:
            oracle += tree.predict(X)
        np.testing.assert_array_equal(model.predict_raw(X), oracle)


class TestLeafSlots:
    def test_matches_leaf_of(self, trained_model, tiny_dataset):
        slots = trained_model.compiled().leaf_slots(tiny_dataset.X)
        for t, tree in enumerate(trained_model.trees):
            np.testing.assert_array_equal(
                slots[:, t], tree.leaf_of(tiny_dataset.X)
            )

    def test_truncated(self, trained_model, tiny_dataset):
        slots = trained_model.compiled().leaf_slots(tiny_dataset.X, n_trees=3)
        assert slots.shape == (tiny_dataset.X.n_rows, 3)


class TestMulticlass:
    @pytest.fixture(scope="class")
    def mc_model_and_data(self, tiny_dataset):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 3, size=tiny_dataset.n_instances)
        train = Dataset(tiny_dataset.X, y, name="mc")
        model = MulticlassGBDT(
            n_classes=3, config=TrainConfig(n_trees=5, max_depth=4, seed=2)
        ).fit(train)
        return model, train

    def test_one_pass_bitwise(self, mc_model_and_data):
        model, train = mc_model_and_data
        oracle = model.predict_raw_per_tree(train.X)
        np.testing.assert_array_equal(model.predict_raw(train.X), oracle)

    @pytest.mark.parametrize("batch_rows", [1, 17, 1000])
    def test_batch_invariant(self, mc_model_and_data, batch_rows):
        model, train = mc_model_and_data
        np.testing.assert_array_equal(
            model.predict_raw(train.X, batch_rows=batch_rows),
            model.predict_raw_per_tree(train.X),
        )

    def test_labels_and_proba_consistent(self, mc_model_and_data):
        model, train = mc_model_and_data
        raw = model.predict_raw_per_tree(train.X)
        np.testing.assert_array_equal(
            model.predict_labels(train.X), np.argmax(raw, axis=1)
        )
        proba = model.predict_proba(train.X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_bad_class_count_rejected(self, mc_model_and_data):
        model, train = mc_model_and_data
        flat = model.compiled()
        with pytest.raises(DataError, match="classes"):
            flat.predict_raw_classes(train.X, np.zeros(4), 4)
