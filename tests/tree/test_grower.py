"""Tests for the layer-wise grower."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TrainConfig
from repro.errors import TrainingError
from repro.histogram import BinnedShard
from repro.sketch import propose_candidates
from repro.tree import LayerwiseGrower


@pytest.fixture()
def grown(tiny_dataset, tiny_candidates, tiny_shard, rng):
    config = TrainConfig(n_trees=1, max_depth=4, n_split_candidates=8)
    grower = LayerwiseGrower(tiny_shard, tiny_candidates, config)
    g = rng.normal(size=tiny_shard.n_rows)
    h = rng.random(tiny_shard.n_rows) + 0.1
    return grower.grow(g, h), g, h, config


class TestGrowth:
    def test_tree_structure_valid(self, grown):
        result, *_ = grown
        result.tree.validate()

    def test_depth_respected(self, grown):
        result, *_ = grown
        tree = result.tree
        for node in range(tree.max_nodes):
            if tree.is_internal(node):
                assert tree.depth_of(node) < tree.max_depth

    def test_leaf_assignment_matches_prediction(
        self, grown, tiny_dataset
    ):
        """The index-derived leaf assignment equals real tree inference."""
        result, *_ = grown
        predicted_leaves = result.tree.leaf_of(tiny_dataset.X)
        np.testing.assert_array_equal(result.leaf_of_rows, predicted_leaves)

    def test_leaf_weights_match_formula(self, grown, tiny_shard):
        result, g, h, config = grown
        tree = result.tree
        for node in range(tree.max_nodes):
            if tree.is_leaf(node):
                rows = result.leaf_of_rows == node
                if rows.sum() == 0:
                    continue
                expected = (
                    -g[rows].sum() / (h[rows].sum() + config.reg_lambda)
                ) * config.learning_rate
                assert tree.weight[node] == pytest.approx(expected, rel=1e-6)

    def test_histogram_count_recorded(self, grown):
        result, *_ = grown
        assert result.n_histograms >= 1

    def test_gradient_length_check(self, tiny_shard, tiny_candidates):
        config = TrainConfig(n_trees=1, max_depth=3)
        grower = LayerwiseGrower(tiny_shard, tiny_candidates, config)
        with pytest.raises(TrainingError):
            grower.grow(np.zeros(3), np.zeros(3))

    def test_candidate_mismatch(self, tiny_shard, small_candidates):
        config = TrainConfig(n_trees=1, max_depth=3)
        with pytest.raises(TrainingError):
            LayerwiseGrower(tiny_shard, small_candidates, config)


class TestRemovedAblationFlags:
    """The grower always builds with Algorithm 2 through the node index;
    the Table 3 bench measures the ablations on the kernels directly."""

    @pytest.mark.parametrize(
        "flag",
        [
            {"sparse_build": False},
            {"use_index": False},
            {"batched": True},
            {"build_strategy": None},
        ],
        ids=lambda flag: next(iter(flag)),
    )
    def test_flag_is_refused(self, tiny_shard, tiny_candidates, flag):
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        with pytest.raises(TypeError):
            LayerwiseGrower(tiny_shard, tiny_candidates, config, **flag)


class TestFeatureSampling:
    def test_mask_restricts_splits(self, tiny_shard, tiny_candidates, rng):
        config = TrainConfig(n_trees=1, max_depth=4, n_split_candidates=8)
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows) + 0.1
        mask = np.zeros(tiny_shard.n_features, dtype=bool)
        mask[:5] = True
        grown = LayerwiseGrower(tiny_shard, tiny_candidates, config).grow(
            g, h, feature_valid=mask
        )
        used = set(
            grown.tree.split_feature[grown.tree.split_feature >= 0].tolist()
        )
        assert used <= set(range(5))


class TestDegenerate:
    def test_depth_one_single_leaf(self, tiny_shard, tiny_candidates, rng):
        config = TrainConfig(n_trees=1, max_depth=1)
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows) + 0.1
        grown = LayerwiseGrower(tiny_shard, tiny_candidates, config).grow(g, h)
        assert grown.tree.n_leaves == 1
        assert grown.tree.is_leaf(0)

    def test_uniform_gradients_no_split(self, tiny_shard, tiny_candidates):
        """Constant gradients have no gain anywhere: root stays a leaf."""
        config = TrainConfig(n_trees=1, max_depth=4)
        n = tiny_shard.n_rows
        grown = LayerwiseGrower(tiny_shard, tiny_candidates, config).grow(
            np.ones(n), np.ones(n)
        )
        assert grown.tree.is_leaf(0)

    def test_min_split_gain_threshold(self, tiny_shard, tiny_candidates, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows) + 0.1
        loose = LayerwiseGrower(
            tiny_shard, tiny_candidates, TrainConfig(max_depth=4)
        ).grow(g, h)
        strict = LayerwiseGrower(
            tiny_shard,
            tiny_candidates,
            TrainConfig(max_depth=4, min_split_gain=1e9),
        ).grow(g, h)
        assert strict.tree.n_internal == 0
        assert loose.tree.n_internal >= strict.tree.n_internal
