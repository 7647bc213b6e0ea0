"""Integration tests for the single-machine GBDT trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GBDT, TrainConfig
from repro.boosting import auc, error_rate
from repro.boosting.gbdt import sample_features
from repro.datasets import train_test_split
from repro.errors import TrainingError
from repro.utils.rng import spawn_rng


class TestTraining:
    def test_loss_decreases_monotonically(self, small_dataset):
        trainer = GBDT(TrainConfig(n_trees=8, max_depth=4, learning_rate=0.3))
        trainer.fit(small_dataset)
        losses = [r.train_loss for r in trainer.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_model_learns_signal(self, small_dataset):
        train, test = train_test_split(small_dataset, seed=0)
        trainer = GBDT(TrainConfig(n_trees=15, max_depth=5, learning_rate=0.3))
        model = trainer.fit(train)
        score = auc(test.y, model.predict(test.X))
        assert score > 0.65  # far above chance

    def test_more_trees_fit_train_better(self, small_dataset):
        few = GBDT(TrainConfig(n_trees=2, max_depth=4, learning_rate=0.3))
        many = GBDT(TrainConfig(n_trees=12, max_depth=4, learning_rate=0.3))
        few.fit(small_dataset)
        many.fit(small_dataset)
        assert many.history[-1].train_loss < few.history[-1].train_loss

    def test_deterministic(self, tiny_dataset):
        config = TrainConfig(n_trees=3, max_depth=3, seed=5)
        m1 = GBDT(config).fit(tiny_dataset)
        m2 = GBDT(config).fit(tiny_dataset)
        np.testing.assert_array_equal(
            m1.predict_raw(tiny_dataset.X), m2.predict_raw(tiny_dataset.X)
        )

    def test_history_records(self, tiny_dataset):
        trainer = GBDT(TrainConfig(n_trees=4, max_depth=3))
        trainer.fit(tiny_dataset)
        assert len(trainer.history) == 4
        assert trainer.history[0].tree_index == 0
        assert trainer.history[-1].elapsed_seconds >= trainer.history[0].seconds
        assert all(r.n_histograms >= 1 for r in trainer.history)

    def test_squared_loss_regression(self):
        from repro.datasets import SyntheticSpec, make_sparse_regression

        spec = SyntheticSpec(
            n_instances=500, n_features=60, avg_nnz=10, label_noise=0.1
        )
        data = make_sparse_regression(spec, seed=0)
        trainer = GBDT(
            TrainConfig(
                n_trees=10, max_depth=4, learning_rate=0.3, loss="squared"
            )
        )
        trainer.fit(data)
        assert trainer.history[-1].train_loss < trainer.history[0].train_loss

    def test_shrinkage_scales_weights(self, tiny_dataset):
        slow = GBDT(
            TrainConfig(n_trees=1, max_depth=3, learning_rate=0.01)
        ).fit(tiny_dataset)
        fast = GBDT(
            TrainConfig(n_trees=1, max_depth=3, learning_rate=1.0)
        ).fit(tiny_dataset)
        w_slow = slow.trees[0].weight[slow.trees[0].split_feature == -1]
        w_fast = fast.trees[0].weight[fast.trees[0].split_feature == -1]
        nonzero = np.abs(w_fast) > 1e-12
        np.testing.assert_allclose(
            w_slow[nonzero] / w_fast[nonzero], 0.01, rtol=1e-6
        )

    def test_base_score_used(self, tiny_dataset):
        model = GBDT(TrainConfig(n_trees=1, max_depth=2)).fit(tiny_dataset)
        prior = float(np.mean(tiny_dataset.y))
        expected = np.log(prior / (1 - prior))
        assert model.base_score == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("flag", ["sparse_build", "use_index"])
    def test_removed_ablation_flags_are_refused(self, flag):
        """The single-machine trainer always builds with Algorithm 2
        through the node-to-instance index."""
        with pytest.raises(TypeError):
            GBDT(TrainConfig(), **{flag: False})


class TestFeatureSampling:
    def test_full_ratio_all_true(self):
        mask = sample_features(10, 1.0, spawn_rng(0, "t"))
        assert mask.all()

    def test_partial_ratio_count(self):
        mask = sample_features(100, 0.3, spawn_rng(0, "t"))
        assert mask.sum() == 30

    def test_invalid_ratio(self):
        with pytest.raises(TrainingError):
            sample_features(10, 0.0, spawn_rng(0, "t"))

    def test_sampled_training_uses_subset(self, small_dataset):
        config = TrainConfig(
            n_trees=2, max_depth=4, feature_sample_ratio=0.1, seed=3
        )
        model = GBDT(config).fit(small_dataset)
        for t, tree in enumerate(model.trees):
            mask = sample_features(
                small_dataset.n_features, 0.1, spawn_rng(3, "feature_sampling", t)
            )
            used = tree.split_feature[tree.split_feature >= 0]
            assert all(mask[f] for f in used)
