"""Cross-cutting scenario tests: realistic combinations of features."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, train_distributed
from repro.boosting import error_rate
from repro.datasets import (
    StorageLevel,
    load_dataset,
    rcv1_like,
    save_dataset,
    train_test_split,
)


class TestNonPowerOfTwoClusters:
    """LightGBM's halving folds surplus workers; everything must still
    agree for w = 3, 5, 6."""

    @pytest.mark.parametrize("w", [3, 5, 6])
    def test_lightgbm_matches_reference(self, tiny_dataset, w):
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        reference = GBDT(config).fit(tiny_dataset)
        result = train_distributed(
            "lightgbm",
            tiny_dataset,
            ClusterConfig(n_workers=w, n_servers=w),
            config,
        )
        np.testing.assert_allclose(
            result.model.predict_raw(tiny_dataset.X),
            reference.predict_raw(tiny_dataset.X),
            atol=1e-7,
        )

    @pytest.mark.parametrize("w", [3, 7])
    def test_dimboost_odd_workers(self, tiny_dataset, w):
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        reference = GBDT(config).fit(tiny_dataset)
        result = train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(n_workers=w, n_servers=w),
            config.with_overrides(compression_bits=0),
        )
        np.testing.assert_allclose(
            result.model.predict_raw(tiny_dataset.X),
            reference.predict_raw(tiny_dataset.X),
            atol=1e-7,
        )


class TestDiskToDistributedPipeline:
    def test_full_pipeline(self, tmp_path):
        """generate -> save npz -> load memory-mapped -> distributed
        train with compression -> evaluate: the whole stack in one go."""
        data = rcv1_like(scale=0.1, seed=13)
        path = tmp_path / "data.npz"
        save_dataset(data, path)
        loaded = load_dataset(path, StorageLevel.DISK)
        train, test = train_test_split(loaded, seed=13)
        config = TrainConfig(
            n_trees=5, max_depth=5, n_split_candidates=10, learning_rate=0.3
        )
        result = train_distributed(
            "dimboost",
            train,
            ClusterConfig(n_workers=3, n_servers=3),
            config.with_overrides(compression_bits=8),
        )
        err = error_rate(test.y, result.model.predict(test.X))
        assert err < 0.45

    def test_weighted_multiclass_combination(self):
        """Multiclass training accepts datasets carrying weights (the
        weights ride along; softmax training currently ignores them)."""
        from repro.boosting import MulticlassGBDT
        from repro.datasets import CSRMatrix, Dataset

        rng = np.random.default_rng(2)
        dense = (rng.random((300, 9)) < 0.5) * rng.random((300, 9))
        y = rng.integers(0, 3, size=300).astype(np.float32)
        data = Dataset(
            CSRMatrix.from_dense(dense.astype(np.float32)),
            y,
            "wmc",
            weights=rng.random(300),
        )
        trainer = MulticlassGBDT(
            n_classes=3, config=TrainConfig(n_trees=2, max_depth=3)
        )
        model = trainer.fit(data)
        assert model.n_rounds == 2


class TestEarlyStoppingWithSubtraction:
    def test_features_compose(self, small_dataset):
        train, valid = train_test_split(small_dataset, seed=3)
        trainer = GBDT(
            TrainConfig(n_trees=20, max_depth=5, learning_rate=0.8),
            subtraction=True,
        )
        model = trainer.fit(train, eval_set=valid, early_stopping_rounds=3)
        assert model.n_trees >= 1
        assert all(r.eval_loss is not None for r in trainer.history)


class TestLeafWiseDistributedParity:
    def test_leafwise_single_machine_only(self, tiny_dataset):
        """Leaf-wise is a single-machine extension; the distributed
        engine stays layer-wise (one aggregation per layer), so their
        models legitimately differ — but both must learn."""
        config = TrainConfig(
            n_trees=4, max_depth=5, n_split_candidates=8, learning_rate=0.3
        )
        leafwise = GBDT(config, leaf_wise=True, max_leaves=8)
        leafwise.fit(tiny_dataset)
        distributed = train_distributed(
            "dimboost", tiny_dataset, ClusterConfig(2, 2), config
        )
        assert leafwise.history[-1].train_loss < leafwise.history[0].train_loss
        assert (
            distributed.rounds[-1].train_loss
            < distributed.rounds[0].train_loss
        )
