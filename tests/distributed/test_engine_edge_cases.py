"""Edge-case and robustness tests for the distributed engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, train_distributed
from repro.datasets import (
    CSRMatrix,
    Dataset,
    SyntheticSpec,
    make_sparse_regression,
)
from repro.errors import DataError


class TestSingleWorker:
    def test_one_worker_no_comm_for_aggregation(self, tiny_dataset):
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        result = train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(n_workers=1, n_servers=1),
            config.with_overrides(compression_bits=0),
        )
        # Some tiny control traffic exists, but no histogram transfer:
        # a single co-located worker/server moves zero remote bytes.
        assert result.breakdown.communication < 0.01

    def test_one_worker_matches_reference(self, tiny_dataset):
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        single = GBDT(config).fit(tiny_dataset)
        result = train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(n_workers=1, n_servers=1),
            config.with_overrides(compression_bits=0),
        )
        np.testing.assert_allclose(
            result.model.predict_raw(tiny_dataset.X),
            single.predict_raw(tiny_dataset.X),
            atol=1e-9,
        )


class TestRegressionDistributed:
    def test_squared_loss_all_systems(self):
        spec = SyntheticSpec(
            n_instances=400, n_features=60, avg_nnz=8, label_noise=0.1
        )
        data = make_sparse_regression(spec, seed=0)
        config = TrainConfig(
            n_trees=3,
            max_depth=4,
            n_split_candidates=8,
            learning_rate=0.3,
            loss="squared",
        )
        cluster = ClusterConfig(n_workers=3, n_servers=3)
        reference = GBDT(config).fit(data)
        exact = config.with_overrides(compression_bits=0)
        for system in ("xgboost", "dimboost"):
            result = train_distributed(system, data, cluster, exact)
            np.testing.assert_allclose(
                result.model.predict_raw(data.X),
                reference.predict_raw(data.X),
                atol=1e-6,
            )
            losses = [r.train_loss for r in result.rounds]
            assert losses[-1] < losses[0]


class TestDegenerateData:
    def test_constant_labels(self):
        """All-one labels: no splits ever, model predicts the prior."""
        X = CSRMatrix.from_rows(
            [[(0, float(i))] for i in range(50)], n_cols=4
        )
        data = Dataset(X, np.ones(50, dtype=np.float32), "const")
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=4)
        result = train_distributed(
            "dimboost", data, ClusterConfig(2, 2), config
        )
        proba = result.model.predict(data.X)
        assert np.all(proba > 0.9)

    def test_single_feature(self):
        rng = np.random.default_rng(0)
        values = rng.random(120)
        X = CSRMatrix.from_rows([[(0, float(v))] for v in values], n_cols=1)
        y = (values > 0.5).astype(np.float32)
        data = Dataset(X, y, "1d")
        config = TrainConfig(
            n_trees=3, max_depth=3, n_split_candidates=8, learning_rate=0.5
        )
        result = train_distributed(
            "dimboost", data, ClusterConfig(1, 1), config
        )
        labels = (result.model.predict(data.X) >= 0.5).astype(np.float32)
        assert np.mean(labels == y) > 0.9

    def test_empty_feature_columns(self):
        """Features that never appear must never be chosen for splits."""
        rows = [[(0, float(i % 7))] for i in range(60)]
        X = CSRMatrix.from_rows(rows, n_cols=10)  # columns 1..9 empty
        y = (np.arange(60) % 7 > 3).astype(np.float32)
        data = Dataset(X, y, "sparse-cols")
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=6)
        result = train_distributed(
            "xgboost", data, ClusterConfig(2, 2), config
        )
        for tree in result.model.trees:
            used = tree.split_feature[tree.split_feature >= 0]
            assert np.all(used == 0)

    def test_more_servers_than_workers(self, tiny_dataset):
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        result = train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(n_workers=2, n_servers=6),
            config,
        )
        assert result.model.n_trees == 2

    def test_depth_one_trees(self, tiny_dataset):
        """Depth-1 trees are single leaves predicting shrunken priors."""
        config = TrainConfig(n_trees=3, max_depth=1, n_split_candidates=8)
        result = train_distributed(
            "dimboost", tiny_dataset, ClusterConfig(2, 2), config
        )
        for tree in result.model.trees:
            assert tree.n_leaves == 1


class TestDeterminism:
    def test_same_seed_same_model(self, tiny_dataset):
        config = TrainConfig(
            n_trees=2, max_depth=4, n_split_candidates=8, seed=9
        )
        a = train_distributed(
            "dimboost", tiny_dataset, ClusterConfig(3, 3), config
        )
        b = train_distributed(
            "dimboost", tiny_dataset, ClusterConfig(3, 3), config
        )
        np.testing.assert_array_equal(
            a.model.predict_raw(tiny_dataset.X),
            b.model.predict_raw(tiny_dataset.X),
        )

    def test_compression_deterministic_per_seed(self, tiny_dataset):
        """Stochastic rounding derives from the config seed: repeatable."""
        config = TrainConfig(
            n_trees=2, max_depth=4, n_split_candidates=8, seed=4, compression_bits=8
        )
        a = train_distributed("dimboost", tiny_dataset, ClusterConfig(3, 3), config)
        b = train_distributed("dimboost", tiny_dataset, ClusterConfig(3, 3), config)
        np.testing.assert_array_equal(
            a.model.predict_raw(tiny_dataset.X),
            b.model.predict_raw(tiny_dataset.X),
        )

    def test_feature_sampling_distributed_matches_single(self, small_dataset):
        config = TrainConfig(
            n_trees=2,
            max_depth=3,
            n_split_candidates=8,
            feature_sample_ratio=0.3,
            seed=11,
        )
        single = GBDT(config).fit(small_dataset)
        dist = train_distributed(
            "xgboost", small_dataset, ClusterConfig(2, 2), config
        )
        for a, b in zip(single.trees, dist.model.trees):
            np.testing.assert_array_equal(a.split_feature, b.split_feature)
