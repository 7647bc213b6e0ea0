"""Tests for per-instance weight support."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, GBDT, TrainConfig, train_distributed
from repro.boosting.losses import LogisticLoss, SquaredLoss
from repro.datasets import CSRMatrix, Dataset
from repro.errors import DataError


def weighted_dataset(n=400, m=30, seed=0):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, m)) < 0.4) * rng.random((n, m))
    y = (dense[:, 2] > 0.3).astype(np.float32)
    weights = rng.uniform(0.5, 2.0, size=n)
    return Dataset(
        CSRMatrix.from_dense(dense.astype(np.float32)), y, "weighted", weights
    )


class TestDatasetWeights:
    def test_validation_shape(self):
        X = CSRMatrix.from_rows([[(0, 1.0)], []], n_cols=2)
        with pytest.raises(DataError, match="weights"):
            Dataset(X, np.zeros(2, dtype=np.float32), weights=np.ones(3))

    def test_validation_negative(self):
        X = CSRMatrix.from_rows([[(0, 1.0)], []], n_cols=2)
        with pytest.raises(DataError, match="non-negative"):
            Dataset(X, np.zeros(2, dtype=np.float32), weights=np.array([1.0, -1.0]))

    def test_take_carries_weights(self):
        data = weighted_dataset(10)
        sub = data.take(np.array([3, 7]))
        np.testing.assert_array_equal(sub.weights, data.weights[[3, 7]])

    def test_first_features_carries_weights(self):
        data = weighted_dataset(10)
        sub = data.first_features(5)
        np.testing.assert_array_equal(sub.weights, data.weights)

    def test_partition_carries_weights(self):
        from repro.datasets import partition_rows

        data = weighted_dataset(10)
        shards = partition_rows(data, 2)
        combined = np.concatenate([s.weights for s in shards])
        np.testing.assert_array_equal(combined, data.weights)


class TestWeightedLosses:
    def test_logistic_gradients_scaled(self):
        loss = LogisticLoss()
        y = np.array([1.0, 0.0])
        raw = np.array([0.0, 0.0])
        w = np.array([2.0, 0.5])
        g_plain, h_plain = loss.gradients(y, raw)
        g_w, h_w = loss.gradients(y, raw, w)
        np.testing.assert_allclose(g_w, g_plain * w)
        np.testing.assert_allclose(h_w, h_plain * w)

    def test_weighted_base_score(self):
        loss = LogisticLoss()
        y = np.array([1.0, 0.0])
        # Weight 3:1 toward the positive: prior = 0.75.
        base = loss.base_score(y, np.array([3.0, 1.0]))
        assert base == pytest.approx(np.log(3.0))

    def test_squared_weighted_mean(self):
        loss = SquaredLoss()
        y = np.array([0.0, 10.0])
        assert loss.base_score(y, np.array([1.0, 3.0])) == pytest.approx(7.5)

    def test_integer_weights_equal_duplication(self):
        """Weight 2 must equal duplicating the instance (for gradients)."""
        loss = LogisticLoss()
        y = np.array([1.0, 0.0])
        raw = np.array([0.3, -0.2])
        w = np.array([2.0, 1.0])
        g_w, h_w = loss.gradients(y, raw, w)
        y_dup = np.array([1.0, 1.0, 0.0])
        raw_dup = np.array([0.3, 0.3, -0.2])
        g_dup, h_dup = loss.gradients(y_dup, raw_dup)
        assert g_w[0] == pytest.approx(g_dup[0] + g_dup[1])
        assert h_w[0] == pytest.approx(h_dup[0] + h_dup[1])

    def test_zero_total_weight(self):
        loss = SquaredLoss()
        assert loss.loss(np.ones(2), np.zeros(2), np.zeros(2)) == 0.0


class TestWeightedTraining:
    def test_weight_2_equals_duplication(self):
        """Training with weight 2 == training with the row duplicated."""
        rng = np.random.default_rng(1)
        dense = (rng.random((100, 10)) < 0.5) * rng.random((100, 10))
        y = (dense[:, 1] > 0.3).astype(np.float32)
        X = CSRMatrix.from_dense(dense.astype(np.float32))

        weights = np.ones(100)
        weights[:20] = 2.0
        weighted = Dataset(X, y, "w", weights)

        dup_ids = np.concatenate([np.arange(100), np.arange(20)])
        duplicated = Dataset(
            X.take_rows(dup_ids), y[dup_ids], "dup"
        )

        config = TrainConfig(n_trees=2, max_depth=3, learning_rate=0.3)
        # Fix one candidate grid for both runs: duplication changes the
        # quantile positions, which is a binning artifact, not a weight
        # semantics difference.
        from repro.sketch import propose_candidates

        candidates = propose_candidates(X, config.n_split_candidates)
        m_w = GBDT(config).fit(weighted, candidates=candidates)
        m_d = GBDT(config).fit(duplicated, candidates=candidates)
        for tw, td in zip(m_w.trees, m_d.trees):
            np.testing.assert_array_equal(tw.split_feature, td.split_feature)
            np.testing.assert_allclose(tw.weight, td.weight, atol=1e-8)

    def test_weights_change_the_model(self):
        data = weighted_dataset()
        unweighted = Dataset(data.X, data.y, "plain")
        config = TrainConfig(n_trees=3, max_depth=4, learning_rate=0.3)
        m_w = GBDT(config).fit(data)
        m_p = GBDT(config).fit(unweighted)
        assert not np.allclose(
            m_w.predict_raw(data.X), m_p.predict_raw(data.X)
        )

    def test_distributed_weighted_matches_single(self):
        data = weighted_dataset()
        config = TrainConfig(
            n_trees=2, max_depth=3, learning_rate=0.3, n_split_candidates=8
        )
        single = GBDT(config).fit(data)
        dist = train_distributed(
            "dimboost",
            data,
            ClusterConfig(n_workers=4, n_servers=4),
            config.with_overrides(compression_bits=0),
        )
        np.testing.assert_allclose(
            dist.model.predict_raw(data.X), single.predict_raw(data.X), atol=1e-7
        )
