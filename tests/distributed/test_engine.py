"""End-to-end tests of the distributed training engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BACKEND_NAMES,
    ClusterConfig,
    GBDT,
    TrainConfig,
    train_distributed,
)
from repro.boosting import error_rate
from repro.datasets import train_test_split
from repro.errors import TrainingError


@pytest.fixture(scope="module")
def split_data(small_dataset):
    return train_test_split(small_dataset, seed=0)


@pytest.fixture(scope="module")
def fast_cfg():
    return TrainConfig(
        n_trees=3, max_depth=4, n_split_candidates=8, learning_rate=0.3
    )


@pytest.fixture(scope="module")
def cluster4():
    return ClusterConfig(n_workers=4, n_servers=4)


class TestTreeIdentity:
    """With exact aggregation, every system grows the reference trees.

    Exact structural identity is asserted at depth 3, where every node is
    well-populated and gains are well-separated.  At greater depths the
    different aggregation topologies sum floats in different orders, so a
    near-tied gain in a tiny node can resolve differently — the deeper
    runs are covered by the objective-equivalence test below.
    """

    @pytest.mark.parametrize("system", BACKEND_NAMES)
    def test_matches_single_machine(self, split_data, cluster4, system):
        train, _ = split_data
        config = TrainConfig(
            n_trees=3, max_depth=3, n_split_candidates=8, learning_rate=0.3
        )
        reference = GBDT(config).fit(train)
        exact = config.with_overrides(compression_bits=0)
        result = train_distributed(system, train, cluster4, exact)
        assert result.model.n_trees == reference.n_trees
        for ours, ref in zip(result.model.trees, reference.trees):
            np.testing.assert_array_equal(ours.split_feature, ref.split_feature)
            np.testing.assert_allclose(ours.split_value, ref.split_value)
            np.testing.assert_allclose(ours.weight, ref.weight, atol=1e-8)

    @pytest.mark.parametrize("system", BACKEND_NAMES)
    def test_objective_equivalent_at_depth(
        self, split_data, fast_cfg, cluster4, system
    ):
        """At depth 4, structures may diverge only on gain ties; the tied
        split itself is equally good but the subtrees below it explore
        different partitions, so the final loss can drift a little — it
        must stay within a fraction of a percent of the reference."""
        train, _ = split_data
        ref_trainer = GBDT(fast_cfg)
        ref_trainer.fit(train)
        exact = fast_cfg.with_overrides(compression_bits=0)
        result = train_distributed(system, train, cluster4, exact)
        assert result.rounds[-1].train_loss == pytest.approx(
            ref_trainer.history[-1].train_loss, rel=5e-3
        )

    def test_worker_counts_agree(self, split_data, fast_cfg):
        train, _ = split_data
        results = [
            train_distributed(
                "dimboost",
                train,
                ClusterConfig(n_workers=w, n_servers=w),
                fast_cfg.with_overrides(compression_bits=0),
            )
            for w in (1, 2, 5)
        ]
        raw = [r.model.predict_raw(train.X) for r in results]
        np.testing.assert_allclose(raw[0], raw[1], atol=1e-7)
        np.testing.assert_allclose(raw[0], raw[2], atol=1e-7)


class TestAccuracy:
    @pytest.mark.parametrize("system", ["dimboost", "xgboost"])
    def test_learns_signal(self, split_data, cluster4, system):
        train, test = split_data
        config = TrainConfig(
            n_trees=10, max_depth=5, n_split_candidates=8, learning_rate=0.3
        )
        result = train_distributed(system, train, cluster4, config)
        err = error_rate(test.y, result.model.predict(test.X))
        assert err < 0.45  # clearly better than chance on noisy labels

    def test_compression_accuracy_close(self, split_data, cluster4):
        """The paper's Table 3 note: 8-bit ~ full precision accuracy."""
        train, test = split_data
        config = TrainConfig(
            n_trees=8, max_depth=4, n_split_candidates=8, learning_rate=0.3
        )
        errs = {}
        for bits in (0, 8):
            packed = config.with_overrides(compression_bits=bits)
            result = train_distributed("dimboost", train, cluster4, packed)
            errs[bits] = error_rate(test.y, result.model.predict(test.X))
        assert abs(errs[8] - errs[0]) < 0.06

    def test_distributed_sketch_close_to_exact(self, split_data, cluster4, fast_cfg):
        train, test = split_data
        fast_exact = fast_cfg.with_overrides(compression_bits=0)
        exact = train_distributed("dimboost", train, cluster4, fast_exact)
        sketched = train_distributed(
            "dimboost", train, cluster4, fast_exact, sketch_mode="distributed"
        )
        e1 = error_rate(test.y, exact.model.predict(test.X))
        e2 = error_rate(test.y, sketched.model.predict(test.X))
        assert abs(e1 - e2) < 0.08


class TestTiming:
    def test_breakdown_populated(self, split_data, fast_cfg, cluster4):
        train, _ = split_data
        result = train_distributed("dimboost", train, cluster4, fast_cfg)
        assert result.breakdown.loading > 0
        assert result.breakdown.computation > 0
        assert result.breakdown.communication > 0
        assert result.sim_seconds == pytest.approx(result.breakdown.total)

    def test_rounds_monotone_in_time(self, split_data, fast_cfg, cluster4):
        train, _ = split_data
        result = train_distributed("xgboost", train, cluster4, fast_cfg)
        elapsed = [r.sim_elapsed for r in result.rounds]
        assert elapsed == sorted(elapsed)
        assert len(result.rounds) == fast_cfg.n_trees

    def test_loss_decreases(self, split_data, fast_cfg, cluster4):
        train, _ = split_data
        result = train_distributed("dimboost", train, cluster4, fast_cfg)
        losses = [r.train_loss for r in result.rounds]
        assert losses[-1] < losses[0]

    def test_mllib_more_comm_than_dimboost(self, split_data, fast_cfg, cluster4):
        """Table 1's ordering must survive end-to-end."""
        train, _ = split_data
        mllib = train_distributed("mllib", train, cluster4, fast_cfg)
        dim = train_distributed(
            "dimboost", train, cluster4, fast_cfg.with_overrides(compression_bits=0)
        )
        assert mllib.breakdown.communication > dim.breakdown.communication

    def test_system_recorded(self, split_data, fast_cfg, cluster4):
        train, _ = split_data
        result = train_distributed("lightgbm", train, cluster4, fast_cfg)
        assert result.system == "lightgbm"


class TestValidation:
    def test_unknown_system(self, split_data, fast_cfg, cluster4):
        train, _ = split_data
        with pytest.raises(TrainingError):
            train_distributed("sparkly", train, cluster4, fast_cfg)

    def test_lightgbm_needs_enough_features(self, tiny_dataset, fast_cfg):
        cluster = ClusterConfig(n_workers=64, n_servers=64)
        with pytest.raises(TrainingError, match="at least one feature"):
            train_distributed("lightgbm", tiny_dataset, cluster, fast_cfg)
