"""Tests for the histogram build strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import TrainConfig
from repro.runtime.build import (
    BatchedBuildStrategy,
    DenseBuildStrategy,
    HistogramBuildStrategy,
    SparseBuildStrategy,
    resolve_build_strategy,
)


@pytest.fixture()
def gradients(tiny_shard, rng):
    grad = rng.normal(size=tiny_shard.n_rows)
    hess = rng.random(tiny_shard.n_rows) + 0.1
    return grad, hess


class TestStrategiesAgree:
    def test_dense_and_sparse_build_equal_histograms(
        self, tiny_shard, gradients
    ):
        grad, hess = gradients
        rows = np.arange(tiny_shard.n_rows)
        dense_hist, dense_s = DenseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        sparse_hist, sparse_s = SparseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)
        np.testing.assert_allclose(dense_hist.hess, sparse_hist.hess)
        assert dense_s >= 0.0 and sparse_s >= 0.0

    def test_batched_matches_serial(self, tiny_shard, gradients):
        grad, hess = gradients
        rows = np.arange(tiny_shard.n_rows)
        serial, _ = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        batched, span = BatchedBuildStrategy(
            batch_size=64, n_threads=4, sparse=True
        ).build(tiny_shard, rows, grad, hess)
        np.testing.assert_allclose(serial.grad, batched.grad)
        np.testing.assert_allclose(serial.hess, batched.hess)
        assert span >= 0.0

    def test_subset_of_rows(self, tiny_shard, gradients):
        grad, hess = gradients
        rows = np.arange(0, tiny_shard.n_rows, 3)
        dense_hist, _ = DenseBuildStrategy().build(tiny_shard, rows, grad, hess)
        sparse_hist, _ = SparseBuildStrategy().build(
            tiny_shard, rows, grad, hess
        )
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)


class TestResolution:
    def test_resolve_serial(self):
        config = TrainConfig()
        assert isinstance(
            resolve_build_strategy(config, sparse=True), SparseBuildStrategy
        )
        assert isinstance(
            resolve_build_strategy(config, sparse=False), DenseBuildStrategy
        )

    def test_resolve_batched_carries_config(self):
        config = TrainConfig(batch_size=128, n_threads=5)
        strategy = resolve_build_strategy(config, sparse=False, batched=True)
        assert isinstance(strategy, BatchedBuildStrategy)
        assert strategy.batch_size == 128
        assert strategy.n_threads == 5
        assert strategy.dense is True

    def test_dense_attribute_mirrors_kernel(self):
        assert DenseBuildStrategy().dense is True
        assert SparseBuildStrategy().dense is False
        assert BatchedBuildStrategy(10, 2, sparse=True).dense is False

    def test_no_strategy_has_a_lifecycle(self):
        """No strategy holds a resource, so none is released or closed —
        and no trainer calls either."""
        from pathlib import Path

        import repro

        for strategy in (
            DenseBuildStrategy(),
            SparseBuildStrategy(),
            BatchedBuildStrategy(10, 2),
        ):
            assert not hasattr(strategy, "release")
            assert not hasattr(strategy, "close")
        src = Path(repro.__file__).parent
        callers = [
            src / "runtime" / "build.py",
            src / "distributed" / "engine.py",
            *sorted((src / "boosting").glob("*.py")),
        ]
        for path in callers:
            text = path.read_text(encoding="utf-8")
            assert "release(" not in text, path
            assert "build_strategy.close()" not in text, path

    def test_strategies_are_the_abc(self):
        for strategy in (
            DenseBuildStrategy(),
            SparseBuildStrategy(),
            BatchedBuildStrategy(10, 2),
        ):
            assert isinstance(strategy, HistogramBuildStrategy)


class TestEngineIntegration:
    def test_explicit_strategy_overrides_flags(self, tiny_dataset):
        """A custom strategy passed to the trainer is actually used."""
        from repro import ClusterConfig
        from repro.distributed.engine import DistributedGBDT

        calls = []

        class Counting(SparseBuildStrategy):
            def build(self, shard, rows, grad, hess):
                calls.append(len(rows))
                return super().build(shard, rows, grad, hess)

        config = TrainConfig(
            n_trees=1, max_depth=3, n_split_candidates=8, compression_bits=0
        )
        trainer = DistributedGBDT(
            "dimboost",
            ClusterConfig(2, 2),
            config,
            build_strategy=Counting(),
        )
        trainer.fit(tiny_dataset)
        assert calls  # the engine routed every build through the strategy

    def test_grower_uses_strategy(self, tiny_shard, tiny_candidates, gradients):
        from repro.tree.grower import LayerwiseGrower

        grad, hess = gradients
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        dense = LayerwiseGrower(
            tiny_shard, tiny_candidates, config, sparse_build=False
        )
        assert isinstance(dense.build_strategy, DenseBuildStrategy)
        custom = LayerwiseGrower(
            tiny_shard,
            tiny_candidates,
            config,
            build_strategy=SparseBuildStrategy(),
        )
        grown = custom.grow(grad, hess)
        assert grown.tree.n_leaves >= 1

