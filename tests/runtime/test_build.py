"""Tests for the histogram build strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig
from repro.distributed.plan import RunPlan
from repro.histogram import build_histogram_batched
from repro.runtime.build import (
    DenseBuildStrategy,
    HistogramBuildStrategy,
    SparseBuildStrategy,
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
        dense_hist = DenseBuildStrategy().build(tiny_shard, rows, grad, hess)
        sparse_hist = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)
        np.testing.assert_allclose(dense_hist.hess, sparse_hist.hess)

    def test_batched_matches_serial(self, tiny_shard, gradients):
        """Section 5.2's batch construction (the Table 3 bench's call)
        sums to the serial strategy's histogram."""
        grad, hess = gradients
        rows = np.arange(tiny_shard.n_rows)
        serial = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        batched = build_histogram_batched(
            tiny_shard, rows, grad, hess, batch_size=64, n_threads=4
        )
        np.testing.assert_allclose(serial.grad, batched.histogram.grad)
        np.testing.assert_allclose(serial.hess, batched.histogram.hess)
        assert batched.span_seconds >= 0.0

    def test_subset_of_rows(self, tiny_shard, gradients):
        grad, hess = gradients
        rows = np.arange(0, tiny_shard.n_rows, 3)
        dense_hist = DenseBuildStrategy().build(tiny_shard, rows, grad, hess)
        sparse_hist = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        np.testing.assert_allclose(dense_hist.grad, sparse_hist.grad)


class TestResolution:
    def test_resolve_serial(self):
        """The plan picks the strategy from the backend's ``build_mode``."""
        cluster = ClusterConfig(2, 2)
        assert isinstance(
            RunPlan("dimboost", cluster, TrainConfig()).make_build_strategy(),
            SparseBuildStrategy,
        )
        assert isinstance(
            RunPlan("xgboost", cluster, TrainConfig()).make_build_strategy(),
            DenseBuildStrategy,
        )

    def test_batched_strategy_is_gone(self):
        """Section 5.2's batch construction is a bench measurement
        (``build_histogram_batched``), not a training strategy."""
        import repro.runtime
        import repro.runtime.build as build

        for name in ("BatchedBuildStrategy", "resolve_build_strategy"):
            assert not hasattr(build, name)
            assert not hasattr(repro.runtime, name)

    def test_dense_attribute_mirrors_kernel(self):
        assert DenseBuildStrategy().dense is True
        assert SparseBuildStrategy().dense is False

    def test_no_strategy_has_a_lifecycle(self):
        """No strategy holds a resource, so none is released or closed —
        and no trainer calls either."""
        from pathlib import Path

        import repro

        for strategy in (DenseBuildStrategy(), SparseBuildStrategy()):
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
        for strategy in (DenseBuildStrategy(), SparseBuildStrategy()):
            assert isinstance(strategy, HistogramBuildStrategy)
