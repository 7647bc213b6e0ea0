"""Serving metrics: pure aggregation, JSON-safe snapshots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.serving import LatencyStat, ServingMetrics


class TestLatencyStat:
    def test_empty(self):
        stat = LatencyStat()
        assert stat.count == 0
        assert stat.percentile(50.0) == 0.0
        snap = stat.snapshot()
        assert snap["count"] == 0 and snap["mean_ms"] == 0.0

    def test_aggregates(self):
        stat = LatencyStat()
        for seconds in (0.010, 0.020, 0.030):
            stat.observe(seconds)
        assert stat.count == 3
        assert stat.max == pytest.approx(0.030)
        snap = stat.snapshot()
        assert snap["mean_ms"] == pytest.approx(20.0)
        assert snap["p50_ms"] == pytest.approx(20.0)
        assert snap["max_ms"] == pytest.approx(30.0)

    def test_window_bounds_samples_not_totals(self):
        stat = LatencyStat(window=4)
        for i in range(10):
            stat.observe(float(i))
        assert stat.count == 10  # exact over the lifetime
        assert stat.total == pytest.approx(sum(range(10)))
        # Percentiles see only the window (6, 7, 8, 9).
        assert stat.percentile(0.0) == pytest.approx(6.0)

    def test_observe_many_equals_repeated_observe(self):
        """Bit for bit: count, total (a left fold, which a compensated
        sum would not reproduce), max, and the window's contents."""
        rng = np.random.default_rng(5)
        batches = [rng.exponential(1e-3, size=n).tolist() for n in (7, 0, 250, 1, 40)]
        batches.append([1e16, 1.0, -1e16, 3.0])  # order-sensitive total
        one, many = LatencyStat(window=64), LatencyStat(window=64)
        for batch in batches:
            for seconds in batch:
                one.observe(seconds)
            many.observe_many(batch)
            assert (many.count, many.total, many.max) == (
                one.count, one.total, one.max,
            )
            assert list(many._samples) == list(one._samples)
        assert many.snapshot() == one.snapshot()


class TestServingMetrics:
    def test_queue_depth_stats(self):
        metrics = ServingMetrics()
        assert metrics.queue_depth_mean == 0.0
        for depth in (1, 3, 5):
            metrics.observe_queue_depth(depth)
        assert metrics.queue_depth_max == 5
        assert metrics.queue_depth_mean == pytest.approx(3.0)

    def test_rejected_totals_causes(self):
        metrics = ServingMetrics()
        metrics.rejected_queue_full += 2
        metrics.rejected_deadline += 1
        metrics.rejected_shutdown += 1
        assert metrics.rejected == 4

    def test_snapshot_is_json_safe_and_sorted(self):
        metrics = ServingMetrics()
        metrics.observe_batch(16)
        metrics.observe_batch(1)
        metrics.observe_batch(16)
        metrics.queue_wait.observe(0.002)
        snap = metrics.snapshot()
        text = json.dumps(snap)  # must not raise
        assert '"batch_sizes": {"1": 1, "16": 2}' in text
        assert snap["latency"]["queue_wait"]["count"] == 1
