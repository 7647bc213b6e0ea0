"""Tests for parallel batch histogram construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.histogram import build_histogram_batched, build_node_histogram_sparse
from repro.histogram.parallel import simulate_span


class TestBatchedBuild:
    def test_matches_single_pass(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows)
        direct = build_node_histogram_sparse(tiny_shard, rows, g, h)
        result = build_histogram_batched(
            tiny_shard, rows, g, h, batch_size=37, n_threads=4
        )
        assert result.histogram.allclose(direct, atol=1e-9)
        assert result.n_batches == -(-len(rows) // 37)

    def test_single_batch_when_small(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        rows = np.arange(10)
        result = build_histogram_batched(
            tiny_shard, rows, g, h, batch_size=10_000, n_threads=4
        )
        assert result.n_batches == 1

    def test_empty_rows(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        result = build_histogram_batched(
            tiny_shard, np.array([], dtype=np.int64), g, h, batch_size=10
        )
        assert result.histogram.grad.sum() == 0.0

    def test_span_at_most_wall(self, tiny_shard, rng):
        """With q threads the simulated span can't exceed the serial sum."""
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows)
        result = build_histogram_batched(
            tiny_shard, rows, g, h, batch_size=20, n_threads=8
        )
        assert result.span_seconds <= sum(result.batch_seconds) + 1e-9
        assert result.span_seconds >= max(result.batch_seconds) - 1e-9

    def test_invalid_batch_size(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        with pytest.raises(TrainingError):
            build_histogram_batched(tiny_shard, np.arange(5), g, h, batch_size=0)


class TestSimulateSpan:
    def test_single_thread_is_sum(self):
        assert simulate_span([1.0, 2.0, 3.0], 1) == pytest.approx(6.0)

    def test_enough_threads_is_max(self):
        assert simulate_span([1.0, 2.0, 3.0], 3) == pytest.approx(3.0)

    def test_greedy_schedule(self):
        # Two threads, arrival order: t0 gets 4, t1 gets 1 then 1 then 1.
        assert simulate_span([4.0, 1.0, 1.0, 1.0], 2) == pytest.approx(4.0)

    def test_parallel_speedup_monotone(self):
        jobs = [0.5] * 16
        spans = [simulate_span(jobs, q) for q in (1, 2, 4, 8)]
        assert spans == sorted(spans, reverse=True)

    def test_empty_jobs(self):
        assert simulate_span([], 4) == 0.0

    def test_invalid_threads(self):
        with pytest.raises(TrainingError):
            simulate_span([1.0], 0)

