"""Tests for the DimBoost compression path: fold deferral and accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig
from repro.cluster import SimClock
from repro.distributed import make_backend
from repro.histogram import BinnedShard, build_node_histogram_sparse
from repro.sketch import propose_candidates


@pytest.fixture(scope="module")
def setup(small_dataset):
    candidates = propose_candidates(small_dataset.X, max_bins=8)
    shard = BinnedShard(small_dataset.X, candidates)
    rng = np.random.default_rng(0)
    grad = rng.normal(size=shard.n_rows)
    hess = rng.random(shard.n_rows) + 0.1
    flats = []
    quarter = shard.n_rows // 4
    for k in range(4):
        rows = np.arange(k * quarter, (k + 1) * quarter)
        hist = build_node_histogram_sparse(shard, rows, grad, hess)
        flats.append(hist.to_flat_feature_major())
    return candidates, flats


class TestFoldDeferral:
    def test_unfold_refold_is_identity(self, setup, small_dataset):
        """unfold on workers + refold from totals reproduces the folded sum."""
        candidates, flats = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        total_sums = [0.0, 0.0]
        unfolded_sum = np.zeros_like(flats[0])
        for flat in flats:
            unfolded, sum_g, sum_h = backend._unfold_zero_buckets(flat)
            unfolded_sum += unfolded
            total_sums[0] += sum_g
            total_sums[1] += sum_h
        refolded = backend._fold_zero_buckets(
            unfolded_sum, 0, backend.flat_len, total_sums[0], total_sums[1]
        )
        np.testing.assert_allclose(refolded, np.sum(flats, axis=0), atol=1e-8)

    def test_fold_on_subrange(self, setup):
        """Folding a feature subrange touches only that range's zero slots."""
        candidates, flats = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        block = 2 * candidates.max_bins
        lo, hi = 3 * block, 9 * block
        flat = flats[0]
        unfolded, sum_g, sum_h = backend._unfold_zero_buckets(flat)
        refolded = backend._fold_zero_buckets(
            unfolded[lo:hi], lo, hi, sum_g, sum_h
        )
        np.testing.assert_allclose(refolded, flat[lo:hi], atol=1e-8)

    def test_compressed_decisions_close_to_exact(self, setup):
        """8-bit compression preserves the chosen split on real histograms."""
        candidates, flats = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        exact_backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        exact_backend.begin_tree(0)
        clock = SimClock()
        exact_backend.aggregate_node(0, [f.copy() for f in flats], clock)
        exact = exact_backend.find_splits([0], None, clock)[0]

        lossy_backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        lossy_backend.begin_tree(0)
        lossy_backend.aggregate_node(0, [f.copy() for f in flats], clock)
        lossy = lossy_backend.find_splits([0], None, clock)[0]
        assert exact is not None and lossy is not None
        assert lossy.feature == exact.feature
        assert lossy.gain == pytest.approx(exact.gain, rel=0.1)

    def test_compression_bytes_include_sums(self, setup, monkeypatch):
        candidates, flats = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        clock = SimClock()
        returned = []
        push = backend.pusher.push_flats
        monkeypatch.setattr(
            backend.pusher,
            "push_flats",
            lambda *args: returned.append(push(*args)) or returned[-1],
        )
        backend.aggregate_node(0, [f.copy() for f in flats], clock)
        (pushed,) = returned
        # ~1 byte per value + per-feature scales + the 8-byte sums: far
        # below the 4-bytes-per-value uncompressed push.
        assert all(b < backend.flat_bytes / 2 for b in pushed)

    def test_node_sums_reset_per_tree(self, setup):
        candidates, flats = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        clock = SimClock()
        backend.aggregate_node(0, [f.copy() for f in flats], clock)
        assert 0 in backend._node_sums
        backend.begin_tree(1)
        assert backend._node_sums == {}
