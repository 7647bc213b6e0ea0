"""Tests for the DimBoost compression path: fold deferral and accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, DistributedGBDT, TrainConfig
from repro.cluster import SimClock
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.datasets.partition import BlockPartitioner, GridSpec
from repro.distributed import make_backend
from repro.distributed.backends import WindowedPusher
from repro.distributed.engine import _node_sums
from repro.errors import TrainingError
from repro.histogram import BinnedShard, build_node_histogram_sparse
from repro.sketch import propose_candidates
from tests.distributed import find_splits


@pytest.fixture(scope="module")
def setup(small_dataset):
    candidates = propose_candidates(small_dataset.X, max_bins=8)
    shard = BinnedShard(small_dataset.X, candidates)
    rng = np.random.default_rng(0)
    grad = rng.normal(size=shard.n_rows)
    hess = rng.random(shard.n_rows) + 0.1
    flats, sums = [], []
    quarter = shard.n_rows // 4
    for k in range(4):
        rows = np.arange(k * quarter, (k + 1) * quarter)
        hist = build_node_histogram_sparse(shard, rows, grad, hess)
        flats.append(hist.to_flat_feature_major())
        sums.append(_node_sums(rows, grad, hess))
    return candidates, flats, sums


def unfolded(backend, flat, sums):
    """``flat`` with the zero-bucket fold removed (the backend unfolds
    the flat it is handed in place, so work on a copy)."""
    out = flat.copy()
    backend._unfold_zero_buckets(out, *sums)
    return out


class TestFoldDeferral:
    def test_unfold_refold_is_identity(self, setup, small_dataset):
        """unfold on workers + refold from totals reproduces the folded sum."""
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        total_sums = [0.0, 0.0]
        unfolded_sum = np.zeros_like(flats[0])
        for flat, (sum_g, sum_h) in zip(flats, sums):
            unfolded_sum += unfolded(backend, flat, (sum_g, sum_h))
            total_sums[0] += sum_g
            total_sums[1] += sum_h
        refolded = backend._fold_zero_buckets(
            unfolded_sum, 0, backend.flat_len, total_sums[0], total_sums[1]
        )
        np.testing.assert_allclose(refolded, np.sum(flats, axis=0), atol=1e-8)

    def test_fold_on_subrange(self, setup):
        """Folding a feature subrange touches only that range's zero slots."""
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        block = 2 * candidates.max_bins
        lo, hi = 3 * block, 9 * block
        flat = flats[0]
        sum_g, sum_h = sums[0]
        refolded = backend._fold_zero_buckets(
            unfolded(backend, flat, sums[0])[lo:hi], lo, hi, sum_g, sum_h
        )
        np.testing.assert_allclose(refolded, flat[lo:hi], atol=1e-8)

    def test_compressed_decisions_close_to_exact(self, setup):
        """8-bit compression preserves the chosen split on real histograms."""
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        exact_backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=0), candidates
        )
        exact_backend.begin_tree(0)
        clock = SimClock()
        exact_backend.aggregate_node(0, [f.copy() for f in flats], clock, sums)
        exact = find_splits(exact_backend, [0], clock)[0]

        lossy_backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        lossy_backend.begin_tree(0)
        lossy_backend.aggregate_node(0, [f.copy() for f in flats], clock, sums)
        lossy = find_splits(lossy_backend, [0], clock)[0]
        assert exact is not None and lossy is not None
        assert lossy.feature == exact.feature
        assert lossy.gain == pytest.approx(exact.gain, rel=0.1)

    def test_compression_bytes_include_sums(self, setup, monkeypatch):
        candidates, flats, sums = setup
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
        backend.aggregate_node(0, [f.copy() for f in flats], clock, sums)
        (pushed,) = returned
        # ~1 byte per value + per-feature scales + the 8-byte sums: far
        # below the 4-bytes-per-value uncompressed push.
        assert all(b < backend.flat_bytes / 2 for b in pushed)

    def test_lossy_push_needs_every_workers_sums(self, setup):
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        for partial in (None, sums[:3]):
            with pytest.raises(TrainingError, match="exact node sums"):
                backend.aggregate_node(
                    0, [f.copy() for f in flats], SimClock(), partial
                )
        assert backend._node_sums == {}

    def test_node_sums_reset_per_tree(self, setup):
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        clock = SimClock()
        backend.aggregate_node(0, [f.copy() for f in flats], clock, sums)
        assert 0 in backend._node_sums
        backend.begin_tree(1)
        assert backend._node_sums == {}


class TestExactZeroBucketSums:
    """The engine hands the lossy backend the builder's own node sums, so
    a feature without a nonzero among a worker's node rows unfolds to
    exact zeros — not the ~1e-16 residue of a sum re-derived from the
    histogram — and the push leaves it off the wire."""

    @pytest.fixture(scope="class")
    def wide(self):
        spec = SyntheticSpec(
            n_instances=400, n_features=1500, avg_nnz=6, n_informative=20, name="wide"
        )
        return make_sparse_classification(spec, seed=3)

    def test_untouched_feature_unfolds_to_exact_zero(self, wide, monkeypatch):
        root_flats: list[np.ndarray] = []
        push = WindowedPusher.push_flats

        def record(pusher, node, flats, clock):
            if node == 0 and not root_flats:
                root_flats.extend(flat.copy() for flat in flats)
            return push(pusher, node, flats, clock)

        monkeypatch.setattr(WindowedPusher, "push_flats", record)
        workers = 4
        DistributedGBDT(
            "dimboost",
            ClusterConfig(n_workers=workers, n_servers=2),
            TrainConfig(
                n_trees=1, max_depth=2, n_split_candidates=8, compression_bits=8
            ),
        ).fit(wide)
        assert len(root_flats) == workers
        partitioner = BlockPartitioner(wide, GridSpec(workers, 1))
        for worker, flat in enumerate(root_flats):
            X = partitioner.row_shard(worker).X
            touched = np.unique(X.indices[X.data != 0])
            untouched = np.setdiff1d(np.arange(wide.n_features), touched)
            assert len(untouched) > 100  # the fit really has untouched features
            rows = flat.reshape(wide.n_features, -1)[untouched]
            # Both halves — the g- and the h-histogram — exactly +0.0.
            assert not rows.any()
            assert not np.signbit(rows).any()
