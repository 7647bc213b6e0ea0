"""Tests for the DimBoost compression path: the zero-bucket fold and accuracy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, DistributedGBDT, TrainConfig
from repro.cluster import SimClock
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.datasets.partition import BlockPartitioner, GridSpec
from repro.distributed import make_backend
from repro.distributed.backends import _PSBackend
from repro.distributed.engine import _node_sums
from repro.errors import PSError, TrainingError
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


def lossy_group(candidates):
    """A lossy DimBoost backend's server group (4 servers) and layout."""
    cluster = ClusterConfig(n_workers=4, n_servers=4)
    config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
    backend = make_backend(
        "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
    )
    return backend.group, backend.layout


def fold(flat, layout, sum_g, sum_h):
    """``flat`` with ``sum_g`` / ``sum_h`` added to every zero bucket
    (negated sums take the builder's fold off)."""
    out = flat.copy()
    g_slots = np.arange(layout.n_features) * layout.feature_width + layout.zero_bins
    out[g_slots] += sum_g
    out[g_slots + layout.n_bins] += sum_h
    return out


class TestFoldDeferral:
    """The Algorithm 2 fold rides the lossy encode: removed from the
    zero buckets before the codec, restored from the header sums on
    decode, so the servers hold the folded histogram."""

    def test_unfold_refold_is_identity(self, setup):
        """Unfold on workers + refold on decode stores the folded sum: up
        to the codec's error on the residuals alone, since the O(N)
        zero-bucket mass never meets the codec."""
        candidates, flats, sums = setup
        group, layout = lossy_group(candidates)
        for worker, (flat, node_sums) in enumerate(zip(flats, sums)):
            rng = np.random.default_rng(worker)
            group.push_row("grad_hist", 0, flat, 16, rng, sums=node_sums)
        stored, _ = group.pull_row("grad_hist", 0)
        residual = max(
            np.abs(fold(flat, layout, -sum_g, -sum_h)).max()
            for flat, (sum_g, sum_h) in zip(flats, sums)
        )
        atol = len(flats) * residual * (1 / 32767 + 2.0**-20)
        np.testing.assert_allclose(stored, np.sum(flats, axis=0), rtol=0, atol=atol)

    def test_fold_on_subrange(self, setup):
        """Every partition's piece carries the fold of its own features:
        a node no feature of which has a nonzero encodes nothing but its
        header and decodes, piece by piece, to its exact closed form."""
        candidates, _flats, sums = setup
        group, layout = lossy_group(candidates)
        closed_form = fold(np.zeros(layout.row_length), layout, *sums[0])
        pieces = group.encode_row(
            "grad_hist", closed_form, 8, np.random.default_rng(0), sums=sums[0]
        )
        assert len(pieces) == 4
        for part, values, piece_bytes in pieces:
            assert values.tobytes() == closed_form[part.lo : part.hi].tobytes()
            n_features = part.length // layout.feature_width
            assert piece_bytes == -(-n_features // 8) + 8

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
        pushed = []
        push = backend.group.push_row

        def record(*args, **kwargs):
            stats = push(*args, **kwargs)
            pushed.append(stats.bytes_up)
            return stats

        monkeypatch.setattr(backend.group, "push_row", record)
        backend.aggregate_node(0, [f.copy() for f in flats], clock, sums)
        assert len(pushed) == len(flats)
        # ~1 byte per value + per-feature scales + the 8-byte sums: far
        # below the 4-bytes-per-value uncompressed push.
        assert all(b < backend.flat_len * 4 / 2 for b in pushed)

    def test_lossy_push_needs_every_workers_sums(self, setup):
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        for partial in (None, sums[:3]):
            with pytest.raises((PSError, TrainingError), match="node sums"):
                backend.aggregate_node(
                    0, [f.copy() for f in flats], SimClock(), partial
                )
        assert backend.group.memory_bytes() == 0

    def test_node_sums_reset_per_tree(self, setup):
        """A lossy push keeps no state across trees: after tree 0, tree 1
        stores what a fresh backend stores there."""
        candidates, flats, sums = setup
        cluster = ClusterConfig(n_workers=4, n_servers=4)
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        lossy = config.with_overrides(compression_bits=8)
        used = make_backend("dimboost", cluster, lossy, candidates)
        used.begin_tree(0)
        used.aggregate_node(0, [f.copy() for f in flats], SimClock(), sums)
        find_splits(used, [0], SimClock())
        fresh = make_backend("dimboost", cluster, lossy, candidates)
        for backend in (used, fresh):
            backend.begin_tree(1)
            backend.aggregate_node(0, [f.copy() for f in flats], SimClock(), sums)
        used_row, _ = used.group.pull_row("grad_hist", 0)
        fresh_row, _ = fresh.group.pull_row("grad_hist", 0)
        assert used_row.tobytes() == fresh_row.tobytes()


class TestExactZeroBucketSums:
    """The engine hands the lossy push the builder's own node sums, so
    a feature without a nonzero among a worker's node rows unfolds to
    exact zeros — not the ~1e-16 residue of a sum re-derived from the
    histogram — which the push leaves off the wire and decodes back to
    the lossless bits."""

    @pytest.fixture(scope="class")
    def wide(self):
        spec = SyntheticSpec(
            n_instances=400, n_features=1500, avg_nnz=6, n_informative=20, name="wide"
        )
        return make_sparse_classification(spec, seed=3)

    def test_untouched_feature_unfolds_to_exact_zero(self, wide, monkeypatch):
        root: list[tuple[np.ndarray, tuple[float, float]]] = []
        aggregate = _PSBackend.aggregate_node
        backends: list[_PSBackend] = []

        def record(backend, node, flats, clock, sums=None):
            if node == 0 and not root:
                backends.append(backend)
                root.extend((flat.copy(), s) for flat, s in zip(flats, sums))
            return aggregate(backend, node, flats, clock, sums)

        monkeypatch.setattr(_PSBackend, "aggregate_node", record)
        workers = 4
        DistributedGBDT(
            "dimboost",
            ClusterConfig(n_workers=workers, n_servers=2),
            TrainConfig(
                n_trees=1, max_depth=2, n_split_candidates=8, compression_bits=8
            ),
        ).fit(wide)
        assert len(root) == workers
        (backend,) = backends
        partitioner = BlockPartitioner(wide, GridSpec(workers, 1))
        for worker, (flat, (sum_g, sum_h)) in enumerate(root):
            X = partitioner.row_shard(worker).X
            touched = np.unique(X.indices[X.data != 0])
            untouched = np.setdiff1d(np.arange(wide.n_features), touched)
            assert len(untouched) > 100  # the fit really has untouched features
            residual = fold(flat, backend.layout, -sum_g, -sum_h)
            rows = residual.reshape(wide.n_features, -1)[untouched]
            # Both halves — the g- and the h-histogram — exactly +0.0.
            assert not rows.any()
            assert not np.signbit(rows).any()
            pieces = backend.group.encode_row(
                "grad_hist", flat, 8, np.random.default_rng(0), sums=(sum_g, sum_h)
            )
            decoded = np.concatenate([values for _part, values, _bytes in pieces])
            by_feature = decoded.reshape(wide.n_features, -1)
            lossless = flat.reshape(wide.n_features, -1)
            assert by_feature[untouched].tobytes() == lossless[untouched].tobytes()
