"""Tests that backends release per-node storage promptly.

The PS GradHist parameter would occupy ``(2**d - 1) * 2KM`` floats per
tree if rows were never freed (Section 4.3's layout); the backends must
clear each node's storage as soon as its split is decided.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig
from repro.cluster import SimClock
from repro.distributed import make_backend
from repro.sketch import propose_candidates
from tests.distributed import find_splits


@pytest.fixture(scope="module")
def setup(tiny_dataset):
    candidates = propose_candidates(tiny_dataset.X, max_bins=8)
    cluster = ClusterConfig(n_workers=3, n_servers=3)
    config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
    return candidates, cluster, config


def make_flats(candidates, w=3, seed=0):
    rng = np.random.default_rng(seed)
    flats = []
    for _ in range(w):
        grad = rng.normal(size=(candidates.n_features, candidates.max_bins))
        hess = rng.random((candidates.n_features, candidates.max_bins))
        grad[:, -1] += grad[0].sum() - grad.sum(axis=1)
        hess[:, -1] += hess[0].sum() - hess.sum(axis=1)
        flats.append(np.stack([grad, hess], axis=1).ravel())
    return flats


class TestPSBackendsFreeRows:
    @pytest.mark.parametrize("system", ["tencentboost", "dimboost"])
    def test_rows_cleared_after_find_splits(self, setup, system):
        candidates, cluster, config = setup
        exact = config.with_overrides(compression_bits=0)
        backend = make_backend(system, cluster, exact, candidates)
        backend.begin_tree(0)
        clock = SimClock()
        for node in (0, 1, 2):
            backend.aggregate_node(node, make_flats(candidates, seed=node), clock)
        assert backend.group.memory_bytes() > 0
        find_splits(backend, [0, 1, 2], clock)
        assert backend.group.memory_bytes() == 0

    def test_dimboost_compressed_rows_cleared(self, setup):
        candidates, cluster, config = setup
        backend = make_backend(
            "dimboost", cluster, config.with_overrides(compression_bits=8), candidates
        )
        backend.begin_tree(0)
        clock = SimClock()
        flats = make_flats(candidates)
        k = candidates.max_bins
        sums = [(float(f[:k].sum()), float(f[k : 2 * k].sum())) for f in flats]
        backend.aggregate_node(0, flats, clock, sums)
        find_splits(backend, [0], clock)
        assert backend.group.memory_bytes() == 0


class TestCollectiveBackendsFreeBuffers:
    @pytest.mark.parametrize("system", ["mllib", "xgboost"])
    def test_merged_dict_emptied(self, setup, system):
        candidates, cluster, config = setup
        backend = make_backend(system, cluster, config, candidates)
        backend.begin_tree(0)
        clock = SimClock()
        for node in (0, 1):
            backend.aggregate_node(node, make_flats(candidates, seed=node), clock)
        assert len(backend._merged) == 2
        find_splits(backend, [0, 1], clock)
        assert len(backend._merged) == 0

    def test_lightgbm_owned_emptied(self, setup):
        candidates, cluster, config = setup
        backend = make_backend("lightgbm", cluster, config, candidates)
        backend.begin_tree(0)
        clock = SimClock()
        backend.aggregate_node(0, make_flats(candidates), clock)
        assert len(backend._owned) == 1
        find_splits(backend, [0], clock)
        assert len(backend._owned) == 0
