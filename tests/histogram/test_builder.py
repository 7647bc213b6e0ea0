"""Tests for the dense and sparsity-aware histogram builders."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import CSRMatrix
from repro.errors import DataError
from repro.histogram import (
    BinnedShard,
    build_node_histogram_dense,
    build_node_histogram_sparse,
)
from repro.sketch import propose_candidates

from .. import _reference_rowpath as ref


def brute_force_histogram(X, candidates, rows, grad, hess):
    """Reference: the literal Algorithm 1 lines 4-8 over dense data."""
    m, k = X.n_cols, candidates.max_bins
    hg = np.zeros((m, k))
    hh = np.zeros((m, k))
    dense = X.to_dense()
    for r in rows:
        for f in range(m):
            b = candidates.bin_of(f, float(dense[r, f]))
            hg[f, b] += grad[r]
            hh[f, b] += hess[r]
    return hg, hh


class TestCorrectness:
    def test_sparse_matches_brute_force(self):
        rng = np.random.default_rng(0)
        dense = (rng.random((30, 12)) < 0.3) * rng.normal(size=(30, 12))
        X = CSRMatrix.from_dense(dense.astype(np.float32))
        cand = propose_candidates(X, max_bins=5)
        shard = BinnedShard(X, cand)
        g, h = rng.normal(size=30), rng.random(30)
        rows = np.arange(30)
        hist = build_node_histogram_sparse(shard, rows, g, h)
        hg, hh = brute_force_histogram(X, cand, rows, g, h)
        np.testing.assert_allclose(hist.grad, hg, atol=1e-9)
        np.testing.assert_allclose(hist.hess, hh, atol=1e-9)

    def test_dense_matches_brute_force(self):
        rng = np.random.default_rng(1)
        dense = (rng.random((25, 9)) < 0.4) * rng.normal(size=(25, 9))
        X = CSRMatrix.from_dense(dense.astype(np.float32))
        cand = propose_candidates(X, max_bins=4)
        shard = BinnedShard(X, cand)
        g, h = rng.normal(size=25), rng.random(25)
        rows = np.array([0, 3, 7, 11, 24])
        hist = build_node_histogram_dense(shard, rows, g, h)
        hg, hh = brute_force_histogram(X, cand, rows, g, h)
        np.testing.assert_allclose(hist.grad, hg, atol=1e-9)
        np.testing.assert_allclose(hist.hess, hh, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 8))
    def test_sparse_equals_dense(self, seed, max_bins):
        """Algorithm 2 produces exactly the traditional result."""
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(5, 40)), int(rng.integers(2, 15))
        dense = (rng.random((n, m)) < 0.35) * rng.normal(size=(n, m))
        X = CSRMatrix.from_dense(dense.astype(np.float32))
        cand = propose_candidates(X, max_bins=max_bins)
        shard = BinnedShard(X, cand)
        g, h = rng.normal(size=n), rng.random(n)
        size = int(rng.integers(1, n + 1))
        rows = np.sort(rng.choice(n, size=size, replace=False))
        sparse = build_node_histogram_sparse(shard, rows, g, h)
        dense_hist = build_node_histogram_dense(shard, rows, g, h, chunk_rows=7)
        assert sparse.allclose(dense_hist, atol=1e-9)

    def test_subset_rows(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        rows = np.arange(0, tiny_shard.n_rows, 3)
        hist = build_node_histogram_sparse(tiny_shard, rows, g, h)
        tg, th = hist.totals()
        assert tg == pytest.approx(g[rows].sum(), rel=1e-9)
        assert th == pytest.approx(h[rows].sum(), rel=1e-9)

    def test_empty_node(self, tiny_shard, rng):
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        hist = build_node_histogram_sparse(
            tiny_shard, np.array([], dtype=np.int64), g, h
        )
        assert hist.grad.sum() == 0.0
        assert hist.hess.sum() == 0.0

    def test_additive_over_partition(self, tiny_shard, rng):
        """hist(A) + hist(B) == hist(A + B) for disjoint row sets."""
        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        all_rows = np.arange(tiny_shard.n_rows)
        a, b = all_rows[::2], all_rows[1::2]
        whole = build_node_histogram_sparse(tiny_shard, all_rows, g, h)
        parts = build_node_histogram_sparse(tiny_shard, a, g, h).add_(
            build_node_histogram_sparse(tiny_shard, b, g, h)
        )
        assert whole.allclose(parts, atol=1e-9)

    def test_zero_bucket_receives_absent_mass(self):
        """An instance absent from a feature lands in its zero bucket."""
        X = CSRMatrix.from_rows([[(0, 5.0)], []], n_cols=2)
        cand = propose_candidates(X, max_bins=4)
        shard = BinnedShard(X, cand)
        g, h = np.array([1.0, 10.0]), np.array([1.0, 1.0])
        hist = build_node_histogram_sparse(shard, np.array([0, 1]), g, h)
        zero_bin_f0 = cand.zero_bins[0]
        # Instance 1 has no feature 0: its gradient sits in the zero bucket.
        assert hist.grad[0, zero_bin_f0] == pytest.approx(10.0)

    def test_gradient_length_check(self, tiny_shard):
        with pytest.raises(DataError):
            build_node_histogram_sparse(
                tiny_shard, np.array([0]), np.zeros(3), np.zeros(3)
            )


def random_shard(rng, n_bins):
    """A small shard with rows and features that hold no nonzero."""
    n_rows, n_cols = int(rng.integers(1, 40)), int(rng.integers(1, 12))
    dense = rng.choice([-2.0, -0.5, 0.5, 1.0, 3.0], size=(n_rows, n_cols))
    dense[rng.random((n_rows, n_cols)) < 0.6] = 0.0
    dense[:, rng.integers(n_cols)] = 0.0  # a feature no row touches
    dense[rng.integers(n_rows)] = 0.0  # a row with no nonzeros
    X = CSRMatrix.from_dense(dense)
    return BinnedShard(X, propose_candidates(X, max_bins=n_bins))


def assert_same_bits(new, old):
    for a, b in ((new.grad, old.grad), (new.hess, old.hess)):
        assert a.shape == b.shape and a.dtype == b.dtype == np.float64
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestMatchesFrozenKernel:
    """The repeat-based kernel against the gather-based one it replaced:
    the same float additions in the same order, so the same bits."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 20]),
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from(["empty", "single", "all", "tail", "subset", "unsorted"]),
    )
    def test_bit_for_bit(self, seed, n_bins, dtype, kind):
        rng = np.random.default_rng(seed)
        shard = random_shard(rng, n_bins)
        n_rows = shard.n_rows
        if kind == "empty":
            rows = np.empty(0, dtype=np.int64)
        elif kind == "single":
            rows = rng.integers(n_rows, size=1)
        elif kind == "all":
            rows = np.arange(n_rows, dtype=np.int64)
        elif kind == "tail":
            rows = np.arange(n_rows // 2, n_rows, dtype=np.int64)
        elif kind == "subset":
            rows = np.flatnonzero(rng.random(n_rows) < 0.4)
        else:  # no trainer passes it; the kernel never promised an order
            rows = rng.integers(n_rows, size=n_rows)
        grad = (rng.normal(size=n_rows) * 10.0 ** rng.integers(-8, 8)).astype(dtype)
        hess = rng.random(n_rows).astype(dtype)
        assert_same_bits(
            build_node_histogram_sparse(shard, rows, grad, hess),
            ref.build_node_histogram_sparse(shard, rows, grad, hess),
        )

    def test_rows_without_nonzeros_only(self):
        """A non-empty node with no nonzero takes the empty branch."""
        X = CSRMatrix.from_rows([[(0, 5.0)], [], []], n_cols=3)
        shard = BinnedShard(X, propose_candidates(X, max_bins=4))
        grad, hess = np.array([1.0, -0.25, 3.0]), np.array([1.0, 0.5, 0.125])
        rows = np.array([1, 2])
        new = build_node_histogram_sparse(shard, rows, grad, hess)
        assert_same_bits(new, ref.build_node_histogram_sparse(shard, rows, grad, hess))
        assert new.grad[np.arange(3), shard.zero_bins].tolist() == [2.75] * 3

    def test_on_a_real_shard(self, small_shard, rng):
        grad = rng.normal(size=small_shard.n_rows)
        hess = rng.random(small_shard.n_rows)
        for rows in (
            np.arange(small_shard.n_rows),
            np.flatnonzero(rng.random(small_shard.n_rows) < 0.3),
        ):
            assert_same_bits(
                build_node_histogram_sparse(small_shard, rows, grad, hess),
                ref.build_node_histogram_sparse(small_shard, rows, grad, hess),
            )


class TestRowIdsOutOfRange:
    """Row ids are checked where both kernels look their ranges up."""

    @pytest.mark.parametrize(
        "build", [build_node_histogram_sparse, build_node_histogram_dense]
    )
    @pytest.mark.parametrize("bad", [-1, "n_rows"])
    def test_rejected_by_name(self, tiny_shard, build, bad):
        bad = tiny_shard.n_rows if bad == "n_rows" else bad
        g, h = np.ones(tiny_shard.n_rows), np.ones(tiny_shard.n_rows)
        with pytest.raises(DataError, match=rf"row id {bad} outside \[0, "):
            build(tiny_shard, np.array([0, bad, 2]), g, h)

    def test_last_row_is_in_range(self, tiny_shard):
        g, h = np.ones(tiny_shard.n_rows), np.ones(tiny_shard.n_rows)
        rows = np.array([tiny_shard.n_rows - 1])
        hist = build_node_histogram_sparse(tiny_shard, rows, g, h)
        assert hist.totals() == (1.0, 1.0)


class TestComplexity:
    def test_sparse_faster_than_dense_at_scale(self, small_shard, rng):
        """The O(zN + M) vs O(MN) gap must show up in wall-clock."""
        import time

        g = rng.normal(size=small_shard.n_rows)
        h = rng.random(small_shard.n_rows)
        rows = np.arange(small_shard.n_rows)
        t0 = time.perf_counter()
        build_node_histogram_sparse(small_shard, rows, g, h)
        sparse_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        build_node_histogram_dense(small_shard, rows, g, h)
        dense_t = time.perf_counter() - t0
        assert dense_t > sparse_t
