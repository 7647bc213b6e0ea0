"""Tests for exact greedy split finding (the Section 2.2 exact method)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import CSRMatrix
from repro.errors import TrainingError
from repro.histogram import BinnedShard, build_node_histogram_sparse
from repro.sketch import propose_candidates
from repro.tree import find_best_split

from ._reference_exact import exact_best_split, exact_split_mask


def brute_force_exact(X, rows, grad, hess, lam):
    """Literal enumeration: every feature, every midpoint threshold."""
    dense = X.to_dense().astype(np.float64)
    G = grad[rows].sum()
    H = hess[rows].sum()
    best = (None, -np.inf)
    for f in range(X.n_cols):
        values = np.unique(dense[rows, f])
        for a, b in zip(values, values[1:]):
            threshold = 0.5 * (a + b)
            left = rows[dense[rows, f] < threshold]
            gl, hl = grad[left].sum(), hess[left].sum()
            gr, hr = G - gl, H - hl
            gain = 0.5 * (
                gl**2 / (hl + lam) + gr**2 / (hr + lam) - G**2 / (H + lam)
            )
            if gain > best[1]:
                best = ((f, threshold), gain)
    return best


@pytest.fixture(scope="module")
def small_problem():
    rng = np.random.default_rng(0)
    dense = (rng.random((40, 6)) < 0.5) * rng.normal(size=(40, 6))
    X = CSRMatrix.from_dense(dense.astype(np.float32))
    grad = rng.normal(size=40)
    hess = rng.random(40) + 0.1
    return X, grad, hess


class TestExactSplit:
    def test_matches_brute_force(self, small_problem):
        X, grad, hess = small_problem
        rows = np.arange(40)
        decision = exact_best_split(X, rows, grad, hess, reg_lambda=1.0)
        (expected, expected_gain) = brute_force_exact(X, rows, grad, hess, 1.0)
        assert decision is not None
        assert decision.feature == expected[0]
        assert decision.value == pytest.approx(expected[1])
        assert decision.gain == pytest.approx(expected_gain, rel=1e-9)

    def test_matches_brute_force_on_subset(self, small_problem):
        X, grad, hess = small_problem
        rows = np.arange(0, 40, 3)
        decision = exact_best_split(X, rows, grad, hess, reg_lambda=1.0)
        (expected, expected_gain) = brute_force_exact(X, rows, grad, hess, 1.0)
        if expected_gain <= 0:
            assert decision is None
        else:
            assert decision is not None
            assert decision.gain == pytest.approx(expected_gain, rel=1e-9)

    def test_beats_or_matches_histogram_method(self, small_problem):
        """Exact enumerates a superset of the percentile cuts: its gain
        can never be lower."""
        X, grad, hess = small_problem
        rows = np.arange(40)
        exact = exact_best_split(X, rows, grad, hess, reg_lambda=1.0)
        candidates = propose_candidates(X, max_bins=4)
        shard = BinnedShard(X, candidates)
        hist = build_node_histogram_sparse(shard, rows, grad, hess)
        approx = find_best_split(hist, candidates, reg_lambda=1.0)
        assert exact is not None and approx is not None
        assert exact.gain >= approx.gain - 1e-9

    def test_tiny_node_returns_none(self, small_problem):
        X, grad, hess = small_problem
        assert exact_best_split(X, np.array([3]), grad, hess, 1.0) is None

    def test_constant_feature_no_split(self):
        X = CSRMatrix.from_rows([[(0, 2.0)] for _ in range(10)], n_cols=1)
        grad = np.linspace(-1, 1, 10)
        hess = np.ones(10)
        assert exact_best_split(X, np.arange(10), grad, hess, 1.0) is None

    def test_zeros_are_real_values(self):
        """A feature present in half the rows can split zeros from
        nonzeros — the implicit zeros participate."""
        rows_data = [[(0, 1.0)] if i < 10 else [] for i in range(20)]
        X = CSRMatrix.from_rows(rows_data, n_cols=1)
        grad = np.array([1.0] * 10 + [-1.0] * 10)
        hess = np.ones(20)
        decision = exact_best_split(X, np.arange(20), grad, hess, 1.0)
        assert decision is not None
        assert 0.0 < decision.value < 1.0
        assert decision.left_grad == pytest.approx(-10.0)

    def test_precomputed_csc(self, small_problem):
        X, grad, hess = small_problem
        rows = np.arange(40)
        direct = exact_best_split(X, rows, grad, hess, 1.0)
        cached = exact_best_split(X, rows, grad, hess, 1.0, csc=X.to_csc())
        assert direct.feature == cached.feature
        assert direct.gain == pytest.approx(cached.gain)

    def test_feature_mask(self, small_problem):
        X, grad, hess = small_problem
        rows = np.arange(40)
        mask = np.zeros(X.n_cols, dtype=bool)
        mask[2] = True
        decision = exact_best_split(
            X, rows, grad, hess, 1.0, feature_valid=mask
        )
        if decision is not None:
            assert decision.feature == 2


class TestExactSplitMask:
    def test_matches_dense_comparison(self, small_problem):
        X, _grad, _hess = small_problem
        dense = X.to_dense()
        rows = np.arange(0, 40, 2)
        mask = exact_split_mask(X, rows, feature=1, value=0.1)
        np.testing.assert_array_equal(mask, dense[rows, 1] < 0.1)

    def test_feature_bounds(self, small_problem):
        X, *_ = small_problem
        with pytest.raises(TrainingError):
            exact_split_mask(X, np.array([0]), feature=99, value=0.0)
