"""Tests for split finding over gradient histograms."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TrainingError
from repro.histogram import GradientHistogram
from repro.sketch import CandidateSet
from repro.tree import (
    best_split_in_range,
    find_best_split,
    leaf_weight,
)
from repro.tree.split import combine_shard_decisions

from .. import _reference_rowpath as ref


def make_candidates(cuts_per_feature: list[list[float]], max_bins: int) -> CandidateSet:
    offsets = np.zeros(len(cuts_per_feature) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cuts_per_feature], out=offsets[1:])
    flat = np.concatenate(
        [np.asarray(c, dtype=np.float64) for c in cuts_per_feature]
        or [np.array([])]
    )
    return CandidateSet(offsets, flat, max_bins)


def brute_force_best(hist, candidates, lam):
    """Literal Algorithm 1 lines 10-17 (plus the hessian-floor guard the
    implementation applies: both children need non-negative hessians)."""
    G, H = hist.totals()
    best = (None, -np.inf)
    for f in range(hist.n_features):
        gl = hl = 0.0
        for j in range(candidates.n_cuts(f)):
            gl += hist.grad[f, j]
            hl += hist.hess[f, j]
            gr, hr = G - gl, H - hl
            if hl < 0.0 or hr < 0.0:
                continue
            gain = 0.5 * (
                gl**2 / (hl + lam) + gr**2 / (hr + lam) - G**2 / (H + lam)
            )
            if gain > best[1]:
                best = ((f, j), gain)
    return best


class TestHandComputed:
    def test_obvious_split(self):
        """One feature, perfectly separating cut."""
        candidates = make_candidates([[0.5]], max_bins=2)
        # bucket 0: grad +10 (bad), bucket 1: grad -10.
        hist = GradientHistogram(
            np.array([[10.0, -10.0]]), np.array([[5.0, 5.0]])
        )
        decision = find_best_split(hist, candidates, reg_lambda=1.0)
        assert decision is not None
        assert decision.feature == 0
        assert decision.bucket == 0
        assert decision.value == 0.5
        # gain = 0.5 * (100/6 + 100/6 - 0/11)
        assert decision.gain == pytest.approx(0.5 * (100 / 6 + 100 / 6))
        assert decision.left_grad == pytest.approx(10.0)
        assert decision.right_grad == pytest.approx(-10.0)

    def test_no_split_when_uniform(self):
        """Uniform gradients yield zero gain -> None."""
        candidates = make_candidates([[0.5, 1.5]], max_bins=4)
        hist = GradientHistogram(
            np.array([[1.0, 1.0, 1.0, 0.0]]), np.array([[1.0, 1.0, 1.0, 0.0]])
        )
        assert find_best_split(hist, candidates, reg_lambda=1.0) is None

    def test_min_child_weight_blocks(self):
        candidates = make_candidates([[0.5]], max_bins=2)
        hist = GradientHistogram(
            np.array([[10.0, -10.0]]), np.array([[0.5, 5.0]])
        )
        decision = find_best_split(
            hist, candidates, reg_lambda=1.0, min_child_weight=1.0
        )
        assert decision is None

    def test_gamma_reduces_gain(self):
        candidates = make_candidates([[0.5]], max_bins=2)
        hist = GradientHistogram(
            np.array([[10.0, -10.0]]), np.array([[5.0, 5.0]])
        )
        plain = find_best_split(hist, candidates, reg_lambda=1.0)
        penalized = find_best_split(
            hist, candidates, reg_lambda=1.0, reg_gamma=2.0
        )
        assert penalized.gain == pytest.approx(plain.gain - 2.0)

    def test_feature_mask_excludes(self):
        candidates = make_candidates([[0.5], [0.5]], max_bins=2)
        hist = GradientHistogram(
            np.array([[10.0, -10.0], [8.0, -8.0]]),
            np.array([[5.0, 5.0], [5.0, 5.0]]),
        )
        decision = find_best_split(
            hist,
            candidates,
            reg_lambda=1.0,
            feature_valid=np.array([False, True]),
        )
        assert decision.feature == 1


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_histograms(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 7, 5
        cuts = [sorted(rng.normal(size=rng.integers(0, k)).tolist()) for _ in range(m)]
        cuts = [list(np.unique(c)) for c in cuts]
        candidates = make_candidates(cuts, max_bins=k)
        grad = rng.normal(size=(m, k))
        hess = rng.random((m, k)) + 0.1
        # Every feature row must share the same totals (node invariant).
        grad[:, -1] += grad[0].sum() - grad.sum(axis=1)
        hess[:, -1] += hess[0].sum() - hess.sum(axis=1)
        hist = GradientHistogram(grad, hess)
        decision = find_best_split(hist, candidates, reg_lambda=1.0)
        (expected_fj, expected_gain) = brute_force_best(hist, candidates, 1.0)
        if expected_gain <= 0:
            assert decision is None
        else:
            assert decision is not None
            assert (decision.feature, decision.bucket) == expected_fj
            assert decision.gain == pytest.approx(expected_gain, rel=1e-9)


class TestRangeScan:
    def test_shards_cover_whole_scan(self, rng):
        """Server-side scans over ranges + worker-side max == whole scan
        (the Section 6.3 exactness claim)."""
        m, k = 12, 6
        cuts = [
            list(np.unique(np.round(rng.normal(size=k - 1), 3))) for _ in range(m)
        ]
        candidates = make_candidates(cuts, max_bins=k)
        grad = rng.normal(size=(m, k))
        hess = rng.random((m, k)) + 0.1
        grad[:, -1] += grad[0].sum() - grad.sum(axis=1)
        hess[:, -1] += hess[0].sum() - hess.sum(axis=1)
        hist = GradientHistogram(grad, hess)
        whole = find_best_split(hist, candidates, reg_lambda=1.0)

        flat = hist.to_flat_feature_major()
        block = 2 * k
        shard_decisions = []
        for f_lo, f_hi in ((0, 4), (4, 9), (9, 12)):
            shard_decisions.append(
                best_split_in_range(
                    flat[f_lo * block : f_hi * block],
                    f_lo,
                    f_hi,
                    candidates,
                    reg_lambda=1.0,
                )
            )
        combined = combine_shard_decisions(shard_decisions)
        assert combined is not None and whole is not None
        assert (combined.feature, combined.bucket) == (
            whole.feature,
            whole.bucket,
        )
        assert combined.gain == pytest.approx(whole.gain, rel=1e-12)

    def test_empty_range(self):
        candidates = make_candidates([[0.5]], max_bins=2)
        assert (
            best_split_in_range(np.array([]), 1, 1, candidates, 1.0) is None
        )

    def test_size_validation(self):
        candidates = make_candidates([[0.5]], max_bins=2)
        with pytest.raises(TrainingError):
            best_split_in_range(np.zeros(3), 0, 1, candidates, 1.0)

    def test_histogram_candidate_mismatch(self):
        candidates = make_candidates([[0.5]], max_bins=2)
        hist = GradientHistogram.zeros(2, 2)
        with pytest.raises(TrainingError):
            find_best_split(hist, candidates, 1.0)


class TestCombine:
    def test_picks_max_gain(self):
        from repro.tree import SplitDecision

        mk = lambda gain: SplitDecision(0, 0, 0.0, gain, 0, 0, 0, 0, 0, 0)
        assert combine_shard_decisions([mk(1.0), mk(3.0), mk(2.0)]).gain == 3.0

    def test_ignores_none(self):
        from repro.tree import SplitDecision

        d = SplitDecision(0, 0, 0.0, 1.0, 0, 0, 0, 0, 0, 0)
        assert combine_shard_decisions([None, d, None]) is d

    def test_all_none(self):
        assert combine_shard_decisions([None, None]) is None


class TestLeafWeight:
    def test_formula(self):
        assert leaf_weight(10.0, 4.0, 1.0) == pytest.approx(-2.0)

    def test_degenerate_denominator(self):
        assert leaf_weight(5.0, -2.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# PR 19: the bucket-major scan against the frozen feature-major one
# ----------------------------------------------------------------------


@st.composite
def scan_cases(draw):
    """A flat slice as a PS shard stores it, plus every scan argument."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    n_bins = draw(st.sampled_from([2, 3, 8, 20]))
    n_features = draw(st.integers(min_value=1, max_value=12))
    f_lo = draw(st.integers(min_value=0, max_value=3))
    f_hi = f_lo + n_features
    cuts = [
        sorted(rng.normal(size=int(rng.integers(0, n_bins))).tolist())
        for _ in range(f_hi + 2)
    ]
    candidates = make_candidates(cuts, max_bins=n_bins)

    kind = draw(st.sampled_from(["exact", "lossy", "ties", "flat"]))
    grad = rng.normal(size=(n_features, n_bins))
    hess = rng.random((n_features, n_bins)) + 0.05
    if kind == "lossy":
        # What an 8-bit decode hands the scan: dyadic levels, zero mass in
        # most buckets, and hessian prefixes that dip below zero.
        grad = np.round(grad * 8) / 8 * (rng.random(grad.shape) < 0.4)
        hess = np.round((hess - 0.35) * 8) / 8 * (rng.random(hess.shape) < 0.4)
    elif kind == "ties":
        grad = rng.integers(-3, 4, size=grad.shape).astype(np.float64)
        hess = rng.integers(1, 3, size=hess.shape).astype(np.float64)
    elif kind == "flat":
        grad[:], hess[:] = 0.0, 1.0  # no positive gain anywhere
    if n_features >= 2 and draw(st.booleans()):
        # Two identical feature columns, same cut count: the first must win.
        a, b = sorted(rng.choice(n_features, size=2, replace=False).tolist())
        grad[b], hess[b] = grad[a], hess[a]
        cuts[f_lo + b] = cuts[f_lo + a]
        candidates = make_candidates(cuts, max_bins=n_bins)
    flat = np.stack([grad, hess], axis=1).ravel()

    feature_valid = None
    if draw(st.booleans()):
        feature_valid = rng.random(f_hi + 2) < 0.6
    return (
        flat,
        f_lo,
        f_hi,
        candidates,
        draw(st.sampled_from([0.0, 1.0, 5.0])),  # reg_lambda
        draw(st.sampled_from([0.0, 0.05])),  # reg_gamma
        draw(st.sampled_from([0.0, 0.5, 2.0])),  # min_child_weight
        feature_valid,
    )


class TestMatchesFrozenReference:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    def test_same_decision_field_for_field(self, case):
        old = ref.best_split_in_range(*case)
        new = best_split_in_range(*case)
        if old is None:
            assert new is None
        else:
            assert new is not None and dataclasses.astuple(new) == old

    def test_first_of_two_identical_features_wins(self):
        candidates = make_candidates([[0.0, 1.0]] * 3, max_bins=3)
        column = [[4.0, -1.0, -3.0], [1.0, 1.0, 1.0]]
        flat = np.array([[[0.0] * 3, [1.0] * 3], column, column]).ravel()
        decision = best_split_in_range(flat, 0, 3, candidates, reg_lambda=1.0)
        assert (decision.feature, decision.bucket) == (1, 0)
        assert dataclasses.astuple(decision) == ref.best_split_in_range(
            flat, 0, 3, candidates, 1.0
        )

    def test_equal_gains_resolve_in_feature_major_order(self):
        """Feature 0's cut 1 and feature 1's cut 0 split the node the same
        way; a bucket-major argmax would pick the later feature."""
        candidates = make_candidates([[0.0, 1.0]] * 2, max_bins=3)
        flat = np.array(
            [
                [[0.0, 4.0, -4.0], [0.0, 1.0, 1.0]],
                [[4.0, -4.0, 0.0], [1.0, 1.0, 0.0]],
            ]
        ).ravel()
        decision = best_split_in_range(flat, 0, 2, candidates, reg_lambda=1.0)
        assert (decision.feature, decision.bucket) == (0, 1)
        assert dataclasses.astuple(decision) == ref.best_split_in_range(
            flat, 0, 2, candidates, 1.0
        )

    def test_input_slice_is_not_written(self):
        rng = np.random.default_rng(0)
        candidates = make_candidates([[0.0, 1.0, 2.0]] * 4, max_bins=4)
        flat = rng.normal(size=2 * 4 * 4)
        before = flat.copy()
        best_split_in_range(flat, 0, 4, candidates, reg_lambda=1.0)
        np.testing.assert_array_equal(flat, before)
