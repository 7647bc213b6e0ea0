"""Tests for the GradientHistogram data structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DataError
from repro.histogram import GradientHistogram


def random_hist(rng, m=5, k=4) -> GradientHistogram:
    return GradientHistogram(rng.normal(size=(m, k)), rng.random((m, k)))


class TestBasics:
    def test_zeros(self):
        hist = GradientHistogram.zeros(3, 4)
        assert hist.n_features == 3
        assert hist.n_bins == 4
        assert hist.grad.sum() == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            GradientHistogram(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_wire_bytes(self):
        hist = GradientHistogram.zeros(10, 20)
        assert hist.wire_bytes == 2 * 10 * 20 * 4

    def test_add_inplace(self, rng):
        a, b = random_hist(rng), random_hist(rng)
        expected = a.grad + b.grad
        a.add_(b)
        np.testing.assert_allclose(a.grad, expected)

    def test_add_layout_mismatch(self, rng):
        a = GradientHistogram.zeros(2, 3)
        b = GradientHistogram.zeros(3, 3)
        with pytest.raises(DataError):
            a.add_(b)

    def test_subtract(self, rng):
        a, b = random_hist(rng), random_hist(rng)
        diff = a.subtract(b)
        np.testing.assert_allclose(diff.grad, a.grad - b.grad)
        np.testing.assert_allclose(diff.hess, a.hess - b.hess)

    def test_subtraction_recovers_sibling(self, rng):
        """parent - left == right: the histogram-subtraction identity."""
        left, right = random_hist(rng), random_hist(rng)
        parent = left.copy().add_(right)
        sibling = parent.subtract(left)
        assert sibling.allclose(right, atol=1e-12)

    def test_copy_independent(self, rng):
        a = random_hist(rng)
        b = a.copy()
        b.grad[0, 0] += 1.0
        assert a.grad[0, 0] != b.grad[0, 0]


class TestTotals:
    def test_totals_match_row_sums(self, tiny_shard, rng):
        from repro.histogram import build_node_histogram_sparse

        g = rng.normal(size=tiny_shard.n_rows)
        h = rng.random(tiny_shard.n_rows)
        hist = build_node_histogram_sparse(
            tiny_shard, np.arange(tiny_shard.n_rows), g, h
        )
        tg, th = hist.totals()
        assert tg == pytest.approx(g.sum(), rel=1e-9)
        assert th == pytest.approx(h.sum(), rel=1e-9)
        # Every feature row sums to the same node totals.
        np.testing.assert_allclose(hist.grad.sum(axis=1), g.sum(), rtol=1e-9)

    def test_feature_slice(self, rng):
        hist = random_hist(rng, m=6, k=3)
        sl = hist.feature_slice(2, 5)
        np.testing.assert_array_equal(sl.grad, hist.grad[2:5])

    def test_feature_slice_bounds(self, rng):
        hist = random_hist(rng)
        with pytest.raises(DataError):
            hist.feature_slice(3, 99)


class TestFlatLayouts:
    def test_feature_major_roundtrip(self, rng):
        hist = random_hist(rng, m=4, k=5)
        flat = hist.to_flat_feature_major()
        back = GradientHistogram.from_flat_feature_major(flat, 4, 5)
        assert back.allclose(hist, atol=1e-12)

    def test_feature_major_block_layout(self, rng):
        """Block f holds [grad_f, hess_f] contiguously — the PS layout."""
        hist = random_hist(rng, m=3, k=2)
        flat = hist.to_flat_feature_major()
        for f in range(3):
            block = flat[f * 4 : (f + 1) * 4]
            np.testing.assert_array_equal(block[:2], hist.grad[f])
            np.testing.assert_array_equal(block[2:], hist.hess[f])

    def test_from_flat_size_check(self):
        with pytest.raises(DataError):
            GradientHistogram.from_flat_feature_major(np.zeros(7), 2, 2)

    def test_flat_sum_equals_hist_sum(self, rng):
        """Summing flats is the same as summing histograms (aggregation)."""
        hists = [random_hist(rng, m=3, k=4) for _ in range(4)]
        flat_sum = np.sum([h.to_flat_feature_major() for h in hists], axis=0)
        hist_sum = hists[0].copy()
        for h in hists[1:]:
            hist_sum.add_(h)
        back = GradientHistogram.from_flat_feature_major(flat_sum, 3, 4)
        assert back.allclose(hist_sum, atol=1e-10)
