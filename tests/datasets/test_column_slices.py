"""The column-slice contract one worker grid rests on.

``CSRMatrix.slice_cols``, ``Dataset.slice_features`` and
``CandidateSet.feature_range`` return their input for the full range, so
the C = 1 block of a grid row *is* its row band; a proper sub-range
rebases feature ids (and cuts) to the stripe; a range outside the
matrix is a ``DataError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import CSRMatrix, Dataset
from repro.errors import DataError
from repro.sketch import propose_candidates


@pytest.fixture(scope="module")
def dense():
    rng = np.random.default_rng(4)
    values = rng.normal(size=(9, 7)).astype(np.float32)
    values[rng.random(values.shape) < 0.5] = 0.0
    return values


@pytest.fixture(scope="module")
def dataset(dense):
    y = (np.arange(dense.shape[0]) % 2).astype(np.float64)
    weights = np.linspace(0.5, 2.0, dense.shape[0])
    return Dataset(CSRMatrix.from_dense(dense), y, "slices", weights)


@pytest.fixture(scope="module")
def candidates(dataset):
    return propose_candidates(dataset.X, 5)


class TestSliceCols:
    def test_full_range_is_the_input(self, dataset):
        X = dataset.X
        assert X.slice_cols(0, X.n_cols) is X

    @pytest.mark.parametrize("lo, hi", [(0, 3), (2, 5), (4, 7), (3, 3)])
    def test_sub_range_rebases_to_the_dense_reference(self, dense, dataset, lo, hi):
        sliced = dataset.X.slice_cols(lo, hi)
        assert sliced.shape == (dense.shape[0], hi - lo)
        np.testing.assert_array_equal(sliced.to_dense(), dense[:, lo:hi])
        assert sliced.nnz == np.count_nonzero(dense[:, lo:hi])

    @pytest.mark.parametrize("lo, hi", [(-1, 3), (2, 8), (5, 4)])
    def test_out_of_range_raises(self, dataset, lo, hi):
        with pytest.raises(DataError):
            dataset.X.slice_cols(lo, hi)


class TestSliceFeatures:
    def test_full_range_is_the_input(self, dataset):
        assert dataset.slice_features(0, dataset.n_features) is dataset

    def test_sub_range_rebases_and_shares_labels(self, dense, dataset):
        sliced = dataset.slice_features(2, 6)
        np.testing.assert_array_equal(sliced.X.to_dense(), dense[:, 2:6])
        assert sliced.n_features == 4
        assert sliced.y is dataset.y
        assert sliced.weights is dataset.weights

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (0, 8)])
    def test_out_of_range_raises(self, dataset, lo, hi):
        with pytest.raises(DataError):
            dataset.slice_features(lo, hi)


class TestFeatureRange:
    def test_full_range_is_the_input(self, candidates):
        assert candidates.feature_range(0, candidates.n_features) is candidates

    @pytest.mark.parametrize("lo, hi", [(0, 3), (2, 5), (4, 7), (6, 6)])
    def test_sub_range_rebases_cuts(self, candidates, lo, hi):
        stripe = candidates.feature_range(lo, hi)
        assert stripe.n_features == hi - lo
        assert stripe.max_bins == candidates.max_bins
        for f in range(hi - lo):
            np.testing.assert_array_equal(
                stripe.feature_cuts(f), candidates.feature_cuts(lo + f)
            )
        np.testing.assert_array_equal(stripe.zero_bins, candidates.zero_bins[lo:hi])

    @pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 8), (5, 4)])
    def test_out_of_range_raises(self, candidates, lo, hi):
        with pytest.raises(DataError):
            candidates.feature_range(lo, hi)
