"""Tests for BinnedShard and range concatenation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import CSRMatrix
from repro.errors import DataError
from repro.histogram import BinnedShard
from repro.histogram.binned import concat_ranges
from repro.sketch import propose_candidates

from .. import _reference_rowpath as ref


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([0, 10]), np.array([3, 2]))
        assert out.tolist() == [0, 1, 2, 10, 11]

    def test_empty_ranges_skipped(self):
        out = concat_ranges(np.array([5, 9, 20]), np.array([0, 2, 0]))
        assert out.tolist() == [9, 10]

    def test_all_empty(self):
        out = concat_ranges(np.array([1, 2]), np.array([0, 0]))
        assert len(out) == 0

    def test_no_ranges(self):
        assert len(concat_ranges(np.array([]), np.array([]))) == 0

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            concat_ranges(np.array([1]), np.array([1, 2]))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(0, 8)),
            min_size=0,
            max_size=20,
        )
    )
    def test_matches_naive(self, pairs):
        starts = np.array([p[0] for p in pairs], dtype=np.int64)
        counts = np.array([p[1] for p in pairs], dtype=np.int64)
        expected = np.concatenate(
            [np.arange(s, s + c) for s, c in pairs] or [np.array([], dtype=np.int64)]
        )
        np.testing.assert_array_equal(concat_ranges(starts, counts), expected)

    @pytest.mark.parametrize(
        "starts, counts",
        [
            ([], []),
            ([7], [4]),
            ([7], [0]),
            ([5, 9, 2, 20], [3, 0, 0, 2]),  # zero counts in the middle
            ([0, 0, 3], [2, 2, 1]),  # overlapping and repeated ranges
        ],
    )
    def test_matches_frozen(self, starts, counts):
        starts = np.array(starts, dtype=np.int64)
        counts = np.array(counts, dtype=np.int64)
        new, old = concat_ranges(starts, counts), ref.concat_ranges(starts, counts)
        assert new.dtype == old.dtype == np.int64
        np.testing.assert_array_equal(new, old)

    def test_negative_count_is_an_error(self):
        """The old loop dropped the range; ``np.repeat`` would raise a bare
        ``ValueError``."""
        with pytest.raises(DataError, match="negative range length -2"):
            concat_ranges(np.array([4, 9]), np.array([1, -2]))


class TestBinnedShard:
    def test_layout(self, tiny_dataset, tiny_candidates, tiny_shard):
        assert tiny_shard.n_rows == tiny_dataset.n_instances
        assert tiny_shard.n_features == tiny_dataset.n_features
        assert tiny_shard.nnz == tiny_dataset.X.nnz
        assert tiny_shard.n_bins == tiny_candidates.max_bins

    def test_bins_match_candidates(self, tiny_dataset, tiny_candidates, tiny_shard):
        X = tiny_dataset.X
        for k in range(0, X.nnz, max(1, X.nnz // 100)):
            f, v = int(X.indices[k]), float(X.data[k])
            assert tiny_shard.bins[k] == tiny_candidates.bin_of(f, v)

    def test_slots_formula(self, tiny_shard):
        np.testing.assert_array_equal(
            tiny_shard.slots,
            tiny_shard.features * tiny_shard.n_bins + tiny_shard.bins,
        )

    def test_row_of(self, tiny_dataset, tiny_shard):
        expected = np.repeat(
            np.arange(tiny_dataset.n_instances), tiny_dataset.X.row_nnz()
        )
        np.testing.assert_array_equal(tiny_shard.row_of, expected)

    def test_positions_of_rows(self, tiny_dataset, tiny_shard):
        rows = np.array([2, 5, 9])
        positions = tiny_shard.positions_of_rows(rows)
        expected = np.concatenate(
            [
                np.arange(tiny_dataset.X.indptr[r], tiny_dataset.X.indptr[r + 1])
                for r in rows
            ]
        )
        np.testing.assert_array_equal(positions, expected)

    @pytest.mark.parametrize("bad", [-1, "n_rows"])
    def test_positions_of_rows_out_of_range(self, tiny_shard, bad):
        """-1 used to wrap around ``indptr`` to a negative count that was
        silently dropped; ``n_rows`` escaped as an ``IndexError``."""
        bad = tiny_shard.n_rows if bad == "n_rows" else bad
        with pytest.raises(DataError, match=f"row id {bad} outside"):
            tiny_shard.positions_of_rows(np.array([3, bad]))

    def test_positions_of_no_rows(self, tiny_shard):
        out = tiny_shard.positions_of_rows(np.array([], dtype=np.int64))
        assert out.dtype == np.int64 and len(out) == 0

    def test_feature_count_mismatch(self, tiny_dataset):
        other = propose_candidates(
            CSRMatrix.from_rows([[(0, 1.0)]], n_cols=2), max_bins=4
        )
        with pytest.raises(DataError):
            BinnedShard(tiny_dataset.X, other)


class TestSplitMask:
    def naive_mask(self, X, rows, feature, value):
        """Reference: x[feature] < value goes left, absent = 0."""
        dense = X.to_dense()
        return dense[rows, feature] < value

    def test_matches_naive(self, tiny_dataset, tiny_candidates, tiny_shard):
        rng = np.random.default_rng(0)
        rows = np.sort(
            rng.choice(tiny_dataset.n_instances, size=100, replace=False)
        )
        checked = 0
        for feature in range(tiny_candidates.n_features):
            n_cuts = tiny_candidates.n_cuts(feature)
            if n_cuts == 0:
                continue
            bucket = int(rng.integers(n_cuts))
            value = tiny_candidates.split_value(feature, bucket)
            mask = tiny_shard.split_mask(rows, feature, bucket)
            np.testing.assert_array_equal(
                mask, self.naive_mask(tiny_dataset.X, rows, feature, value)
            )
            checked += 1
        assert checked > 5

    def test_zero_rows(self, tiny_shard):
        mask = tiny_shard.split_mask(np.array([], dtype=np.int64), 0, 0)
        assert len(mask) == 0

    def test_feature_out_of_range(self, tiny_shard):
        with pytest.raises(DataError):
            tiny_shard.split_mask(np.array([0]), 10_000, 0)

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.data())
    def test_column_lookup_matches_frozen_gather(self, seed, data):
        """Random shards x node row sets x (feature, bucket) against the old
        gather over every nonzero of the node."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        dense = rng.choice([-2.0, -0.5, 0.5, 1.0, 3.0], size=(n_rows, n_cols))
        dense[rng.random((n_rows, n_cols)) < 0.6] = 0.0
        dense[:, rng.integers(n_cols)] = 0.0  # a feature with no nonzero
        X = CSRMatrix.from_dense(dense)
        shard = BinnedShard(X, propose_candidates(X, max_bins=4))
        kind = data.draw(st.sampled_from(["empty", "all", "tail", "subset"]))
        if kind == "empty":
            rows = np.empty(0, dtype=np.int64)
        elif kind == "all":
            rows = np.arange(n_rows, dtype=np.int64)
        elif kind == "tail":  # a node that does not start at row 0
            rows = np.arange(n_rows // 2, n_rows, dtype=np.int64)
        else:
            rows = np.flatnonzero(rng.random(n_rows) < 0.4)
        for feature in range(n_cols):
            # Every bucket: the zero bin ends up on either side of it.
            for bucket in range(shard.n_bins):
                np.testing.assert_array_equal(
                    shard.split_mask(rows, feature, bucket),
                    ref.split_mask(shard, rows, feature, bucket),
                )

    def test_rows_in_any_order(self, tiny_shard):
        rows = np.array([250, 3, 3, 117, 0])
        np.testing.assert_array_equal(
            tiny_shard.split_mask(rows, 5, 2), ref.split_mask(tiny_shard, rows, 5, 2)
        )


class TestRepeatedColumn:
    """The one input on which the old gather (last write wins) and a column
    lookup could disagree is refused at bin time."""

    def test_row_repeating_a_column_is_rejected(self, tiny_candidates):
        # The raw constructor takes what from_rows and the loader refuse.
        X = CSRMatrix(
            np.array([0, 2, 5]),
            np.array([3, 7, 1, 9, 1]),
            np.array([1.0, 2.0, 0.5, 1.5, 2.5]),
            (2, tiny_candidates.n_features),
        )
        with pytest.raises(DataError, match="row 1 lists feature 1 more than once"):
            BinnedShard(X, tiny_candidates)

    def test_same_column_in_adjacent_rows_is_fine(self, tiny_candidates):
        X = CSRMatrix(
            np.array([0, 2, 4]),
            np.array([7, 3, 3, 7]),  # unsorted within a row, no repeat
            np.array([1.0, 2.0, 0.5, 1.5]),
            (2, tiny_candidates.n_features),
        )
        shard = BinnedShard(X, tiny_candidates)
        np.testing.assert_array_equal(shard.column_order, [1, 2, 0, 3])


class TestPrecomputedSlotCaches:
    def test_column_order_is_the_stable_sort_by_feature(self, tiny_shard):
        order, bounds = tiny_shard.column_order, tiny_shard.column_bounds
        np.testing.assert_array_equal(
            order, np.argsort(tiny_shard.features, kind="stable")
        )
        assert order.dtype == np.int32
        np.testing.assert_array_equal(
            bounds,
            np.searchsorted(
                tiny_shard.features[order], np.arange(tiny_shard.n_features + 1)
            ),
        )
        for feature in (0, 7, tiny_shard.n_features - 1):
            column = order[bounds[feature] : bounds[feature + 1]]
            assert np.all(tiny_shard.features[column] == feature)
            assert np.all(np.diff(tiny_shard.row_of[column]) > 0)

    def test_feature_arange(self, tiny_shard):
        np.testing.assert_array_equal(
            tiny_shard.feature_arange,
            np.arange(tiny_shard.n_features, dtype=np.int64),
        )

    def test_zero_slots_injective_in_feature(self, tiny_shard):
        """The dense kernel scatters through zero_slots: one slot per
        feature, no two features sharing one."""
        assert len(np.unique(tiny_shard.zero_slots)) == tiny_shard.n_features
