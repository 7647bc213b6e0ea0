"""``sorted_columns`` / ``sorted_column_values``: the single-key sorts
against the frozen lexsort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.ragged import sorted_column_values, sorted_columns

from .. import _reference_rowpath as ref

#: Few distinct values so columns repeat them; both zeros, both infinities,
#: the subnormals next to zero.
LUMPY = np.array(
    [-np.inf, -3.0, -1e-45, -0.0, 0.0, 1e-45, 0.5, 0.5, 3.0, np.inf], dtype=np.float32
)


def assert_same_sort(indices, data, n_cols):
    old = ref.sorted_columns(indices, data, n_cols)
    new = sorted_columns(indices, data, n_cols)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)  # NaN == NaN here
    # The value path: no permutation to compare, so the values must agree
    # to the byte (the sign of a zero, the payload of a NaN — float64
    # widening keeps both), and the input must come back unwritten.
    before = data.tobytes()
    for a, b in zip(sorted_column_values(indices, data, n_cols), old[1:]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert data.tobytes() == before
    return new


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["lumpy", "plain", "smooth"]),
)
def test_order_is_the_lexsort_order(seed, nnz, n_cols, kind):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, n_cols, size=nnz).astype(np.int32)
    if kind == "lumpy":
        data = rng.choice(LUMPY, size=nnz)
    elif kind == "plain":  # repeats and infinities through the value sort
        data = rng.choice(LUMPY[~(np.signbit(LUMPY) & (LUMPY == 0))], size=nnz)
    else:
        data = (rng.normal(size=nnz) * 10.0 ** rng.integers(-30, 30)).astype(np.float32)
    assert_same_sort(indices, data, n_cols)


def test_value_sort_of_plain_columns():
    """No -0.0, no NaN: the path that decodes values out of sorted keys —
    repeats, both infinities, subnormals, an empty column between two."""
    indices = np.array([2, 0, 2, 0, 2, 0, 2, 0, 2, 2], dtype=np.int32)
    data = np.array(
        [np.inf, 0.5, -np.inf, 0.5, 1e-45, -3.0, -1e-45, 0.0, 0.5, -3.0],
        dtype=np.float32,
    )
    assert_same_sort(indices, data, 4)
    values, bounds = sorted_column_values(indices, data, 4)
    assert bounds.tolist() == [0, 4, 4, 10, 10]
    assert values[:4].tolist() == [-3.0, 0.0, 0.5, 0.5]
    assert values[4:].tolist() == [
        -np.inf, -3.0, float(np.float32(-1e-45)), float(np.float32(1e-45)), 0.5, np.inf
    ]


@pytest.mark.parametrize("stored", [[0.0, -0.0], [-0.0, 0.0], [-0.0], [-0.0, 1.0, 0.0]])
def test_a_stored_negative_zero_keeps_its_place(stored):
    """Equal keys, different bytes: the value sort alone would return
    +0.0 for both (folded) or -0.0 first (not folded)."""
    data = np.array(stored, dtype=np.float32)
    indices = np.zeros(len(data), dtype=np.int32)
    assert_same_sort(indices, data, 1)
    values, _ = sorted_column_values(indices, data, 1)
    zeros = [v for v in stored if v == 0.0]
    assert np.signbit(values[: len(zeros)]).tolist() == np.signbit(zeros).tolist()


def test_repeats_and_both_zeros_in_one_column_keep_csr_order():
    indices = np.zeros(8, dtype=np.int32)
    data = np.array([0.0, 2.0, -0.0, 2.0, 0.0, -1.0, -0.0, 2.0], dtype=np.float32)
    order, values, bounds = assert_same_sort(indices, data, 1)
    # -1, then the four zeros in the order they were stored, then the 2s.
    assert order.tolist() == [5, 0, 2, 4, 6, 1, 3, 7]
    assert np.signbit(values[1:5]).tolist() == [False, True, False, True]
    assert bounds.tolist() == [0, 8]


def test_every_nan_sorts_last_as_one_value():
    """Pinned: a NaN of either sign and any payload sorts after +inf, NaNs
    among themselves in CSR order — what lexsort does."""
    odd_nans = np.array([0xFFC00000, 0x7FC00123], dtype=np.uint32)
    negative_nan, payload_nan = odd_nans.view(np.float32)
    data = np.array(
        [np.nan, np.inf, negative_nan, -np.inf, payload_nan, 1.0], dtype=np.float32
    )
    indices = np.zeros(6, dtype=np.int32)
    order, values, _ = assert_same_sort(indices, data, 1)
    assert order.tolist() == [3, 5, 1, 0, 2, 4]
    assert np.isnan(values[3:]).all() and not np.isnan(values[:3]).any()


def test_float64_takes_the_lexsort():
    """The key holds 32 value bits: float64 (the public ``sketch_columns*``
    accept it) must not be narrowed to float32 on the way."""
    indices = np.array([1, 0, 1, 0, 1], dtype=np.int64)
    close = np.array([1.0, 2.0, 1.0 - 2.0**-40, 2.0, 1.0], dtype=np.float64)
    assert np.float32(close[2]) == 1.0
    order, values, bounds = assert_same_sort(indices, close, 2)
    assert order.tolist() == [1, 3, 2, 0, 4]
    assert values.dtype == np.float64 and bounds.tolist() == [0, 2, 5]


def test_input_is_not_written():
    data = np.array([-0.0, np.nan, 1.0], dtype=np.float32)
    before = data.tobytes()
    sorted_columns(np.zeros(3, dtype=np.int32), data, 1)
    assert data.tobytes() == before
