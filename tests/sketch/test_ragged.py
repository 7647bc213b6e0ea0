"""``sorted_columns``: the single-key sort against the frozen lexsort."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.ragged import sorted_columns

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
    return new


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=9),
    st.sampled_from(["lumpy", "smooth"]),
)
def test_order_is_the_lexsort_order(seed, nnz, n_cols, kind):
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, n_cols, size=nnz).astype(np.int32)
    if kind == "lumpy":
        data = rng.choice(LUMPY, size=nnz)
    else:
        data = (rng.normal(size=nnz) * 10.0 ** rng.integers(-30, 30)).astype(np.float32)
    assert_same_sort(indices, data, n_cols)


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
