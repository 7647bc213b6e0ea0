"""Ragged-array helpers shared by batch sketching and candidate assembly.

Per-feature work in CREATE_SKETCH is tiny (a few dozen numbers), so at
high dimension the cost is the number of numpy calls, not the data.
These helpers let one call cover every feature's segment of a flat
array at once.
"""

from __future__ import annotations

import numpy as np


def sorted_columns(
    indices: np.ndarray, data: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort CSR nonzeros by (column, value) with one stable sort.

    Returns ``(order, sorted_values, bounds)``: column ``c``'s ascending
    values are ``sorted_values[bounds[c]:bounds[c + 1]]``.  ``order`` is
    ``np.lexsort((data, indices))``: equal values of a column keep their
    CSR order, ``-0.0`` and ``0.0`` compare equal, and every NaN (either
    sign, any payload) sorts after ``+inf`` as one value.

    float32 values — what :class:`~repro.datasets.sparse.CSRMatrix`
    stores, so every trainer's input — take half the time of the two-key
    lexsort: the column and the value's order-preserving bit pattern are
    packed into one uint64 key per nonzero.  The key has 32 bits for the
    value, so any other dtype (the public ``sketch_columns*`` accept raw
    float64 arrays) is sorted by the lexsort itself.
    """
    if data.dtype == np.float32:
        values = data + np.float32(0.0)  # folds -0.0 into +0.0
        values[np.isnan(values)] = np.nan  # one bit pattern for every NaN
        order = np.argsort(_packed_keys(indices, values), kind="stable")
    else:
        order = np.lexsort((data, indices))
    bounds = np.searchsorted(indices[order], np.arange(n_cols + 1))
    return order, data[order].astype(np.float64), bounds


def _packed_keys(indices: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``column << 32 | ordered bits`` of float32 ``values`` (overwritten)."""
    bits = values.view(np.uint32)
    # IEEE-754 order as unsigned order: flip every bit of a negative
    # value, only the sign bit of a non-negative one.
    bits ^= (bits.view(np.int32) >> 31).view(np.uint32) | np.uint32(1 << 31)
    keys = indices.astype(np.uint64) << np.uint64(32)
    keys |= bits
    return keys


def sorted_column_values(
    indices: np.ndarray, data: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(sorted_values, bounds)`` of :func:`sorted_columns`, byte for byte.

    With no permutation to return, a value sort of the packed keys is
    enough and the values are decoded back out of them — unless equal
    keys can differ in bytes (a stored ``-0.0``, any NaN) or the data is
    not float32: those take the stable sort.
    """
    stable = data.dtype != np.float32 or np.isnan(data).any()
    if stable or (data.view(np.uint32) == np.uint32(1 << 31)).any():  # a -0.0
        return sorted_columns(indices, data, n_cols)[1:]
    keys = _packed_keys(indices, data.copy())
    keys.sort()
    first_keys = np.arange(n_cols + 1, dtype=np.uint64) << np.uint64(32)
    bounds = np.searchsorted(keys, first_keys)
    bits = keys.astype(np.uint32)  # the low word: the value's ordered bits
    bits ^= ((~bits).view(np.int32) >> 31).view(np.uint32) | np.uint32(1 << 31)
    return bits.view(np.float32).astype(np.float64), bounds


def ragged_arange(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(segment, index within segment)`` for segments of ``counts`` sizes."""
    segment = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.cumsum(counts) - counts
    return segment, np.arange(len(segment), dtype=np.int64) - starts[segment]


def segment_searchsorted(
    keys: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    targets: np.ndarray,
    side: str,
) -> np.ndarray:
    """``searchsorted(keys[lo[i]:hi[i]], targets[i], side) + lo[i]`` for all i.

    Branchless bisection over every query at once; ``keys`` need only be
    sorted within each ``[lo, hi)`` segment.  Takes ``log2`` of the
    longest segment rounds.
    """
    lo = np.array(lo, dtype=np.int64)
    hi = np.array(hi, dtype=np.int64)
    while True:
        active = lo < hi
        if not active.any():
            return lo
        mid = (lo + hi) >> 1
        # A finished query's mid may sit one past the end; clip, then mask.
        probe = keys.take(mid, mode="clip")
        below = (probe <= targets) if side == "right" else (probe < targets)
        go_right = active & below
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(active & ~go_right, mid, hi)


def segment_cumsum(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Running sums restarting at every ``bounds`` segment, as float64.

    Each float segment is summed from its own first element, so it is the
    same float sequence as ``np.cumsum`` of that segment alone (a global
    cumsum minus an offset is not) — one ``cumsum`` call a segment.
    Integer sums are exact in any order, so integer values take the
    global cumsum minus each segment's offset, in one pass.  Only
    ``[bounds[0], bounds[-1])`` of the result is filled.
    """
    out = np.empty(len(values), dtype=np.float64)
    if values.dtype.kind in "iu":
        lo, hi = bounds[0], bounds[-1]
        running = np.cumsum(values[lo:hi])
        before = np.concatenate(((0,), running))[bounds[:-1] - lo]
        out[lo:hi] = running - np.repeat(before, np.diff(bounds))
        return out
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        np.cumsum(values[lo:hi], out=out[lo:hi])
    return out
