"""Greenwald-Khanna epsilon-approximate quantile summaries.

A GK summary over ``n`` observed values is a sorted sequence of entries
``(value, g, delta)`` where ``g`` is the gap in minimal rank to the
previous entry and ``delta`` bounds the rank uncertainty of the entry.
The invariant ``g + delta <= 2 * eps * n`` guarantees that any rank query
is answered within ``eps * n`` of the true rank [Greenwald & Khanna,
SIGMOD 2001].

Entries are held as three parallel ndarrays (float64 values; g and delta
int64, or float64 in weighted rank space).  No method writes into them
in place — every change rebinds — so the read-only views
:meth:`from_bytes` takes of a wire payload and the slices
:func:`sketch_columns` hands out of one batch are ordinary storage.

Three construction paths are provided:

* :meth:`GKSketch.insert` — classic streaming insertion with periodic
  compression (used when data arrives value by value).
* :meth:`GKSketch.from_values` — batch construction from an in-memory
  array: sort once and keep every ``ceil(2*eps*n)``-th element.  This is
  how workers summarize their local data shard in CREATE_SKETCH, since
  the shard is already resident.
* :meth:`GKSketch.merge` — combine two summaries (the PS-side aggregation
  of local sketches).  Merging concatenates the weighted entries and
  re-compresses; the rank error of the result is bounded by the sum of
  the inputs' errors, so distributed use builds local sketches at
  ``eps / 2`` to end below ``eps`` after one merge level.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable, Sequence

import numpy as np

from ..errors import SketchError
from .ragged import (
    ragged_arange,
    segment_cumsum,
    segment_searchsorted,
    sorted_columns,
)


def _checked_eps(eps: float) -> float:
    if not 0.0 < eps < 0.5:
        raise SketchError(f"eps must be in (0, 0.5), got {eps}")
    return float(eps)


class _Summary:
    """What both summaries share: storage, merge, wire format, queries.

    Subclasses name the rank dtype (in memory and on the wire), the wire
    header, and the three expressions that differ between counted and
    weighted rank space: the total mass, the merge error of one operand,
    and the per-group budget of the post-merge compression.
    """

    __slots__ = ("eps", "count", "_values", "_g", "_delta")

    def __init__(self, eps: float = 0.01) -> None:
        none = np.empty(0, dtype=self._RANK)
        self._fill(_checked_eps(eps), 0, 0.0, np.empty(0, dtype=np.float64), none, none)

    def _fill(self, eps, count, mass, values, g, delta) -> None:
        self.eps = eps
        self.count = count
        self._values = values
        self._g = g
        self._delta = delta

    @classmethod
    def _build(cls, *fields):
        """An instance over already-validated fields (see :meth:`_fill`)."""
        out = cls.__new__(cls)
        out._fill(*fields)
        return out

    def _max_entries(self) -> int:
        # Keep roughly 3/eps entries before compressing; GK's bound is
        # O(log(eps * n) / eps) but this fixed cap works well in practice.
        return int(3.0 / self.eps) + 8

    # ------------------------------------------------------------------
    # merging (PS-side aggregation)
    # ------------------------------------------------------------------

    def merge(self, other: "_Summary") -> "_Summary":
        """Return a new summary covering both inputs.

        Entries are interleaved by value keeping their weights; deltas are
        inflated by the partner sketch's uncertainty, so the merged rank
        error is bounded by ``self.eps * self.count + other.eps *
        other.count`` (total weights, for weighted summaries) — i.e. the
        errors add, they do not multiply.
        """
        if not isinstance(other, type(self)):
            raise SketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if other.count == 0:
            return self.copy()
        if self.count == 0:
            merged = other.copy()
            merged.eps = max(self.eps, other.eps)
            return merged
        # Both inputs are sorted, so a stable sort of the concatenation
        # (self first) reproduces the classic two-pointer interleave,
        # including its take-self-on-ties rule.
        values = np.concatenate((self._values, other._values))
        order = np.argsort(values, kind="stable")
        deltas = np.concatenate(
            (self._delta + other._merge_err(), other._delta + self._merge_err())
        )[order]
        # Extremes must carry zero delta for exact min/max queries.
        deltas[0] = deltas[-1] = 0
        out = self._build(
            max(self.eps, other.eps),
            self.count + other.count,
            self._mass + other._mass,
            values[order],
            np.concatenate((self._g, other._g))[order],
            deltas,
        )
        out._compress_merged()
        return out

    def _compress_merged(self) -> None:
        """Size-driven compression after merge (keeps the delta bounds)."""
        target = self._max_entries()
        if len(self._values) <= target:
            return
        # Reduce to ~target entries by combining adjacent entries evenly.
        # The extremes are kept verbatim; interior entries are grouped
        # greedily so each group's total g stays within the budget (a group
        # always takes at least one entry).  Group boundaries come from one
        # searchsorted per group over the cumulative g — O(target log n)
        # instead of a Python loop over every entry.
        values, gs, deltas = self._values, self._g, self._delta
        budget = self._group_budget(gs.sum(), max(1, target - 2))
        interior_g = gs[1:-1]
        cum = np.cumsum(interior_g)
        starts: list[int] = []
        s = 0
        n_interior = len(interior_g)
        while s < n_interior:
            starts.append(s)
            base = cum[s] - interior_g[s]
            s = max(s + 1, int(np.searchsorted(cum, base + budget, side="right")))
        start_idx = np.asarray(starts, dtype=np.int64)
        last_of_group = np.concatenate((start_idx[1:], (n_interior,))) - 1
        self._values = np.concatenate(
            (values[:1], values[1:-1][last_of_group], values[-1:])
        )
        self._g = np.concatenate(
            (gs[:1], np.add.reduceat(interior_g, start_idx), gs[-1:])
        )
        self._delta = np.concatenate(
            (deltas[:1], np.maximum.reduceat(deltas[1:-1], start_idx), deltas[-1:])
        )

    def copy(self) -> "_Summary":
        """Return a deep copy."""
        return self._build(
            self.eps,
            self.count,
            self._mass,
            self._values.copy(),
            self._g.copy(),
            self._delta.copy(),
        )

    # ------------------------------------------------------------------
    # wire serialization (what CREATE_SKETCH actually pushes)
    # ------------------------------------------------------------------

    def _frames(self) -> tuple:
        """The buffers whose concatenation is :meth:`to_bytes`."""
        return (
            self._HEAD.pack(*self._head(), len(self._values)),
            self._values,
            self._g.astype(self._WIRE_RANK, copy=False),
            self._delta.astype(self._WIRE_RANK, copy=False),
        )

    def to_bytes(self) -> bytes:
        """Serialize for the PS push: header, then three parallel arrays
        (float64 values, g, delta) — the real wire size the CREATE_SKETCH
        phase pays per feature.  See the subclass for the header layout."""
        return b"".join(self._frames())

    @classmethod
    def from_bytes(cls, payload: bytes) -> "_Summary":
        """Inverse of :meth:`to_bytes`; the arrays are views of ``payload``
        (g/delta widened once when the wire rank is narrower)."""
        head, rank = cls._HEAD.size, cls._WIRE_RANK
        if len(payload) < head:
            raise SketchError(f"sketch payload too short ({len(payload)} bytes)")
        *fields, n = cls._HEAD.unpack_from(payload)
        expected = head + n * (8 + 2 * rank.itemsize)
        if len(payload) != expected:
            raise SketchError(
                f"sketch payload has {len(payload)} bytes, expected {expected}"
            )
        eps, count, mass = cls._unhead(*fields)
        g_at = head + 8 * n
        g = np.frombuffer(payload, rank, n, g_at)
        delta = np.frombuffer(payload, rank, n, g_at + rank.itemsize * n)
        return cls._build(
            _checked_eps(eps),
            count,
            mass,
            np.frombuffer(payload, np.float64, n, head),
            g.astype(cls._RANK, copy=False),
            delta.astype(cls._RANK, copy=False),
        )

    @property
    def wire_bytes(self) -> int:
        """Size of :meth:`to_bytes` without materializing it."""
        return self._HEAD.size + len(self._values) * (8 + 2 * self._WIRE_RANK.itemsize)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def _entries(self) -> np.ndarray:
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        return self._values

    @property
    def min_value(self) -> float:
        """Smallest value observed."""
        return float(self._entries()[0])

    @property
    def max_value(self) -> float:
        """Largest value observed."""
        return float(self._entries()[-1])

    def _answer(self, targets):
        """Entry values answering rank ``targets`` (a scalar or an array).

        Entry ``i`` answers target ``t`` when ``t <= rank_min[i] + slack``
        and ``t <= rank_max[i] + slack``; the first such entry wins, the
        maximum if none does.  ``rank_max = rank_min + delta`` with
        ``delta >= 0``, and float addition is monotone, so the second
        clause can never bind where the first holds: the answer is one
        ``searchsorted`` over the non-decreasing ``rank_min + slack``.
        """
        values = self._entries()
        bound = np.cumsum(self._g) + self.eps * self._mass
        first = np.searchsorted(bound, targets, side="left")
        return values[np.minimum(first, len(bound) - 1)]

    def query(self, quantile: float) -> float:
        """Return a value whose rank is within ``eps * n`` of ``quantile * n``
        (weighted rank and total weight, for weighted summaries)."""
        self._entries()
        if not 0.0 <= quantile <= 1.0:
            raise SketchError(f"quantile must be in [0, 1], got {quantile}")
        return float(self._answer(quantile * self._mass))

    def quantiles(self, k: int) -> np.ndarray:
        """Return ``k`` evenly spaced interior quantiles (1/(k+1) .. k/(k+1))."""
        if k < 1:
            raise SketchError(f"k must be >= 1, got {k}")
        qs = np.arange(1, k + 1, dtype=np.float64) / (k + 1)
        return self._answer(qs * self._mass)


class GKSketch(_Summary):
    """Greenwald-Khanna quantile summary.

    Wire layout: float64 eps, float64 count, int32 n_entries, then
    float64 values, int32 g, int32 delta.

    Attributes:
        eps: Target rank-error fraction.
        count: Number of values summarized.
    """

    __slots__ = ()
    _RANK = np.int64
    _WIRE_RANK = np.dtype(np.int32)
    _WIRE_TAG = b"\x00"
    _HEAD = struct.Struct("=ddi")

    @property
    def _mass(self) -> int:
        return self.count

    def _merge_err(self) -> int:
        return int(math.floor(2.0 * self.eps * self.count))

    @staticmethod
    def _group_budget(total_g, groups: int) -> int:
        return max(1, int(math.ceil(int(total_g) / groups)))

    def _head(self) -> tuple:
        return self.eps, float(self.count)

    @staticmethod
    def _unhead(eps: float, count: float) -> tuple:
        return eps, int(count), None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(
        cls, values: Sequence[float] | np.ndarray, eps: float = 0.01
    ) -> "GKSketch":
        """Build a summary from an in-memory batch by sort-and-sample.

        The result has at most ``ceil(1 / (2 * eps)) + 2`` entries and zero
        delta everywhere, hence rank error at most ``eps * n``.
        """
        arr = np.sort(np.asarray(values, dtype=np.float64))
        return _sample_sorted(arr, np.asarray((0, len(arr)), dtype=np.int64), eps)[0]

    def insert(self, value: float) -> None:
        """Insert one value (streaming GK insertion with compression)."""
        value = float(value)
        self.count += 1
        i = int(np.searchsorted(self._values, value, side="left"))
        # New minimum or maximum: delta must be 0 at the extremes.
        interior = 0 < i < len(self._values)
        entry = (value, 1, max(0, self._threshold() - 1) if interior else 0)
        self._values, self._g, self._delta = (
            np.concatenate((arr[:i], (field,), arr[i:]))
            for arr, field in zip((self._values, self._g, self._delta), entry)
        )
        if len(self._values) > self._max_entries():
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Insert many values one by one."""
        for value in values:
            self.insert(value)

    def _threshold(self) -> int:
        return max(1, int(math.floor(2.0 * self.eps * self.count)))

    def _compress(self) -> None:
        """Greedily merge adjacent entries while the GK invariant holds."""
        if len(self._values) <= 2:
            return
        threshold = self._threshold()
        src_values, src_g, src_delta = (
            self._values.tolist(), self._g.tolist(), self._delta.tolist()
        )
        values, gs, deltas = src_values[:1], src_g[:1], src_delta[:1]
        for i in range(1, len(src_values) - 1):
            # Classic GK merge: absorb the previous tuple into this one
            # when the combined weight plus this tuple's uncertainty still
            # satisfies the invariant.
            if len(values) > 1 and gs[-1] + src_g[i] + src_delta[i] <= threshold:
                gs[-1] += src_g[i]
                values[-1] = src_values[i]
                deltas[-1] = src_delta[i]
            else:
                values.append(src_values[i])
                gs.append(src_g[i])
                deltas.append(src_delta[i])
        self._values = np.asarray(values + src_values[-1:], dtype=np.float64)
        self._g = np.asarray(gs + src_g[-1:], dtype=np.int64)
        self._delta = np.asarray(deltas + src_delta[-1:], dtype=np.int64)

    def rank_of(self, value: float) -> tuple[int, int]:
        """Return (rank_min, rank_max) bounds for ``value`` (test helper)."""
        above = int(np.searchsorted(self._entries(), value, side="right"))
        rank_min = int(self._g[:above].sum())
        if above in (0, len(self._values)):
            return rank_min, rank_min
        return rank_min, rank_min + int(self._delta[above - 1])


class WeightedGKSketch(_Summary):
    """Weighted mergeable quantile summary (hessian-weighted entries).

    Follows the mergeable weighted quantile construction of Huang & Yi
    (arXiv:1909.07633): entries are ``(value, g, delta)`` exactly as in
    :class:`GKSketch`, but ``g`` and ``delta`` live in *weighted* rank
    space (float64) and the invariant is ``g + delta <= 2 * eps * W`` for
    total weight ``W``.  Items whose individual weight exceeds the
    sampling step are necessarily retained as exact entries, so heavy
    items never hide inside a gap.  Merging concatenates and
    re-compresses with the error bounds adding, exactly as in the
    unweighted case, so distributed use builds local summaries at
    ``eps / 2`` to end below ``eps`` after one merge level.

    Wire layout: float64 eps, float64 total_weight, int64 count, int32
    n_entries, then three parallel float64 arrays (values, g, delta).

    Attributes:
        eps: Target weighted-rank-error fraction.
        count: Number of items summarized.
        total_weight: Total weight summarized.
    """

    __slots__ = ("total_weight",)
    _RANK = np.float64
    _WIRE_RANK = np.dtype(np.float64)
    _WIRE_TAG = b"\x01"
    _HEAD = struct.Struct("=ddqi")

    def _fill(self, eps, count, mass, values, g, delta) -> None:
        super()._fill(eps, count, mass, values, g, delta)
        self.total_weight = mass

    @property
    def _mass(self) -> float:
        return self.total_weight

    def _merge_err(self) -> float:
        return 2.0 * self.eps * self.total_weight

    @staticmethod
    def _group_budget(total_g, groups: int) -> float:
        return max(float(total_g) / groups, np.finfo(np.float64).tiny)

    def _head(self) -> tuple:
        return self.eps, self.total_weight, self.count

    @staticmethod
    def _unhead(eps: float, total_weight: float, count: int) -> tuple:
        return eps, count, total_weight

    @classmethod
    def from_values(
        cls,
        values: Sequence[float] | np.ndarray,
        weights: Sequence[float] | np.ndarray,
        eps: float = 0.01,
    ) -> "WeightedGKSketch":
        """Build a summary from a batch of (value, weight) pairs."""
        arr = np.asarray(values, dtype=np.float64)
        wts = np.asarray(weights, dtype=np.float64)
        if arr.shape != wts.shape:
            raise SketchError(
                f"values and weights differ in shape: {arr.shape} vs {wts.shape}"
            )
        if arr.size and float(wts.min()) < 0.0:
            raise SketchError("weights must be non-negative")
        order = np.argsort(arr, kind="stable")
        bounds = np.asarray((0, len(arr)), dtype=np.int64)
        return _sample_sorted_weighted(arr[order], wts[order], bounds, eps)[0]


def _sample_sorted(
    sorted_values: np.ndarray, bounds: np.ndarray, eps: float
) -> list[GKSketch]:
    """One sort-and-sample summary per ``bounds`` segment of presorted values.

    Segment of ``n`` values keeps positions ``0, step, 2*step, ...`` plus
    ``n - 1``, ``step = max(1, floor(2 * eps * n))`` — computed for every
    segment at once; the summaries are slices of the shared result.
    """
    eps = _checked_eps(eps)
    n = np.diff(bounds)
    step = np.maximum(1, np.floor(2.0 * eps * n).astype(np.int64))
    kept = -(-n // step)
    kept += (kept - 1) * step < n - 1  # the maximum is always an entry
    segment, i = ragged_arange(kept)
    pos = np.minimum(i * step[segment], (n - 1)[segment])
    values = sorted_values[bounds[:-1][segment] + pos]
    g = np.diff(pos, prepend=-1)
    g[i == 0] = 1
    delta = np.zeros(len(pos), dtype=np.int64)
    ends = np.cumsum(kept)
    return [
        GKSketch._build(eps, int(count), None, values[a:b], g[a:b], delta[a:b])
        for a, b, count in zip(ends - kept, ends, n)
    ]


def _sample_sorted_weighted(
    sorted_values: np.ndarray, weights: np.ndarray, bounds: np.ndarray, eps: float
) -> list[WeightedGKSketch]:
    """One weighted summary per ``bounds`` segment of presorted values.

    A segment of total weight ``W`` keeps its first and last value and
    the first value whose cumulative weight reaches each multiple of
    ``2 * eps * W``.  Segments with no weight summarize nothing.
    """
    eps = _checked_eps(eps)
    sketches = [WeightedGKSketch(eps) for _ in range(len(bounds) - 1)]
    cum = segment_cumsum(weights, bounds)
    live = np.flatnonzero(np.diff(bounds) > 0)
    live = live[cum[bounds[1:][live] - 1] > 0.0]
    if len(live) == 0:
        return sketches
    lo, hi = bounds[:-1][live], bounds[1:][live]
    total = cum[hi - 1]
    step = 2.0 * eps * total
    # Thresholds are np.arange(step, total, step): step + j * step.  Entry 0
    # of a segment is threshold 0 (position 0), the last entry its maximum.
    n_thresholds = np.maximum(np.ceil((total - step) / step), 0).astype(np.int64)
    segment, j = ragged_arange(n_thresholds + 2)
    thresholds = step[segment] + (j - 1) * step[segment]
    last = hi[segment] - 1
    at = segment_searchsorted(cum, lo[segment], hi[segment], thresholds, "left")
    at = np.where(j > n_thresholds[segment], last, np.minimum(at, last))
    first = j == 0
    keep = first.copy()
    keep[1:] |= at[1:] != at[:-1]
    at, first = at[keep], first[keep]
    reached = cum[at]
    g = np.diff(reached, prepend=0.0)
    g[first] = reached[first]
    values = sorted_values[at]
    delta = np.zeros(len(at), dtype=np.float64)
    kept = np.bincount(segment[keep], minlength=len(live))
    ends = np.cumsum(kept)
    for col, a, b, count, weight in zip(live, ends - kept, ends, hi - lo, total):
        sketches[col]._fill(
            eps, int(count), float(weight), values[a:b], g[a:b], delta[a:b]
        )
    return sketches


def sketch_columns(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    eps: float = 0.01,
) -> list[GKSketch]:
    """Build one GK summary per column of a CSR matrix in a single pass.

    Sorts all nonzeros by (column, value) with one stable sort and samples
    every column's sorted segment in one ragged pass — much faster than
    streaming per-value inserts when the shard is already in memory.

    Args:
        indptr, indices, data: CSR arrays.  Column summaries only need the
            (column, value) pairs; ``indptr`` mirrors the matrix signature.
        n_cols: Number of columns (features).
        eps: Rank-error target of each summary.

    Returns:
        A list of ``n_cols`` sketches; columns with no stored values get an
        empty sketch.
    """
    _, sorted_vals, bounds = sorted_columns(indices, data, n_cols)
    return _sample_sorted(sorted_vals, bounds, eps)


def sketch_columns_weighted(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    row_weights: np.ndarray,
    eps: float = 0.01,
) -> list[WeightedGKSketch]:
    """Build one weighted summary per column of a CSR matrix.

    Each stored value is weighted by its row's weight (the engine passes
    per-instance hessians or sample weights), so the proposed cut points
    equalize *weight* mass per bucket rather than instance mass — the
    weighted candidate rule of Huang & Yi / XGBoost.

    Args:
        indptr, indices, data: CSR arrays.
        n_cols: Number of columns (features).
        row_weights: One weight per row, ``len(indptr) - 1`` entries.
        eps: Weighted-rank-error target of each summary.

    Returns:
        A list of ``n_cols`` sketches; columns with no stored values get
        an empty sketch.
    """
    n_rows = len(indptr) - 1
    weights = np.asarray(row_weights, dtype=np.float64)
    if len(weights) != n_rows:
        raise SketchError(
            f"row_weights has {len(weights)} entries for {n_rows} rows"
        )
    row_of = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))
    order, sorted_vals, bounds = sorted_columns(indices, data, n_cols)
    return _sample_sorted_weighted(sorted_vals, weights[row_of[order]], bounds, eps)


# ----------------------------------------------------------------------
# tagged wire format (what push_sketch actually sends)
# ----------------------------------------------------------------------

AnySketch = GKSketch | WeightedGKSketch

_WIRE_KINDS = {cls._WIRE_TAG[0]: cls for cls in (GKSketch, WeightedGKSketch)}


def sketch_to_wire(sketch: AnySketch) -> bytes:
    """Frame a sketch for the fabric: 1-byte kind tag + ``to_bytes``.

    The tag lets the server host unweighted and weighted summaries behind
    the same handler without guessing from payload length.  The untagged
    :meth:`GKSketch.to_bytes` layout is unchanged.
    """
    if not isinstance(sketch, _Summary):
        raise SketchError(f"cannot serialize {type(sketch).__name__} for the wire")
    return b"".join((sketch._WIRE_TAG, *sketch._frames()))


def sketch_from_wire(payload: bytes) -> AnySketch:
    """Inverse of :func:`sketch_to_wire`."""
    if len(payload) < 1:
        raise SketchError("empty sketch wire payload")
    kind = _WIRE_KINDS.get(payload[0])
    if kind is None:
        raise SketchError(f"unknown sketch wire tag {payload[0]}")
    return kind.from_bytes(payload[1:])
