"""Frozen list-backed reference for the array-backed sketch rewrite (PR 14).

A verbatim copy of ``repro.sketch.quantile`` and of the candidate
assembly in ``repro.sketch.candidates`` as they stood before summaries
moved to ndarray storage: Python-list ``_values/_g/_delta``, one
``query`` per quantile, one ``np.unique`` per feature.  Test-only — the
differential oracle of ``test_reference_oracle.py`` — and never imported
by ``src/``.  Do not "fix" or modernise it: its value is that it shares
no code with the implementation it checks.  The only edits are the
absolute ``repro.errors`` import, ``_assemble`` returning the raw
``(offsets, cuts)`` pair instead of a ``CandidateSet``, and
``_compute_bins_scalar`` taking those arrays instead of ``self``.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import DataError, SketchError


class GKSketch:
    """Greenwald-Khanna quantile summary.

    Attributes:
        eps: Target rank-error fraction.
        count: Number of values summarized.
    """

    __slots__ = ("eps", "count", "_values", "_g", "_delta")

    def __init__(self, eps: float = 0.01) -> None:
        if not 0.0 < eps < 0.5:
            raise SketchError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = float(eps)
        self.count = 0
        self._values: list[float] = []
        self._g: list[int] = []
        self._delta: list[int] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[float] | np.ndarray, eps: float = 0.01) -> "GKSketch":
        """Build a summary from an in-memory batch by sort-and-sample.

        The result has at most ``ceil(1 / (2 * eps)) + 2`` entries and zero
        delta everywhere, hence rank error at most ``eps * n``.
        """
        arr = np.sort(np.asarray(values, dtype=np.float64))
        if len(arr) == 0:
            return cls(eps)
        return _from_presorted(arr, eps)

    def insert(self, value: float) -> None:
        """Insert one value (streaming GK insertion with compression)."""
        value = float(value)
        self.count += 1
        threshold = self._threshold()
        i = bisect.bisect_left(self._values, value)
        if i == 0 or i == len(self._values):
            # New minimum or maximum: delta must be 0 at the extremes.
            self._values.insert(i, value)
            self._g.insert(i, 1)
            self._delta.insert(i, 0)
        else:
            self._values.insert(i, value)
            self._g.insert(i, 1)
            self._delta.insert(i, max(0, threshold - 1))
        if len(self._values) > self._max_entries():
            self._compress()

    def extend(self, values: Iterable[float]) -> None:
        """Insert many values one by one."""
        for value in values:
            self.insert(value)

    def _threshold(self) -> int:
        return max(1, int(math.floor(2.0 * self.eps * self.count)))

    def _max_entries(self) -> int:
        # Keep roughly 3/eps entries before compressing; GK's bound is
        # O(log(eps * n) / eps) but this fixed cap works well in practice.
        return int(3.0 / self.eps) + 8

    def _compress(self) -> None:
        """Greedily merge adjacent entries while the GK invariant holds."""
        if len(self._values) <= 2:
            return
        threshold = self._threshold()
        values = [self._values[0]]
        gs = [self._g[0]]
        deltas = [self._delta[0]]
        for i in range(1, len(self._values) - 1):
            # Classic GK merge: absorb the previous tuple into this one
            # when the combined weight plus this tuple's uncertainty still
            # satisfies the invariant.
            if len(values) > 1 and gs[-1] + self._g[i] + self._delta[i] <= threshold:
                gs[-1] += self._g[i]
                values[-1] = self._values[i]
                deltas[-1] = self._delta[i]
            else:
                values.append(self._values[i])
                gs.append(self._g[i])
                deltas.append(self._delta[i])
        values.append(self._values[-1])
        gs.append(self._g[-1])
        deltas.append(self._delta[-1])
        self._values, self._g, self._delta = values, gs, deltas

    # ------------------------------------------------------------------
    # merging (PS-side aggregation)
    # ------------------------------------------------------------------

    def merge(self, other: "GKSketch") -> "GKSketch":
        """Return a new summary covering both inputs.

        Entries are interleaved by value keeping their weights; deltas are
        inflated by the partner sketch's uncertainty, so the merged rank
        error is bounded by ``self.eps * self.count + other.eps *
        other.count`` — i.e. the errors add, they do not multiply.
        """
        if not isinstance(other, GKSketch):
            raise SketchError(
                f"cannot merge GKSketch with {type(other).__name__}"
            )
        if other.count == 0:
            return self.copy()
        if self.count == 0:
            merged = other.copy()
            merged.eps = max(self.eps, other.eps)
            return merged
        out = GKSketch(max(self.eps, other.eps))
        out.count = self.count + other.count
        err_a = int(math.floor(2.0 * self.eps * self.count))
        err_b = int(math.floor(2.0 * other.eps * other.count))
        # Both inputs are sorted, so a stable sort of the concatenation
        # (self first) reproduces the classic two-pointer interleave,
        # including its take-self-on-ties rule.
        values = np.concatenate(
            (
                np.asarray(self._values, dtype=np.float64),
                np.asarray(other._values, dtype=np.float64),
            )
        )
        gs = np.concatenate(
            (
                np.asarray(self._g, dtype=np.int64),
                np.asarray(other._g, dtype=np.int64),
            )
        )
        deltas = np.concatenate(
            (
                np.asarray(self._delta, dtype=np.int64) + err_b,
                np.asarray(other._delta, dtype=np.int64) + err_a,
            )
        )
        order = np.argsort(values, kind="stable")
        values = values[order]
        gs = gs[order]
        deltas = deltas[order]
        # Extremes must carry zero delta for exact min/max queries.
        deltas[0] = 0
        deltas[-1] = 0
        out._values = values.tolist()
        out._g = gs.tolist()
        out._delta = deltas.tolist()
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
        budget = max(1, int(math.ceil(sum(self._g) / max(1, target - 2))))
        values = np.asarray(self._values, dtype=np.float64)
        gs = np.asarray(self._g, dtype=np.int64)
        deltas = np.asarray(self._delta, dtype=np.int64)
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
        end_idx = np.append(start_idx[1:], n_interior)
        grouped_g = np.add.reduceat(interior_g, start_idx)
        grouped_delta = np.maximum.reduceat(deltas[1:-1], start_idx)
        grouped_values = values[1:-1][end_idx - 1]
        self._values = (
            [float(values[0])] + grouped_values.tolist() + [float(values[-1])]
        )
        self._g = [int(gs[0])] + grouped_g.tolist() + [int(gs[-1])]
        self._delta = (
            [int(deltas[0])] + grouped_delta.tolist() + [int(deltas[-1])]
        )

    def copy(self) -> "GKSketch":
        """Return a deep copy."""
        out = GKSketch(self.eps)
        out.count = self.count
        out._values = list(self._values)
        out._g = list(self._g)
        out._delta = list(self._delta)
        return out

    # ------------------------------------------------------------------
    # wire serialization (what CREATE_SKETCH actually pushes)
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for the PS push: eps + count + packed entries.

        Layout: float64 eps, int64 count, int32 n_entries, then three
        parallel arrays (float64 values, int32 g, int32 delta).  This is
        the real wire size the CREATE_SKETCH phase pays per feature.
        """
        header = np.empty(2, dtype=np.float64)
        header[0] = self.eps
        header[1] = float(self.count)
        n = np.asarray([len(self._values)], dtype=np.int32)
        values = np.asarray(self._values, dtype=np.float64)
        gs = np.asarray(self._g, dtype=np.int32)
        deltas = np.asarray(self._delta, dtype=np.int32)
        return b"".join(
            arr.tobytes() for arr in (header, n, values, gs, deltas)
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "GKSketch":
        """Inverse of :meth:`to_bytes`."""
        if len(payload) < 20:
            raise SketchError(f"sketch payload too short ({len(payload)} bytes)")
        header = np.frombuffer(payload, dtype=np.float64, count=2)
        n = int(np.frombuffer(payload, dtype=np.int32, count=1, offset=16)[0])
        expected = 20 + n * (8 + 4 + 4)
        if len(payload) != expected:
            raise SketchError(
                f"sketch payload has {len(payload)} bytes, expected {expected}"
            )
        sketch = cls(float(header[0]))
        sketch.count = int(header[1])
        offset = 20
        sketch._values = list(
            np.frombuffer(payload, dtype=np.float64, count=n, offset=offset)
        )
        offset += 8 * n
        sketch._g = [
            int(v)
            for v in np.frombuffer(payload, dtype=np.int32, count=n, offset=offset)
        ]
        offset += 4 * n
        sketch._delta = [
            int(v)
            for v in np.frombuffer(payload, dtype=np.int32, count=n, offset=offset)
        ]
        return sketch

    @property
    def wire_bytes(self) -> int:
        """Size of :meth:`to_bytes` without materializing it."""
        return 20 + len(self._values) * 16

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    @property
    def min_value(self) -> float:
        """Smallest value observed."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        return self._values[0]

    @property
    def max_value(self) -> float:
        """Largest value observed."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        return self._values[-1]

    def query(self, quantile: float) -> float:
        """Return a value whose rank is within ``eps * n`` of ``quantile * n``."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        if not 0.0 <= quantile <= 1.0:
            raise SketchError(f"quantile must be in [0, 1], got {quantile}")
        target = quantile * self.count
        slack = self.eps * self.count
        rank_min = np.cumsum(np.asarray(self._g, dtype=np.int64))
        rank_max = rank_min + np.asarray(self._delta, dtype=np.int64)
        ok = (target <= rank_max + slack) & (target <= rank_min + slack)
        if not ok.any():
            return self._values[-1]
        return self._values[int(np.argmax(ok))]

    def quantiles(self, k: int) -> np.ndarray:
        """Return ``k`` evenly spaced interior quantiles (1/(k+1) .. k/(k+1))."""
        if k < 1:
            raise SketchError(f"k must be >= 1, got {k}")
        qs = np.arange(1, k + 1, dtype=np.float64) / (k + 1)
        return np.asarray([self.query(q) for q in qs], dtype=np.float64)

    def rank_of(self, value: float) -> tuple[int, int]:
        """Return (rank_min, rank_max) bounds for ``value`` (test helper)."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        rank_min = 0
        for i in range(len(self._values)):
            if self._values[i] > value:
                return rank_min, rank_min + (self._delta[i - 1] if i else 0)
            rank_min += self._g[i]
        return rank_min, rank_min


class WeightedGKSketch:
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

    Attributes:
        eps: Target weighted-rank-error fraction.
        count: Number of items summarized.
        total_weight: Total weight summarized.
    """

    __slots__ = ("eps", "count", "total_weight", "_values", "_g", "_delta")

    def __init__(self, eps: float = 0.01) -> None:
        if not 0.0 < eps < 0.5:
            raise SketchError(f"eps must be in (0, 0.5), got {eps}")
        self.eps = float(eps)
        self.count = 0
        self.total_weight = 0.0
        self._values: list[float] = []
        self._g: list[float] = []
        self._delta: list[float] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

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
        return _from_presorted_weighted(arr[order], wts[order], eps)

    def _max_entries(self) -> int:
        return int(3.0 / self.eps) + 8

    # ------------------------------------------------------------------
    # merging (PS-side aggregation)
    # ------------------------------------------------------------------

    def merge(self, other: "WeightedGKSketch") -> "WeightedGKSketch":
        """Return a new summary covering both inputs (errors add)."""
        if not isinstance(other, WeightedGKSketch):
            raise SketchError(
                f"cannot merge WeightedGKSketch with {type(other).__name__}"
            )
        if other.count == 0:
            return self.copy()
        if self.count == 0:
            merged = other.copy()
            merged.eps = max(self.eps, other.eps)
            return merged
        out = WeightedGKSketch(max(self.eps, other.eps))
        out.count = self.count + other.count
        out.total_weight = self.total_weight + other.total_weight
        err_a = 2.0 * self.eps * self.total_weight
        err_b = 2.0 * other.eps * other.total_weight
        values = np.concatenate(
            (
                np.asarray(self._values, dtype=np.float64),
                np.asarray(other._values, dtype=np.float64),
            )
        )
        gs = np.concatenate(
            (
                np.asarray(self._g, dtype=np.float64),
                np.asarray(other._g, dtype=np.float64),
            )
        )
        deltas = np.concatenate(
            (
                np.asarray(self._delta, dtype=np.float64) + err_b,
                np.asarray(other._delta, dtype=np.float64) + err_a,
            )
        )
        order = np.argsort(values, kind="stable")
        values = values[order]
        gs = gs[order]
        deltas = deltas[order]
        deltas[0] = 0.0
        deltas[-1] = 0.0
        out._values = values.tolist()
        out._g = gs.tolist()
        out._delta = deltas.tolist()
        out._compress_merged()
        return out

    def _compress_merged(self) -> None:
        """Size-driven compression after merge (weighted-g budget)."""
        target = self._max_entries()
        if len(self._values) <= target:
            return
        values = np.asarray(self._values, dtype=np.float64)
        gs = np.asarray(self._g, dtype=np.float64)
        deltas = np.asarray(self._delta, dtype=np.float64)
        budget = max(
            float(gs.sum()) / max(1, target - 2), np.finfo(np.float64).tiny
        )
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
        end_idx = np.append(start_idx[1:], n_interior)
        grouped_g = np.add.reduceat(interior_g, start_idx)
        grouped_delta = np.maximum.reduceat(deltas[1:-1], start_idx)
        grouped_values = values[1:-1][end_idx - 1]
        self._values = (
            [float(values[0])] + grouped_values.tolist() + [float(values[-1])]
        )
        self._g = [float(gs[0])] + grouped_g.tolist() + [float(gs[-1])]
        self._delta = (
            [float(deltas[0])] + grouped_delta.tolist() + [float(deltas[-1])]
        )

    def copy(self) -> "WeightedGKSketch":
        """Return a deep copy."""
        out = WeightedGKSketch(self.eps)
        out.count = self.count
        out.total_weight = self.total_weight
        out._values = list(self._values)
        out._g = list(self._g)
        out._delta = list(self._delta)
        return out

    # ------------------------------------------------------------------
    # wire serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for the PS push.

        Layout: float64 eps, float64 total_weight, int64 count, int32
        n_entries, then three parallel float64 arrays (values, g, delta).
        """
        header = np.empty(2, dtype=np.float64)
        header[0] = self.eps
        header[1] = self.total_weight
        count = np.asarray([self.count], dtype=np.int64)
        n = np.asarray([len(self._values)], dtype=np.int32)
        values = np.asarray(self._values, dtype=np.float64)
        gs = np.asarray(self._g, dtype=np.float64)
        deltas = np.asarray(self._delta, dtype=np.float64)
        return b"".join(
            arr.tobytes() for arr in (header, count, n, values, gs, deltas)
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "WeightedGKSketch":
        """Inverse of :meth:`to_bytes`."""
        if len(payload) < 28:
            raise SketchError(f"sketch payload too short ({len(payload)} bytes)")
        header = np.frombuffer(payload, dtype=np.float64, count=2)
        count = int(np.frombuffer(payload, dtype=np.int64, count=1, offset=16)[0])
        n = int(np.frombuffer(payload, dtype=np.int32, count=1, offset=24)[0])
        expected = 28 + n * 24
        if len(payload) != expected:
            raise SketchError(
                f"sketch payload has {len(payload)} bytes, expected {expected}"
            )
        sketch = cls(float(header[0]))
        sketch.count = count
        sketch.total_weight = float(header[1])
        offset = 28
        sketch._values = list(
            np.frombuffer(payload, dtype=np.float64, count=n, offset=offset)
        )
        offset += 8 * n
        sketch._g = list(
            np.frombuffer(payload, dtype=np.float64, count=n, offset=offset)
        )
        offset += 8 * n
        sketch._delta = list(
            np.frombuffer(payload, dtype=np.float64, count=n, offset=offset)
        )
        return sketch

    @property
    def wire_bytes(self) -> int:
        """Size of :meth:`to_bytes` without materializing it."""
        return 28 + len(self._values) * 24

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    @property
    def min_value(self) -> float:
        """Smallest value observed."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        return self._values[0]

    @property
    def max_value(self) -> float:
        """Largest value observed."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        return self._values[-1]

    def query(self, quantile: float) -> float:
        """Return a value whose weighted rank is within ``eps * W`` of
        ``quantile * W``."""
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        if not 0.0 <= quantile <= 1.0:
            raise SketchError(f"quantile must be in [0, 1], got {quantile}")
        target = quantile * self.total_weight
        slack = self.eps * self.total_weight
        rank_min = np.cumsum(np.asarray(self._g, dtype=np.float64))
        rank_max = rank_min + np.asarray(self._delta, dtype=np.float64)
        ok = (target <= rank_max + slack) & (target <= rank_min + slack)
        if not ok.any():
            return self._values[-1]
        return self._values[int(np.argmax(ok))]

    def quantiles(self, k: int) -> np.ndarray:
        """Return ``k`` evenly spaced interior quantiles (1/(k+1) .. k/(k+1))."""
        if k < 1:
            raise SketchError(f"k must be >= 1, got {k}")
        qs = np.arange(1, k + 1, dtype=np.float64) / (k + 1)
        return np.asarray([self.query(q) for q in qs], dtype=np.float64)


def _from_presorted_weighted(
    sorted_values: np.ndarray, weights: np.ndarray, eps: float
) -> WeightedGKSketch:
    """Build a weighted summary from values presorted ascending."""
    sketch = WeightedGKSketch(eps)
    n = len(sorted_values)
    if n == 0:
        return sketch
    cum_weight = np.cumsum(weights)
    total = float(cum_weight[-1])
    if total <= 0.0:
        # All-zero weights carry no rank information; summarize nothing.
        return sketch
    step = 2.0 * eps * total
    thresholds = np.arange(step, total, step, dtype=np.float64)
    positions = np.searchsorted(cum_weight, thresholds, side="left")
    positions = np.unique(np.concatenate(([0], positions, [n - 1])))
    kept = cum_weight[positions]
    sketch._values = sorted_values[positions].astype(np.float64).tolist()
    sketch._g = np.diff(kept, prepend=0.0).tolist()
    sketch._delta = [0.0] * len(positions)
    sketch.count = n
    sketch.total_weight = total
    return sketch


def sketch_columns(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    eps: float = 0.01,
) -> list[GKSketch]:
    """Build one GK summary per column of a CSR matrix in a single pass.

    Sorts all nonzeros by (column, value) with one lexsort and batch-builds
    each column's summary from its sorted segment — much faster than
    streaming per-value inserts when the shard is already in memory.

    Args:
        indptr, indices, data: CSR arrays (indptr is unused but accepted to
            mirror the matrix signature).
        n_cols: Number of columns (features).
        eps: Rank-error target of each summary.

    Returns:
        A list of ``n_cols`` sketches; columns with no stored values get an
        empty sketch.
    """
    del indptr  # column sketches only need (column, value) pairs
    order = np.lexsort((data, indices))
    sorted_cols = indices[order]
    sorted_vals = data[order].astype(np.float64)
    boundaries = np.searchsorted(sorted_cols, np.arange(n_cols + 1))
    sketches: list[GKSketch] = []
    for col in range(n_cols):
        lo, hi = int(boundaries[col]), int(boundaries[col + 1])
        if hi > lo:
            sketches.append(_from_presorted(sorted_vals[lo:hi], eps))
        else:
            sketches.append(GKSketch(eps))
    return sketches


def _from_presorted(sorted_values: np.ndarray, eps: float) -> GKSketch:
    """Like :meth:`GKSketch.from_values` but skips the sort."""
    sketch = GKSketch(eps)
    n = len(sorted_values)
    step = max(1, int(math.floor(2.0 * eps * n)))
    positions = np.arange(0, n, step, dtype=np.int64)
    if positions[-1] != n - 1:
        positions = np.append(positions, n - 1)
    sketch._values = sorted_values[positions].astype(np.float64).tolist()
    sketch._g = np.diff(positions, prepend=-1).tolist()
    sketch._delta = [0] * len(positions)
    sketch.count = n
    return sketch


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
    nnz_weights = weights[row_of]
    order = np.lexsort((data, indices))
    sorted_cols = indices[order]
    sorted_vals = data[order].astype(np.float64)
    sorted_wts = nnz_weights[order]
    boundaries = np.searchsorted(sorted_cols, np.arange(n_cols + 1))
    sketches: list[WeightedGKSketch] = []
    for col in range(n_cols):
        lo, hi = int(boundaries[col]), int(boundaries[col + 1])
        if hi > lo:
            sketches.append(
                _from_presorted_weighted(
                    sorted_vals[lo:hi], sorted_wts[lo:hi], eps
                )
            )
        else:
            sketches.append(WeightedGKSketch(eps))
    return sketches


# ----------------------------------------------------------------------
# tagged wire format (what push_sketch actually sends)
# ----------------------------------------------------------------------

_WIRE_KIND_GK = 0
_WIRE_KIND_WEIGHTED = 1

AnySketch = GKSketch | WeightedGKSketch


def sketch_to_wire(sketch: AnySketch) -> bytes:
    """Frame a sketch for the fabric: 1-byte kind tag + ``to_bytes``.

    The tag lets the server host unweighted and weighted summaries behind
    the same handler without guessing from payload length.  The untagged
    :meth:`GKSketch.to_bytes` layout is unchanged.
    """
    if isinstance(sketch, WeightedGKSketch):
        return bytes([_WIRE_KIND_WEIGHTED]) + sketch.to_bytes()
    if isinstance(sketch, GKSketch):
        return bytes([_WIRE_KIND_GK]) + sketch.to_bytes()
    raise SketchError(f"cannot serialize {type(sketch).__name__} for the wire")


def sketch_from_wire(payload: bytes) -> AnySketch:
    """Inverse of :func:`sketch_to_wire`."""
    if len(payload) < 1:
        raise SketchError("empty sketch wire payload")
    kind = payload[0]
    if kind == _WIRE_KIND_GK:
        return GKSketch.from_bytes(payload[1:])
    if kind == _WIRE_KIND_WEIGHTED:
        return WeightedGKSketch.from_bytes(payload[1:])
    raise SketchError(f"unknown sketch wire tag {kind}")


# ----------------------------------------------------------------------
# candidate assembly (frozen from repro.sketch.candidates)
# ----------------------------------------------------------------------

def _dedupe_cuts(raw: np.ndarray, max_cuts: int) -> np.ndarray:
    """Strictly increasing cuts from raw quantile values, at most max_cuts."""
    cuts = np.unique(raw.astype(np.float64))
    if len(cuts) > max_cuts:
        pick = np.linspace(0, len(cuts) - 1, max_cuts).astype(np.int64)
        cuts = cuts[np.unique(pick)]
    return cuts


def propose_candidates(
    X, max_bins: int, include_zero_cut: bool = True
):
    """Propose cuts from exact per-feature quantiles of the nonzero values.

    Single-machine path (also the ground truth the sketch path is tested
    against).  One lexsort of all nonzeros by (column, value) yields every
    feature's sorted values; ``max_bins - 1`` evenly spaced order
    statistics become the cuts.

    Args:
        X: Feature matrix.
        max_bins: Bucket budget K; at most ``K - 1`` cuts per feature.
        include_zero_cut: Also insert a cut at 0.0 (when it falls inside
            the feature's value range) so the zero bucket separates
            negatives from positives — this is what makes "zero bucket"
            semantics of Algorithm 2 exact for signed features.
    """
    if max_bins < 2:
        raise SketchError(f"max_bins must be >= 2, got {max_bins}")
    order = np.lexsort((X.data, X.indices))
    sorted_cols = X.indices[order]
    sorted_vals = X.data[order].astype(np.float64)
    boundaries = np.searchsorted(sorted_cols, np.arange(X.n_cols + 1))
    per_feature: list[np.ndarray] = []
    for f in range(X.n_cols):
        lo, hi = int(boundaries[f]), int(boundaries[f + 1])
        seg = sorted_vals[lo:hi]
        if len(seg) == 0:
            per_feature.append(np.empty(0, dtype=np.float64))
            continue
        qpos = np.linspace(0, len(seg) - 1, max_bins + 1)[1:-1]
        raw = seg[np.round(qpos).astype(np.int64)]
        if include_zero_cut and seg[0] < 0.0 < seg[-1]:
            raw = np.append(raw, 0.0)
        per_feature.append(_dedupe_cuts(raw, max_bins - 1))
    return _assemble(per_feature, max_bins)


def propose_candidates_weighted(
    X,
    max_bins: int,
    sample_weight: np.ndarray,
    include_zero_cut: bool = True,
):
    """Propose cuts at *weighted* quantiles of the nonzero values.

    The WOS (weighted quantile sketch) idea the paper cites from XGBoost:
    each instance contributes ``sample_weight`` (typically its hessian)
    to the rank space, so buckets equalize second-order mass rather than
    instance counts.  Exact computation, mirroring
    :func:`propose_candidates`.

    Args:
        X: Feature matrix.
        max_bins: Bucket budget K.
        sample_weight: Non-negative weight per instance (length n_rows).
        include_zero_cut: As in :func:`propose_candidates`.
    """
    if max_bins < 2:
        raise SketchError(f"max_bins must be >= 2, got {max_bins}")
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    if sample_weight.shape != (X.n_rows,):
        raise DataError(
            f"sample_weight must have one value per row ({X.n_rows}), got "
            f"{sample_weight.shape}"
        )
    if np.any(sample_weight < 0):
        raise DataError("sample_weight must be non-negative")
    row_of = np.repeat(np.arange(X.n_rows), X.row_nnz())
    order = np.lexsort((X.data, X.indices))
    sorted_cols = X.indices[order]
    sorted_vals = X.data[order].astype(np.float64)
    sorted_weights = sample_weight[row_of[order]]
    boundaries = np.searchsorted(sorted_cols, np.arange(X.n_cols + 1))
    per_feature: list[np.ndarray] = []
    for f in range(X.n_cols):
        lo, hi = int(boundaries[f]), int(boundaries[f + 1])
        seg_vals = sorted_vals[lo:hi]
        seg_weights = sorted_weights[lo:hi]
        total = float(seg_weights.sum())
        if len(seg_vals) == 0 or total <= 0:
            per_feature.append(np.empty(0, dtype=np.float64))
            continue
        # Weighted rank of each value = cumulative weight up to it; pick
        # the values at evenly spaced weighted ranks.
        cum = np.cumsum(seg_weights)
        targets = np.linspace(0, total, max_bins + 1)[1:-1]
        positions = np.searchsorted(cum, targets, side="left")
        np.clip(positions, 0, len(seg_vals) - 1, out=positions)
        raw = seg_vals[positions]
        if include_zero_cut and seg_vals[0] < 0.0 < seg_vals[-1]:
            raw = np.append(raw, 0.0)
        per_feature.append(_dedupe_cuts(raw, max_bins - 1))
    return _assemble(per_feature, max_bins)


def propose_candidates_from_sketches(
    sketches: list[GKSketch], max_bins: int, include_zero_cut: bool = True
):
    """Propose cuts from (merged) GK sketches — the distributed path.

    This is the PULL_SKETCH phase: workers pull the merged per-feature
    sketches from the PS and turn each into at most ``max_bins - 1`` cuts.
    """
    if max_bins < 2:
        raise SketchError(f"max_bins must be >= 2, got {max_bins}")
    per_feature: list[np.ndarray] = []
    for sketch in sketches:
        if sketch.count == 0:
            per_feature.append(np.empty(0, dtype=np.float64))
            continue
        raw = sketch.quantiles(max_bins - 1)
        if include_zero_cut and sketch.min_value < 0.0 < sketch.max_value:
            raw = np.append(raw, 0.0)
        per_feature.append(_dedupe_cuts(raw, max_bins - 1))
    return _assemble(per_feature, max_bins)


def _assemble(per_feature: list[np.ndarray], max_bins: int):
    offsets = np.zeros(len(per_feature) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in per_feature], out=offsets[1:])
    cuts = (
        np.concatenate(per_feature)
        if per_feature
        else np.empty(0, dtype=np.float64)
    )
    return offsets, cuts


def _compute_bins_scalar(offsets: np.ndarray, cuts: np.ndarray, value: float) -> np.ndarray:
    """Bucket of a constant value under every feature's cuts."""
    n_features = len(offsets) - 1
    bins = np.empty(n_features, dtype=np.int32)
    for f in range(n_features):
        lo, hi = offsets[f], offsets[f + 1]
        bins[f] = int(np.searchsorted(cuts[lo:hi], value, side="right"))
    return bins
