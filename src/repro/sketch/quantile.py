"""Greenwald-Khanna epsilon-approximate quantile summaries.

A GK summary over ``n`` observed values is a sorted sequence of entries
``(value, g, delta)`` where ``g`` is the gap in minimal rank to the
previous entry and ``delta`` bounds the rank uncertainty of the entry.
The invariant ``g + delta <= 2 * eps * n`` guarantees that any rank query
is answered within ``eps * n`` of the true rank [Greenwald & Khanna,
SIGMOD 2001].

Summaries have one form.  A :class:`SketchBatch` holds one summary per
feature of a shard in ragged storage — three parallel entry arrays
(float64 values; g and delta int64, or float64 in weighted rank space)
cut by ``bounds``.  It is what :func:`sketch_columns` computes, what a
worker pushes to a server partition as one frame (the only sketch wire
format), and what the servers merge and candidate proposal reads without
a Python loop over features.  No batch method writes into those arrays,
so the read-only views :meth:`SketchBatch.from_frame` takes of a payload
are ordinary storage.

A :class:`GKSketch` / :class:`WeightedGKSketch` is a read-only view of a
one-summary batch, and everything it does runs through the batch code:

* :meth:`GKSketch.from_values` — construction from an in-memory array:
  sort once and keep every ``ceil(2*eps*n)``-th element.  This is how
  workers summarize their local data shard in CREATE_SKETCH, since the
  shard is already resident.
* :meth:`GKSketch.merge` — combine two summaries (the PS-side aggregation
  of local sketches).  Merging concatenates the weighted entries and
  re-compresses; the rank error of the result is bounded by the sum of
  the inputs' errors, so distributed use builds local sketches at
  ``eps / 2`` to end below ``eps`` after one merge level.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..errors import SketchError
from .ragged import (
    ragged_arange,
    segment_cumsum,
    segment_searchsorted,
    sorted_column_values,
    sorted_columns,
)
from .wire import (
    COUNTS,
    FLOAT_RANKS,
    FLOATS,
    IDS,
    RANKS,
    UNIFORM_FLOATS,
    FrameReader,
    pack,
)


def _checked_eps(eps: float) -> float:
    if not 0.0 < eps < 0.5:
        raise SketchError(f"eps must be in (0, 0.5), got {eps}")
    return float(eps)


def _check_summaries(
    kind: type,
    eps: np.ndarray,
    counts: np.ndarray,
    masses: np.ndarray,
    bounds: np.ndarray,
    values: np.ndarray,
    g: np.ndarray,
    delta: np.ndarray,
) -> None:
    """Vouch for parsed summaries before anything merges or queries them.

    Summary ``i`` owns entries ``[bounds[i], bounds[i + 1])`` of the
    shared ``values`` / ``g`` / ``delta``.  One vectorized pass for a
    whole frame.

    Raises:
        SketchError: An ``eps`` outside (0, 0.5); a negative count, or a
            mass that is not finite and non-negative; entries without a
            count or a count without entries; NaN or descending values
            inside a summary; a negative (or NaN) ``g`` / ``delta``; gaps
            that do not sum to the summary's mass.
    """
    if not np.all((eps > 0.0) & (eps < 0.5)):
        raise SketchError("sketch eps must be in (0, 0.5)")
    # Comparisons with NaN are false, so NaN fails every test below.
    if not np.all(counts >= 0):
        raise SketchError("sketch counts must be non-negative")
    if not np.all((masses >= 0.0) & (masses < np.inf)):
        raise SketchError("sketch masses must be finite and non-negative")
    sizes = np.diff(bounds)
    if np.any((sizes == 0) != (counts == 0)):
        raise SketchError("a sketch has entries exactly when its count is nonzero")
    lo, hi = bounds[0], bounds[-1]
    descending = values[lo + 1 : hi] < values[lo : hi - 1]
    # A summary's first entry may sit below the previous summary's last.
    firsts = bounds[1:-1]
    descending[firsts[(firsts > lo) & (firsts < hi)] - lo - 1] = False
    if np.isnan(values[lo:hi]).any() or descending.any():
        raise SketchError("sketch entries must be non-decreasing and not NaN")
    if not (np.all(g[lo:hi] >= 0) and np.all(delta[lo:hi] >= 0)):
        raise SketchError("sketch g and delta must be non-negative")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    gaps = np.bincount(owner, weights=g[lo:hi], minlength=len(sizes))
    # Integer ranks add exactly; weighted ones to rounding.
    slack = 0.0 if kind._RANK is np.int64 else 1e-9 * masses
    if np.any(np.abs(gaps - masses) > slack):
        raise SketchError("sketch gaps must sum to the summary's mass")


class _Summary:
    """One summary: a read-only view of a one-summary :class:`SketchBatch`.

    Every method runs through the batch code, so a summary answers bit
    for bit what the batch it came from answers.  Subclasses name the
    rank dtype (in memory and on the wire), their frame's kind tag, and
    the two expressions that differ between counted and weighted rank
    space: the merge error of one operand and the per-group budget of
    the post-merge compression.
    """

    __slots__ = ("_one",)

    def __init__(self, eps: float = 0.01) -> None:
        """An empty summary with error target ``eps``."""
        none = np.empty(0, dtype=self._RANK)
        self._one = SketchBatch(
            type(self),
            np.zeros(1, dtype=np.int64),
            np.full(1, _checked_eps(eps), dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=self._RANK),
            np.zeros(2, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            none,
            none,
        )

    @classmethod
    def _of(cls, one: "SketchBatch") -> "_Summary":
        """The summary ``one`` holds (feature 0; its entries may sit
        anywhere in the shared arrays)."""
        out = cls.__new__(cls)
        out._one = one
        return out

    @property
    def eps(self) -> float:
        """Target rank-error fraction."""
        return float(self._one.eps[0])

    @property
    def count(self) -> int:
        """Number of values summarized."""
        return int(self._one.counts[0])

    def __len__(self) -> int:
        lo, hi = self._one.bounds
        return int(hi - lo)

    def _entries(self) -> np.ndarray:
        if self.count == 0:
            raise SketchError("cannot query an empty sketch")
        lo, hi = self._one.bounds
        return self._one.values[lo:hi]

    @property
    def min_value(self) -> float:
        """Smallest value observed."""
        return float(self._entries()[0])

    @property
    def max_value(self) -> float:
        """Largest value observed."""
        return float(self._entries()[-1])

    def merge(self, other: "_Summary") -> "_Summary":
        """Return a new summary covering both inputs.

        A :meth:`SketchBatch.merge` of one summary a side: entries are
        interleaved by value keeping their weights; deltas are inflated
        by the partner sketch's uncertainty, so the merged rank error is
        bounded by ``self.eps * self.count + other.eps * other.count``
        (total weights, for weighted summaries) — i.e. the errors add,
        they do not multiply.
        """
        return self._one.merge(other._one)[0]

    def copy(self) -> "_Summary":
        """The same summary over entry arrays of its own."""
        return SketchBatch.concat((self._one,))[0]

    def query(self, quantile: float) -> float:
        """Return a value whose rank is within ``eps * n`` of ``quantile * n``
        (weighted rank and total weight, for weighted summaries)."""
        self._entries()
        if not 0.0 <= quantile <= 1.0:
            raise SketchError(f"quantile must be in [0, 1], got {quantile}")
        one = self._one
        live = np.zeros(1, dtype=np.int64)
        return float(one._answer(live, one.masses[:, None] * quantile)[0, 0])

    def quantiles(self, k: int) -> np.ndarray:
        """Return ``k`` evenly spaced interior quantiles (1/(k+1) .. k/(k+1))."""
        rows = self._one.quantiles(k)
        self._entries()
        return rows[0]


class GKSketch(_Summary):
    """Greenwald-Khanna quantile summary.

    On the wire ``g`` and ``delta`` travel as unsigned integers of the
    narrowest width their column needs (``delta`` not at all when it is
    all zero, as in every locally built summary).

    Attributes:
        eps: Target rank-error fraction.
        count: Number of values summarized.
    """

    __slots__ = ()
    _RANK = np.int64
    _WIRE_RANK = RANKS
    _WIRE_TAG = b"\x00"

    @staticmethod
    def _group_budget(total_g, groups: int) -> int:
        return max(1, int(math.ceil(int(total_g) / groups)))

    @staticmethod
    def _merge_errs(eps: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """What merging into a partner adds to its deltas, per summary."""
        return np.floor(2.0 * eps * masses).astype(np.int64)

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

    On the wire the total weight, ``g`` and ``delta`` keep float64
    (float32 where that is exact, nothing for an all-zero ``delta``).

    Attributes:
        eps: Target weighted-rank-error fraction.
        count: Number of items summarized.
        total_weight: Total weight summarized.
    """

    __slots__ = ()
    _RANK = np.float64
    _WIRE_RANK = FLOAT_RANKS
    _WIRE_TAG = b"\x01"

    @property
    def total_weight(self) -> float:
        """Total weight summarized."""
        return float(self._one.masses[0])

    @staticmethod
    def _group_budget(total_g, groups: int) -> float:
        return max(float(total_g) / groups, np.finfo(np.float64).tiny)

    @staticmethod
    def _merge_errs(eps: np.ndarray, masses: np.ndarray) -> np.ndarray:
        """What merging into a partner adds to its deltas, per summary."""
        return 2.0 * eps * masses

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


#: Leads every :class:`SketchBatch` frame: kind tag, number of summaries.
_FRAME_HEAD = struct.Struct("=Bi")


@dataclass(eq=False, slots=True)
class SketchBatch(Sequence):
    """One summary per listed feature, in ragged flat storage.

    Summary ``i`` speaks for feature ``features[i]`` and owns entries
    ``[bounds[i], bounds[i + 1])`` of the shared ``values`` / ``g`` /
    ``delta`` arrays — the layout :func:`sketch_columns` samples into, so
    a batch costs no per-feature object.  Indexing hands out a
    :class:`GKSketch` / :class:`WeightedGKSketch` view of one summary,
    sharing those arrays; no method writes into them.

    Attributes:
        kind: :class:`GKSketch` or :class:`WeightedGKSketch` — rank
            dtype, wire header and merge arithmetic of every summary.
        features: Strictly increasing int64 feature ids.
        eps, counts, masses: Per-summary error target, item count and
            total rank mass (``counts`` itself for unweighted summaries).
        bounds: int64, ``len(features) + 1`` entry offsets.
        values, g, delta: The summaries' entries, back to back.
    """

    kind: type
    features: np.ndarray
    eps: np.ndarray
    counts: np.ndarray
    masses: np.ndarray
    bounds: np.ndarray
    values: np.ndarray
    g: np.ndarray
    delta: np.ndarray

    @classmethod
    def from_sketches(
        cls, sketches: Sequence[AnySketch], features: Sequence[int] | None = None
    ) -> "SketchBatch":
        """Pack summaries of one kind, for ``features`` (increasing ids;
        default ``0 .. len - 1``)."""
        kind = type(sketches[0]) if len(sketches) else GKSketch
        if not (issubclass(kind, _Summary) and all(type(s) is kind for s in sketches)):
            raise SketchError("a sketch batch holds summaries of one kind")
        ids = np.arange(len(sketches)) if features is None else np.asarray(features)
        if ids.shape != (len(sketches),) or np.any(np.diff(ids) <= 0):
            raise SketchError("a sketch batch lists one increasing feature id per summary")
        if not len(sketches):
            return GKSketch()._one.span(0, 0)
        return cls.concat([s._one.shifted(int(f)) for s, f in zip(sketches, ids)])

    def __len__(self) -> int:
        return len(self.features)

    def __getitem__(self, i: int) -> AnySketch:
        if not -len(self) <= i < len(self):
            raise IndexError(f"summary {i} of a batch of {len(self)}")
        i %= len(self)
        return self.kind._of(self._rows(i, i + 1).shifted(-self.features[i]))

    def _rows(self, a: int, b: int) -> "SketchBatch":
        """Summaries ``a .. b - 1`` by position, sharing storage."""
        return replace(
            self,
            features=self.features[a:b],
            eps=self.eps[a:b],
            counts=self.counts[a:b],
            masses=self.masses[a:b],
            bounds=self.bounds[a : b + 1],
        )

    def shifted(self, offset: int) -> "SketchBatch":
        """The same summaries under feature ids ``features + offset``
        (a stripe's local columns as global features)."""
        return replace(self, features=self.features + offset)

    def span(self, lo: int, hi: int) -> "SketchBatch":
        """The summaries of features in ``[lo, hi)``, sharing storage."""
        return self._rows(*np.searchsorted(self.features, (lo, hi)))

    def _answer(self, live: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Entry values answering rank ``targets``: one row of targets per
        summary listed in ``live``, the answers in the same shape.

        Entry ``j`` answers target ``t`` when ``t <= rank_min[j] + slack``
        and ``t <= rank_max[j] + slack`` (``slack = eps * mass``); the
        summary's first such entry wins, its maximum if none does.
        ``rank_max = rank_min + delta`` with ``delta >= 0``, and float
        addition is monotone, so the second clause can never bind where
        the first holds: the answer is one segment-local bisection of
        every target over the segment-restarted ``rank_min + slack``.
        """
        k = targets.shape[1]
        slack = np.repeat(self.eps * self.masses, np.diff(self.bounds))
        lo, hi = self.bounds[0], self.bounds[-1]
        bound = segment_cumsum(self.g, self.bounds)
        bound[lo:hi] += slack
        each_lo, each_hi = (np.repeat(b[live], k) for b in (self.bounds[:-1], self.bounds[1:]))
        first = segment_searchsorted(bound, each_lo, each_hi, targets.ravel(), "left")
        return self.values[np.minimum(first, each_hi - 1)].reshape(targets.shape)

    def quantiles(self, k: int) -> np.ndarray:
        """``k`` evenly spaced interior quantiles (1/(k+1) .. k/(k+1)) of
        every non-empty summary, as rows (in batch order)."""
        if k < 1:
            raise SketchError(f"k must be >= 1, got {k}")
        live = np.flatnonzero(self.counts)
        qs = np.arange(1, k + 1, dtype=np.float64) / (k + 1)
        return self._answer(live, self.masses[live][:, None] * qs)

    # ------------------------------------------------------------------
    # wire frame (what push_sketch moves, one per partition; pull_sketches
    # moves candidate frames)
    # ------------------------------------------------------------------

    def to_frame(self) -> bytes:
        """Serialize, in the smallest form that parses back bit for bit.

        A 5-byte header (kind tag, summary count), then the columns, each
        in the shortest :mod:`~repro.sketch.wire` form it admits: feature
        ids (one first id when contiguous), entry counts, eps (one value
        when uniform), item counts, total weights (weighted only), then
        the entries — values (float32 when every value is exact there),
        ``g`` and ``delta`` (integer ranks in the narrowest unsigned
        width holding the column, float ranks as floats; an all-zero
        ``delta`` costs nothing).  Billed at its length.

        Raises:
            SketchError: A column no wire form holds (float counts).
        """
        kind, (lo, hi) = self.kind, self.bounds[[0, -1]]
        rank = kind._WIRE_RANK
        columns = [
            (self.features, IDS),
            (np.diff(self.bounds), COUNTS),
            (self.eps, UNIFORM_FLOATS),
            (self.counts, COUNTS),
        ]
        if kind is not GKSketch:
            columns.append((self.masses, FLOATS))
        columns += [
            (self.values[lo:hi], FLOATS),
            (self.g[lo:hi], rank),
            (self.delta[lo:hi], rank),
        ]
        return b"".join(
            (
                _FRAME_HEAD.pack(kind._WIRE_TAG[0], len(self)),
                *(piece for column, spec in columns for piece in pack(column, spec)),
            )
        )

    @classmethod
    def from_frame(cls, payload: bytes) -> "SketchBatch":
        """Inverse of :meth:`to_frame`, validated once for the whole frame.

        Columns that travelled in their in-memory dtype are read-only
        views of ``payload``; narrower ones are widened once.

        Raises:
            SketchError: Unknown kind tag or column form, a length that
                is not exactly what the header, forms and entry counts
                imply, feature ids that are negative or not strictly
                increasing, or summaries :func:`_check_summaries` rejects.
        """
        reader = FrameReader(payload, "sketch frame")
        tag, n = reader.struct(_FRAME_HEAD)
        kind = _WIRE_KINDS.get(tag)
        if kind is None:
            raise SketchError(f"unknown sketch wire tag {tag}")
        # Every summary pays at least a byte of entry count, and every
        # entry four bytes of value: no length outgrows the payload.
        if not 0 <= n <= reader.remaining():
            raise SketchError(
                f"sketch frame of {len(payload)} bytes cannot hold {n} summaries"
            )
        features = reader.column(n, IDS)
        sizes = reader.column(n, COUNTS)
        if np.any(sizes < 0) or np.any(sizes > reader.remaining()):
            raise SketchError("sketch frame lists an entry count it cannot hold")
        eps = reader.column(n, UNIFORM_FLOATS)
        counts = reader.column(n, COUNTS)
        masses = counts if kind is GKSketch else reader.column(n, FLOATS)
        bounds = np.concatenate(((0,), np.cumsum(sizes)))
        entries = int(bounds[-1])
        values = reader.column(entries, FLOATS)
        g = reader.column(entries, kind._WIRE_RANK)
        delta = reader.column(entries, kind._WIRE_RANK)
        reader.end()
        if np.any(features[:1] < 0) or np.any(np.diff(features) <= 0):
            raise SketchError("sketch frame features must be strictly increasing")
        _check_summaries(kind, eps, counts, masses, bounds, values, g, delta)
        return cls(kind, features, eps, counts, masses, bounds, values, g, delta)

    @classmethod
    def concat(cls, batches: Sequence["SketchBatch"]) -> "SketchBatch":
        """Join batches over disjoint, increasing feature ranges (the
        partitions of one pull); batches without summaries take no side."""
        batches = [batch for batch in batches if len(batch)] or list(batches[:1])
        kind = batches[0].kind
        if any(batch.kind is not kind for batch in batches):
            raise SketchError("cannot join sketch batches of different kinds")
        columns = {
            name: np.concatenate([getattr(batch, name) for batch in batches])
            for name in ("features", "eps", "counts", "masses")
        }
        if np.any(np.diff(columns["features"]) <= 0):
            raise SketchError("joined sketch batches must list increasing features")
        entries = {
            name: np.concatenate(
                [getattr(b, name)[b.bounds[0] : b.bounds[-1]] for b in batches]
            )
            for name in ("values", "g", "delta")
        }
        sizes = np.concatenate([np.diff(batch.bounds) for batch in batches])
        bounds = np.concatenate(((0,), np.cumsum(sizes)))
        return cls(kind=kind, bounds=bounds, **columns, **entries)

    # ------------------------------------------------------------------
    # merging (PS-side aggregation of a whole partition at once)
    # ------------------------------------------------------------------

    def merge(self, other: "SketchBatch") -> "SketchBatch":
        """Feature-wise :meth:`_Summary.merge` over the union of features.

        Bit for bit what merging summary by summary returns, ``self``
        first: a feature only one side lists passes through; an empty
        ``other`` summary leaves ``self``'s as it is; otherwise entries
        interleave under one stable ``(feature, value)`` ordering (self
        before other on ties), each side's deltas are inflated by the
        partner's merge error, the extremes are zeroed, and only the
        features that outgrew their entry cap go through
        :func:`_compress_merged`, one by one.
        """
        kind = self.kind
        if other.kind is not kind:
            raise SketchError(
                f"cannot merge {kind.__name__} with {other.kind.__name__}"
            )
        features = np.union1d(self.features, other.features)
        n = len(features)
        at_a = np.searchsorted(features, self.features)
        at_b = np.searchsorted(features, other.features)

        def spread(at: np.ndarray, column: np.ndarray) -> np.ndarray:
            out = np.zeros(n, dtype=column.dtype)
            out[at] = column
            return out

        size_a = spread(at_a, np.diff(self.bounds))
        size_b = spread(at_b, np.diff(other.bounds))
        count_a, count_b = spread(at_a, self.counts), spread(at_b, other.counts)
        mass_a, mass_b = spread(at_a, self.masses), spread(at_b, other.masses)
        eps_a, eps_b = spread(at_a, self.eps), spread(at_b, other.eps)
        only_b = np.ones(n, dtype=bool)
        only_b[at_a] = False
        # A feature only ``other`` lists arrives as it is.
        eps_a[only_b], mass_a[only_b] = eps_b[only_b], mass_b[only_b]
        eps = np.where(count_b == 0, eps_a, np.maximum(eps_a, eps_b))
        masses = np.where(
            count_b == 0, mass_a, np.where(count_a == 0, mass_b, mass_a + mass_b)
        )
        both = (count_a > 0) & (count_b > 0)

        owner_a = np.repeat(at_a, np.diff(self.bounds))
        owner_b = np.repeat(at_b, np.diff(other.bounds))
        (lo_a, hi_a), (lo_b, hi_b) = self.bounds[[0, -1]], other.bounds[[0, -1]]
        delta_a = self.delta[lo_a:hi_a].copy()
        delta_b = other.delta[lo_b:hi_b].copy()
        grows = both[owner_a]
        delta_a[grows] += kind._merge_errs(eps_b, mass_b)[owner_a[grows]]
        grows = both[owner_b]
        delta_b[grows] += kind._merge_errs(eps_a, mass_a)[owner_b[grows]]
        # The two-pointer interleave of every feature at once.  Both sides
        # are sorted by (feature, value) — the lexicographic order numpy
        # gives complex numbers — so an entry lands behind its own
        # predecessors and the partner's entries below it: strictly below
        # for ``self``, below or equal for ``other`` (self on ties).
        def keyed(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
            key = np.empty(len(owner), dtype=np.complex128)
            key.real, key.imag = owner, values
            return key

        key_a = keyed(owner_a, self.values[lo_a:hi_a])
        key_b = keyed(owner_b, other.values[lo_b:hi_b])
        to_a = np.arange(len(key_a)) + np.searchsorted(key_b, key_a, side="left")
        to_b = np.arange(len(key_b)) + np.searchsorted(key_a, key_b, side="right")

        def interleave(from_a: np.ndarray, from_b: np.ndarray) -> np.ndarray:
            out = np.empty(len(to_a) + len(to_b), dtype=from_a.dtype)
            out[to_a], out[to_b] = from_a, from_b
            return out

        values = interleave(self.values[lo_a:hi_a], other.values[lo_b:hi_b])
        g = interleave(self.g[lo_a:hi_a], other.g[lo_b:hi_b])
        delta = interleave(delta_a, delta_b)
        bounds = np.concatenate(((0,), np.cumsum(size_a + size_b)))
        # Extremes must carry zero delta for exact min/max queries.
        delta[bounds[:-1][both]] = 0
        delta[bounds[1:][both] - 1] = 0

        merged = SketchBatch(
            kind, features, eps, count_a + count_b, masses, bounds, values, g, delta
        )
        sizes = size_a + size_b
        # Keep roughly 3/eps entries a summary: GK's bound is
        # O(log(eps * n) / eps), but this fixed cap works well in practice.
        limit = (3.0 / eps).astype(np.int64) + 8
        outgrown = np.flatnonzero(both & (sizes > limit))
        if len(outgrown) == 0:
            return merged
        # Splice each compressed summary between the untouched stretches.
        wholes = (values, g, delta)
        spliced: tuple[list, list, list] = ([], [], [])
        cursor = 0
        for i in outgrown:
            a, b = bounds[i], bounds[i + 1]
            parts = _compress_merged(kind, int(limit[i]), values[a:b], g[a:b], delta[a:b])
            for pieces, whole, part in zip(spliced, wholes, parts):
                pieces += (whole[cursor:a], part)
            sizes[i] = len(parts[0])
            cursor = b
        values, g, delta = (
            np.concatenate((*pieces, whole[cursor:]))
            for pieces, whole in zip(spliced, wholes)
        )
        bounds = np.concatenate(((0,), np.cumsum(sizes)))
        return replace(merged, bounds=bounds, values=values, g=g, delta=delta)


def _compress_merged(
    kind: type, target: int, values: np.ndarray, g: np.ndarray, delta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One merged summary's entries, cut to about ``target`` while
    keeping the delta bounds.

    The extremes are kept verbatim; interior entries are grouped greedily
    so each group's total g stays within the budget (a group always takes
    at least one entry).  Group boundaries come from one searchsorted per
    group over the cumulative g — O(target log n) instead of a Python
    loop over every entry.
    """
    budget = kind._group_budget(g.sum(), max(1, target - 2))
    interior_g = g[1:-1]
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
    return (
        np.concatenate((values[:1], values[1:-1][last_of_group], values[-1:])),
        np.concatenate((g[:1], np.add.reduceat(interior_g, start_idx), g[-1:])),
        np.concatenate(
            (delta[:1], np.maximum.reduceat(delta[1:-1], start_idx), delta[-1:])
        ),
    )


def _sample_sorted(
    sorted_values: np.ndarray, bounds: np.ndarray, eps: float
) -> SketchBatch:
    """One sort-and-sample summary per ``bounds`` segment of presorted values.

    Segment of ``n`` values keeps positions ``0, step, 2*step, ...`` plus
    ``n - 1``, ``step = max(1, floor(2 * eps * n))`` — computed for every
    segment at once, straight into the batch's shared storage.
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
    return SketchBatch(
        GKSketch,
        np.arange(len(n), dtype=np.int64),
        np.full(len(n), eps, dtype=np.float64),
        n,
        n,
        np.concatenate(((0,), np.cumsum(kept))),
        values,
        g,
        np.zeros(len(pos), dtype=np.int64),
    )


def _sample_sorted_weighted(
    sorted_values: np.ndarray, weights: np.ndarray, bounds: np.ndarray, eps: float
) -> SketchBatch:
    """One weighted summary per ``bounds`` segment of presorted values.

    A segment of total weight ``W`` keeps its first and last value and
    the first value whose cumulative weight reaches each multiple of
    ``2 * eps * W``.  Segments with no weight summarize nothing.
    """
    eps = _checked_eps(eps)
    n_segments = len(bounds) - 1
    cum = segment_cumsum(weights, bounds)
    live = np.flatnonzero(np.diff(bounds) > 0)
    live = live[cum[bounds[1:][live] - 1] > 0.0]
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
    counts = np.zeros(n_segments, dtype=np.int64)
    counts[live] = hi - lo
    masses = np.zeros(n_segments, dtype=np.float64)
    masses[live] = total
    kept = np.zeros(n_segments, dtype=np.int64)
    kept[live] = np.bincount(segment[keep], minlength=len(live))
    return SketchBatch(
        WeightedGKSketch,
        np.arange(n_segments, dtype=np.int64),
        np.full(n_segments, eps, dtype=np.float64),
        counts,
        masses,
        np.concatenate(((0,), np.cumsum(kept))),
        sorted_values[at],
        g,
        np.zeros(len(at), dtype=np.float64),
    )


def sketch_columns(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    eps: float = 0.01,
) -> SketchBatch:
    """Build one GK summary per column of a CSR matrix in a single pass.

    Sorts all nonzeros by (column, value) with one stable sort and samples
    every column's sorted segment in one ragged pass — much faster than a
    Python loop over columns when the shard is already in memory.

    Args:
        indptr, indices, data: CSR arrays.  Column summaries only need the
            (column, value) pairs; ``indptr`` mirrors the matrix signature.
        n_cols: Number of columns (features).
        eps: Rank-error target of each summary.

    Returns:
        A batch of ``n_cols`` summaries, feature ``c`` for column ``c``;
        columns with no stored values get an empty one.
    """
    sorted_vals, bounds = sorted_column_values(indices, data, n_cols)
    return _sample_sorted(sorted_vals, bounds, eps)


def sketch_columns_weighted(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    n_cols: int,
    row_weights: np.ndarray,
    eps: float = 0.01,
) -> SketchBatch:
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
        A batch of ``n_cols`` summaries, feature ``c`` for column ``c``;
        columns with no stored values or no weight get an empty one.
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


AnySketch = GKSketch | WeightedGKSketch

#: Frame kind tag -> summary class.
_WIRE_KINDS = {cls._WIRE_TAG[0]: cls for cls in (GKSketch, WeightedGKSketch)}
