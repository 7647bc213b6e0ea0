"""Per-feature split candidates and the bucketization they induce.

Algorithm 1 line 2: "generate K split candidates S_m = {s_m1 ... s_mK}"
per feature, from percentiles of the feature distribution.  A
:class:`CandidateSet` stores, for every feature, an increasing array of
*cut values*; value ``v`` of feature ``f`` falls into bucket::

    bin(f, v) = #{cuts of f that are <= v}

so splitting at cut ``c`` sends ``v < c`` to the left child — matching the
paper's split predicate ("instances whose feature f is less than v to the
left child").  Each feature has at most ``K`` buckets (``K - 1`` interior
cuts); features with fewer distinct values get fewer buckets, but the
histogram layout always reserves ``K`` buckets per feature so the PS row
size is the paper's ``2 * K * M`` (Section 4.3).

The *zero bucket* of a feature — the bucket containing value 0.0, central
to the sparsity-aware builder of Algorithm 2 — is precomputed for all
features.

A run of consecutive features' cuts travels as one *candidate frame*
(:meth:`CandidateSet.to_frame`): what a server answers a PULL_SKETCH
request with.  Zero buckets stay off the wire; they follow from the cuts.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..errors import DataError, SketchError
from ..datasets.sparse import CSRMatrix
from .quantile import AnySketch, SketchBatch
from .ragged import segment_searchsorted, sorted_column_values
from .wire import FLOATS, FrameReader, pack, unsigned_dtype

#: Leads every candidate frame: the first global feature id and the
#: number of features.  A cut count per feature and the cuts follow.
_FRAME_HEAD = struct.Struct("=ii")


def candidate_frame_bytes(n_features: int, cuts: np.ndarray, max_bins: int) -> int:
    """Length of the candidate frame of ``n_features`` features holding
    ``cuts`` (all of them, back to back) under the bucket budget
    ``max_bins`` — also what a PULL_SKETCH reply is billed."""
    count_width = unsigned_dtype(max_bins - 1).itemsize
    _, payload = pack(np.asarray(cuts, dtype=np.float64), FLOATS)
    return _FRAME_HEAD.size + count_width * n_features + 1 + payload.nbytes


class CandidateSet:
    """Split-candidate cuts for all features, in ragged flat storage.

    Attributes:
        n_features: Number of features M.
        max_bins: Bucket budget K per feature.
        offsets: int64 array of length ``n_features + 1``; feature ``f``'s
            cuts live at ``cuts[offsets[f]:offsets[f+1]]``.
        cuts: float64 array of all cut values, strictly increasing within
            each feature.
        zero_bins: int32 array; ``zero_bins[f]`` is the bucket of value 0.
    """

    __slots__ = ("n_features", "max_bins", "offsets", "cuts", "zero_bins")

    def __init__(self, offsets: np.ndarray, cuts: np.ndarray, max_bins: int) -> None:
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        self.cuts = np.ascontiguousarray(cuts, dtype=np.float64)
        self.max_bins = int(max_bins)
        self.n_features = len(self.offsets) - 1
        if self.max_bins < 1:
            raise SketchError(f"max_bins must be >= 1, got {max_bins}")
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.cuts):
            raise SketchError("offsets must start at 0 and end at len(cuts)")
        counts = np.diff(self.offsets)
        if np.any(counts < 0):
            raise SketchError("offsets must be non-decreasing")
        if np.any(counts > self.max_bins - 1):
            raise SketchError(
                f"a feature has more than max_bins - 1 = {self.max_bins - 1} cuts"
            )
        self.zero_bins = self.bins_for(
            np.arange(self.n_features, dtype=np.int64),
            np.zeros(self.n_features, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def n_cuts(self, feature: int) -> int:
        """Number of interior cut values of ``feature``."""
        return int(self.offsets[feature + 1] - self.offsets[feature])

    def feature_cuts(self, feature: int) -> np.ndarray:
        """The increasing cut values of ``feature`` (view)."""
        if not 0 <= feature < self.n_features:
            raise DataError(f"feature {feature} out of range [0, {self.n_features})")
        return self.cuts[self.offsets[feature] : self.offsets[feature + 1]]

    def bin_of(self, feature: int, value: float) -> int:
        """Bucket index of a single (feature, value) pair."""
        return int(np.searchsorted(self.feature_cuts(feature), value, side="right"))

    def bins_for(self, features: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Vectorized bucket lookup for parallel (feature, value) arrays.

        One segment-local bisection over the flat ``cuts`` answers every
        pair at once: 6 rounds at most (cuts per feature <= max_bins - 1
        <= ~63 in practice), each confined to the pair's own feature.
        """
        features = np.asarray(features, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if features.shape != values.shape:
            raise DataError("features and values must have the same shape")
        starts = self.offsets[features]
        found = segment_searchsorted(
            self.cuts, starts, self.offsets[features + 1], values, "right"
        )
        return (found - starts).astype(np.int32)

    def feature_range(self, lo: int, hi: int) -> "CandidateSet":
        """The candidates of global features ``[lo, hi)``, rebased to 0.

        The column-stripe view block-distributed workers bucketize
        against: stripe feature ``f`` has exactly the cuts of global
        feature ``lo + f``, so stripe-local bucket ids (and zero buckets)
        match the global ones feature for feature.  The full range
        returns ``self`` (the C=1 grid column stays allocation-free).
        """
        if not 0 <= lo <= hi <= self.n_features:
            raise DataError(
                f"feature range [{lo}, {hi}) invalid for {self.n_features} "
                f"features"
            )
        if lo == 0 and hi == self.n_features:
            return self
        offsets = self.offsets[lo : hi + 1] - self.offsets[lo]
        cuts = self.cuts[self.offsets[lo] : self.offsets[hi]]
        return CandidateSet(offsets, cuts, self.max_bins)

    def split_value(self, feature: int, bucket: int) -> float:
        """Split threshold for "left = buckets 0..bucket" of ``feature``.

        The returned value ``c`` is the cut after ``bucket``; the split
        predicate is ``x < c`` goes left.
        """
        cuts = self.feature_cuts(feature)
        if not 0 <= bucket < len(cuts):
            raise DataError(
                f"bucket {bucket} has no right cut for feature {feature} "
                f"({len(cuts)} cuts)"
            )
        return float(cuts[bucket])

    @classmethod
    def concat(cls, parts: Sequence["CandidateSet"], max_bins: int) -> "CandidateSet":
        """The features of ``parts`` back to back (stripes or partition
        shares in feature order); a single part is returned as is."""
        if len(parts) == 1:
            return parts[0]
        counts = (np.diff(part.offsets) for part in parts)
        offsets = np.cumsum(np.concatenate([np.zeros(1, dtype=np.int64), *counts]))
        cuts = np.concatenate([np.empty(0, dtype=np.float64), *(p.cuts for p in parts)])
        return cls(offsets, cuts, max_bins)

    # ------------------------------------------------------------------
    # wire frame (what pull_sketches moves, one per partition share)
    # ------------------------------------------------------------------

    def to_frame(self, first: int) -> bytes:
        """Serialize these cuts as global features ``first, first + 1, ...``:
        header (first feature, feature count); the cut counts, unsigned
        in the narrowest width holding ``max_bins - 1`` (both sides know
        ``max_bins``, so no flag says which); then the cuts as one
        :mod:`~repro.sketch.wire` column, float32 when every cut is exact
        there — :func:`candidate_frame_bytes` long."""
        counts = np.diff(self.offsets).astype(unsigned_dtype(self.max_bins - 1))
        return b"".join(
            (
                _FRAME_HEAD.pack(first, self.n_features),
                counts,
                *pack(self.cuts, FLOATS),
            )
        )

    @classmethod
    def from_frame(
        cls, payload: bytes, max_bins: int, lo: int, hi: int
    ) -> "CandidateSet":
        """Inverse of :meth:`to_frame` for the frame of features
        ``[lo, hi)``, validated once for the whole frame; the features
        come back rebased to 0.

        Raises:
            SketchError: A frame that speaks for other features, a length
                that is not exactly what the header, cut counts and cut
                form imply, an unknown cut form, a count above
                ``max_bins - 1``, a NaN cut, or cuts not strictly
                increasing within a feature.
        """
        reader = FrameReader(payload, "candidate frame")
        first, n = reader.struct(_FRAME_HEAD)
        if (first, n) != (lo, hi - lo):
            raise SketchError(
                f"candidate frame for features [{first}, {first + n}) answers "
                f"a pull of [{lo}, {hi})"
            )
        counts = reader.raw(unsigned_dtype(max_bins - 1), n).astype(np.int64)
        if np.any((counts < 0) | (counts > max_bins - 1)):
            raise SketchError(
                f"candidate frame lists a cut count outside [0, {max_bins - 1}]"
            )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cuts = reader.column(int(offsets[-1]), FLOATS)
        reader.end()
        if np.isnan(cuts).any():
            raise SketchError("candidate frame carries a NaN cut")
        owner = np.repeat(np.arange(n), counts)
        if np.any((cuts[1:] <= cuts[:-1]) & (owner[1:] == owner[:-1])):
            raise SketchError(
                "candidate frame cuts must be strictly increasing within a feature"
            )
        return cls(offsets, cuts, max_bins)

    def __repr__(self) -> str:
        return (
            f"CandidateSet(n_features={self.n_features}, max_bins={self.max_bins}, "
            f"total_cuts={len(self.cuts)})"
        )


def _quantile_steps(span: np.ndarray, max_bins: int) -> np.ndarray:
    """``np.linspace(0, span[f], max_bins + 1)[1:-1]`` for every ``f``, as rows.

    linspace places point ``i`` at ``i * (span / max_bins)``; spelled out
    because its array form switches every column to another rounding as
    soon as one span is 0.
    """
    return (span / max_bins)[:, None] * np.arange(1, max_bins, dtype=np.float64)


def _assemble(
    raw: np.ndarray,
    zero_cut: np.ndarray,
    live: np.ndarray,
    n_features: int,
    max_bins: int,
) -> CandidateSet:
    """Strictly increasing cuts, at most ``max_bins - 1`` per feature.

    ``raw`` holds one non-decreasing row of ``max_bins - 1`` quantile
    values per ``live`` feature (the others get no cuts); rows flagged in
    ``zero_cut`` also get a cut at 0.0.
    """
    max_cuts = max_bins - 1
    # The zero cut rides in a spare last column (a repeat of the row's
    # maximum where there is none).  A stable sort files it behind any
    # zero already present, so of equal neighbours the first is kept:
    # np.unique's rule, -0.0 included.
    spare = np.where(zero_cut, 0.0, raw[:, -1])[:, None]
    rows = np.concatenate((raw, spare), axis=1)
    rows.sort(axis=1, kind="stable")
    keep = np.ones(rows.shape, dtype=bool)
    keep[:, 1:] = rows[:, 1:] != rows[:, :-1]
    # Only a zero cut on top of max_cuts distinct quantiles is over
    # budget; such rows keep evenly spaced cuts.
    thinned = np.zeros(max_cuts + 1, dtype=bool)
    thinned[np.linspace(0, max_cuts, max_cuts).astype(np.int64)] = True
    keep[keep.all(axis=1)] = thinned
    counts = np.zeros(n_features, dtype=np.int64)
    counts[live] = keep.sum(axis=1)
    offsets = np.zeros(n_features + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return CandidateSet(offsets, rows[keep], max_bins)


def _check_max_bins(max_bins: int) -> None:
    if max_bins < 2:
        raise SketchError(f"max_bins must be >= 2, got {max_bins}")


def propose_candidates(
    X: CSRMatrix, max_bins: int, include_zero_cut: bool = True
) -> CandidateSet:
    """Propose cuts from exact per-feature quantiles of the nonzero values.

    Single-machine path (also the ground truth the sketch path is tested
    against).  One stable sort of all nonzeros by (column, value) yields
    every feature's sorted values; ``max_bins - 1`` evenly spaced order
    statistics become the cuts.

    Args:
        X: Feature matrix.
        max_bins: Bucket budget K; at most ``K - 1`` cuts per feature.
        include_zero_cut: Also insert a cut at 0.0 (when it falls inside
            the feature's value range) so the zero bucket separates
            negatives from positives — this is what makes "zero bucket"
            semantics of Algorithm 2 exact for signed features.
    """
    _check_max_bins(max_bins)
    sorted_vals, bounds = sorted_column_values(X.indices, X.data, X.n_cols)
    live = np.flatnonzero(np.diff(bounds))
    lo, last = bounds[:-1][live], bounds[1:][live] - 1
    picks = np.round(_quantile_steps(last - lo, max_bins)).astype(np.int64)
    zero_cut = include_zero_cut & (sorted_vals[lo] < 0.0) & (0.0 < sorted_vals[last])
    return _assemble(
        sorted_vals[lo[:, None] + picks], zero_cut, live, X.n_cols, max_bins
    )


def propose_candidates_from_sketches(
    sketches: SketchBatch | Sequence[AnySketch],
    max_bins: int,
    include_zero_cut: bool = True,
) -> CandidateSet:
    """Propose cuts from (merged) GK sketches — the distributed path.

    The PULL_SKETCH phase runs it on the parameter servers: each server
    turns the merged summaries of every partition it hosts into at most
    ``max_bins - 1`` cuts per feature, once, and a worker pulls only the
    cuts of its own stripe — never the summaries.  ``sketches`` holds one
    summary per feature ``0 .. M - 1`` — a
    :class:`~repro.sketch.quantile.SketchBatch`, or a plain sequence of
    summaries, packed into one here — and every feature's quantiles are
    answered in one ragged pass.  Cuts are per feature, so proposing
    over partitions and joining the results (:meth:`CandidateSet.concat`)
    gives the whole batch's cuts bit for bit.
    """
    _check_max_bins(max_bins)
    if not isinstance(sketches, SketchBatch):
        sketches = SketchBatch.from_sketches(sketches)
    if not np.array_equal(sketches.features, np.arange(len(sketches))):
        raise SketchError("candidate proposal needs one summary per feature 0 .. M - 1")
    live = np.flatnonzero(sketches.counts)
    low = sketches.values[sketches.bounds[:-1][live]]
    high = sketches.values[sketches.bounds[1:][live] - 1]
    zero_cut = include_zero_cut & (low < 0.0) & (0.0 < high)
    return _assemble(
        sketches.quantiles(max_bins - 1), zero_cut, live, len(sketches), max_bins
    )
