"""Pre-bucketized data shards.

Algorithm 2 calls ``indexOf(f, v)`` for every nonzero on every histogram
build.  The bucket of a (feature, value) pair never changes within a
training run, so a :class:`BinnedShard` performs all lookups once, up
front, and stores for each nonzero its feature id and bucket id.  Builders
then reduce to weighted ``bincount`` calls over precomputed flat slots.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError
from ..datasets.sparse import CSRMatrix
from ..sketch.candidates import CandidateSet


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate integer ranges ``[starts[i], starts[i]+counts[i])``.

    Fully vectorized (no per-range Python loop); the workhorse for
    gathering the nonzero positions of a set of rows.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise DataError("starts and counts must have the same shape")
    if counts.size and counts.min() < 0:
        raise DataError(f"negative range length {int(counts.min())}")
    ends = counts.cumsum()
    # Output index k of range i holds starts[i] + (k - first index of i).
    out = np.repeat(starts - (ends - counts), counts)
    out += np.arange(len(out), dtype=np.int64)
    return out


class BinnedShard:
    """A worker's data shard with nonzeros mapped to histogram buckets.

    Attributes:
        indptr: CSR row pointers of the shard (view of the source matrix).
        features: Feature id of each nonzero (the CSR ``indices``).
        bins: Bucket id of each nonzero under the candidate cuts.
        slots: ``features * n_bins + bins`` — flat histogram slot of each
            nonzero, precomputed for weighted-bincount builds.
        row_of: Row id of each nonzero.
        zero_bins: Bucket of value 0.0 for every feature.
        zero_slots: Flat slot of the zero bucket for every feature.
        column_order: Nonzero positions sorted by (feature, position) —
            the shard's column-major order, int32 where the positions fit.
        column_bounds: Feature ``f`` owns
            ``column_order[column_bounds[f]:column_bounds[f + 1]]``.
        feature_arange: Cached ``arange(n_features)``, the row index of
            every per-feature settle/update step.
        n_rows, n_features, n_bins: Layout.
    """

    __slots__ = (
        "indptr",
        "features",
        "bins",
        "slots",
        "row_of",
        "zero_bins",
        "zero_slots",
        "column_order",
        "column_bounds",
        "feature_arange",
        "n_rows",
        "n_features",
        "n_bins",
    )

    def __init__(self, X: CSRMatrix, candidates: CandidateSet) -> None:
        if X.n_cols != candidates.n_features:
            raise DataError(
                f"matrix has {X.n_cols} features but candidates cover "
                f"{candidates.n_features}"
            )
        self.indptr = X.indptr
        self.features = X.indices.astype(np.int64)
        self.bins = candidates.bins_for(self.features, X.data)
        self.n_rows = X.n_rows
        self.n_features = X.n_cols
        self.n_bins = candidates.max_bins
        self.slots = self.features * self.n_bins + self.bins.astype(np.int64)
        self.row_of = np.repeat(np.arange(self.n_rows, dtype=np.int64), X.row_nnz())
        self.zero_bins = candidates.zero_bins.astype(np.int64)
        self.feature_arange = np.arange(self.n_features, dtype=np.int64)
        self.zero_slots = self.feature_arange * self.n_bins + self.zero_bins
        self.column_order, self.column_bounds = self._column_order()

    def _column_order(self) -> tuple[np.ndarray, np.ndarray]:
        """Sort the nonzeros by (feature, position) and reject repeats.

        One value sort of the key ``feature << shift | position`` (keys
        are distinct, so no stable argsort is needed) — SPLIT_TREE reads
        one feature's rows from it instead of gathering every nonzero of
        the node.  A row that lists a column twice is the one input on
        which a column lookup is ambiguous; :meth:`CSRMatrix.from_rows`
        and the LibSVM loader reject it, the raw constructor does not.
        """
        shift = np.uint64(max(self.nnz - 1, 1).bit_length())
        keys = self.features.astype(np.uint64) << shift
        keys |= np.arange(self.nnz, dtype=np.uint64)
        keys.sort()
        columns = keys >> shift
        keys &= (np.uint64(1) << shift) - np.uint64(1)
        fits = self.nnz <= np.iinfo(np.int32).max
        order = keys.astype(np.int32 if fits else np.int64)
        bounds = np.searchsorted(
            columns, np.arange(self.n_features + 1, dtype=np.uint64)
        )
        # Positions ascend within a column, and so do their rows: a
        # repeated (row, feature) pair sits in adjacent entries.
        rows = self.row_of[order]
        repeats = rows[1:] == rows[:-1]
        repeats &= columns[1:] == columns[:-1]
        if repeats.any():
            at = int(np.flatnonzero(repeats)[0])
            raise DataError(
                f"row {int(rows[at])} lists feature {int(columns[at])} "
                "more than once"
            )
        return order, bounds

    @property
    def nnz(self) -> int:
        """Number of nonzeros in the shard."""
        return len(self.features)

    def positions_of_rows(self, rows: np.ndarray) -> np.ndarray:
        """Flat nonzero positions of the given rows, in row order."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size:
            low, high = int(rows.min()), int(rows.max())
            if low < 0 or high >= self.n_rows:
                bad = low if low < 0 else high
                raise DataError(f"row id {bad} outside [0, {self.n_rows})")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        return concat_ranges(starts, counts)

    def split_mask(self, rows: np.ndarray, feature: int, bucket: int) -> np.ndarray:
        """Which of ``rows`` go left under "buckets 0..bucket of feature".

        A row goes left iff its bucket for ``feature`` is at most
        ``bucket``; rows where the feature is absent use the zero bucket —
        the same rule the histograms encode, so tree splitting
        (SPLIT_TREE) partitions instances exactly as FIND_SPLIT counted
        them.  The answer is laid out for every shard row — default side,
        then the rows of the feature's column — and read at ``rows``:
        O(shard rows + nonzeros of the feature), whatever the node holds.
        """
        if not 0 <= feature < self.n_features:
            raise DataError(
                f"feature {feature} out of range [0, {self.n_features})"
            )
        goes_left = np.full(self.n_rows, self.zero_bins[feature] <= bucket, dtype=bool)
        column = self.column_order[
            self.column_bounds[feature] : self.column_bounds[feature + 1]
        ]
        goes_left[self.row_of[column]] = self.bins[column] <= bucket
        return goes_left[np.asarray(rows, dtype=np.int64)]

    def __repr__(self) -> str:
        return (
            f"BinnedShard(n_rows={self.n_rows}, n_features={self.n_features}, "
            f"n_bins={self.n_bins}, nnz={self.nnz})"
        )
