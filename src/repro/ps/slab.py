"""Sparse histogram slabs: the block-distributed push wire format.

A row-sharded worker pushes a node's *dense* flat histogram — ``2 * K``
floats for every one of the ``M`` features, even features with no nonzero
in the node.  With 2-D sharding a worker holds only a feature stripe, and
most of its features are empty for most nodes, so the block-distributed
layout (PAPERS.md, arXiv:1904.10522) ships a *sparse slab* instead: only
the features with at least one nonzero among the node's rows travel, plus
the block's exact gradient sums ``(sum_g, sum_h)``.

The server can reconstruct an omitted feature's histogram bit-exactly
because Algorithm 2 gives it a closed form: all buckets zero except the
zero bucket, which holds exactly ``sum_g`` / ``sum_h`` (the builder
computes ``bincount - zsub + sum`` and both ``bincount`` and ``zsub`` are
empty sums for an absent feature).  :class:`SlabLayout` carries the
per-feature zero-bucket table the reconstruction needs.

Wire format of one partition's share of ``F`` stripe features, ``P`` of
them present (charged to the cost model, never actually serialized
here)::

    header: col_lo, col_hi, sum_g, sum_h          -> 16 bytes
    presence: a tag byte, then the smaller of     -> 1 + min(4P, ceil(F/8))
              P 4-byte ids and a bitmap of F bits
    per present feature: 2 * K float32 values     -> 8 * K bytes

A :class:`CompressedSlab` ships packed low-precision levels instead of the
float32 values; its docstring gives that format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compression.lowprec import (
    SUPPORTED_BITS,
    BlockCompressedHistogram,
    compress_blocked,
    decompress_blocked,
)
from ..errors import PSError

__all__ = [
    "SlabLayout",
    "SparseSlab",
    "CompressedSlab",
    "slab_from_flat",
    "compress_slab",
    "presence_bytes",
    "SLAB_HEADER_BYTES",
]

#: Bytes of the slab header: stripe range (2 ints) + sum_g/sum_h (2 floats).
SLAB_HEADER_BYTES = 16


def presence_bytes(n_present: int, n_features: int) -> int:
    """Bytes naming the ``n_present`` present features of a share of
    ``n_features``: a tag byte, then the smaller of their 4-byte ids and
    a ``ceil(n_features / 8)``-byte bitmap of the share's range."""
    return 1 + min(4 * n_present, -(-n_features // 8))


@dataclass(frozen=True)
class SlabLayout:
    """How a flat parameter row maps onto per-feature histograms.

    Registered once per parameter (alongside its partitioner) so servers
    can materialize slab contributions: feature ``f`` owns flat elements
    ``[f * 2 * n_bins, (f + 1) * 2 * n_bins)`` — ``n_bins`` gradient
    buckets then ``n_bins`` hessian buckets, the
    ``GradientHistogram.to_flat_feature_major`` layout.

    Attributes:
        n_features: Feature count M of the histogram row.
        n_bins: Bucket budget K per feature.
        zero_bins: int32 array; ``zero_bins[f]`` is feature ``f``'s zero
            bucket (where absent features' gradient sums fold).
    """

    n_features: int
    n_bins: int
    zero_bins: np.ndarray

    def __post_init__(self) -> None:
        if self.n_features < 1 or self.n_bins < 1:
            raise PSError(
                f"slab layout needs positive dims, got M={self.n_features} "
                f"K={self.n_bins}"
            )
        zero_bins = np.ascontiguousarray(self.zero_bins, dtype=np.int64)
        object.__setattr__(self, "zero_bins", zero_bins)
        if zero_bins.shape != (self.n_features,):
            raise PSError(
                f"zero_bins must have one entry per feature "
                f"({self.n_features}), got {zero_bins.shape}"
            )
        if np.any(zero_bins < 0) or np.any(zero_bins >= self.n_bins):
            raise PSError("zero_bins entries must lie in [0, n_bins)")

    def fold_sums(
        self,
        values: np.ndarray,
        features: np.ndarray | slice,
        sum_g: float,
        sum_h: float,
        sign: float = 1.0,
    ) -> None:
        """Add ``sign * sum_g`` / ``sign * sum_h`` in place at the zero
        buckets of every feature segment in ``values``.

        ``values`` has one ``2 * K`` row per feature of ``features``
        (ids or a slice of them).  Algorithm 2 folds a node's exact sums
        into every zero bucket; a lossy encode takes them out
        (``sign=-1.0``) so the codec sees only the residual, and the
        decode puts them back — for dense row pieces and slabs alike.
        """
        zero_bins = self.zero_bins[features]
        width = self.feature_width
        # Flat slots in ``values``: a gather and a scatter per half take
        # about half the time of a two-index fancy update.
        slots = np.arange(0, len(zero_bins) * width, width) + zero_bins
        values.put(slots, values.take(slots) + sign * sum_g)
        slots += self.n_bins
        values.put(slots, values.take(slots) + sign * sum_h)

    @property
    def feature_width(self) -> int:
        """Flat elements per feature: ``2 * n_bins``."""
        return 2 * self.n_bins

    @property
    def row_length(self) -> int:
        """Total flat row length ``2 * K * M``."""
        return self.feature_width * self.n_features

    def check_slab(self, slab: "SparseSlab | CompressedSlab") -> None:
        """Reject a slab whose header does not fit this layout.

        What a slab cannot check about itself: that its stripe lies inside
        the row, that it was cut for this ``K``, and — for a compressed
        payload — that no scale block straddles two features, which is
        what lets a partition decode the features it hosts and no others.
        """
        if slab.col_hi > self.n_features:
            raise PSError(
                f"slab stripe [{slab.col_lo}, {slab.col_hi}) exceeds the "
                f"layout's {self.n_features} features"
            )
        compressed = isinstance(slab, CompressedSlab)
        width = 2 * slab.n_bins if compressed else slab.values.shape[1]
        if width != self.feature_width:
            raise PSError(
                f"slab carries {width} values per feature, the layout's "
                f"K={self.n_bins} needs {self.feature_width}"
            )
        if compressed and width % slab.blocked.block_size:
            raise PSError(
                f"compression block {slab.blocked.block_size} does not divide "
                f"the feature width {width}"
            )


def _check_header(
    col_lo: int, col_hi: int, features: np.ndarray, sum_g: float, sum_h: float
) -> None:
    """What every slab header must satisfy, whatever its payload."""
    if not 0 <= col_lo <= col_hi:
        raise PSError(f"invalid slab stripe [{col_lo}, {col_hi})")
    if features.ndim != 1:
        raise PSError("slab features must be 1-D")
    if len(features) > 0:
        if np.any(np.diff(features) <= 0):
            raise PSError("slab features must be strictly increasing")
        if features[0] < col_lo or features[-1] >= col_hi:
            raise PSError(
                f"slab features must lie in the stripe [{col_lo}, {col_hi})"
            )
    if not (np.isfinite(sum_g) and np.isfinite(sum_h)):
        raise PSError(f"slab sums must be finite, got ({sum_g}, {sum_h})")


@dataclass(frozen=True)
class SparseSlab:
    """One block's sparse histogram push for one tree node.

    Attributes:
        col_lo, col_hi: The block's feature stripe ``[col_lo, col_hi)``
            in *global* feature ids.  The slab speaks only for these
            features: within the stripe, listed features carry their
            values and omitted features are reconstructed from the sums;
            outside the stripe the slab contributes nothing.
        features: Sorted int64 array of global feature ids (within the
            stripe) that have at least one nonzero among the node's rows.
        values: float64 array of shape ``(len(features), 2 * K)`` —
            each present feature's feature-major flat histogram segment.
        sum_g, sum_h: The block's exact node gradient sums, computed with
            the same expression as the histogram builder
            (``float(grad[rows].sum())``) so reconstruction is bitwise.
    """

    col_lo: int
    col_hi: int
    features: np.ndarray
    values: np.ndarray
    sum_g: float
    sum_h: float

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.int64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "values", values)
        _check_header(self.col_lo, self.col_hi, features, self.sum_g, self.sum_h)
        if values.ndim != 2 or values.shape[0] != len(features):
            raise PSError(
                f"slab values shape {values.shape} does not match "
                f"{len(features)} features"
            )

    @property
    def n_present(self) -> int:
        """Number of features actually carried."""
        return len(self.features)

    def wire_bytes_for(self, f_lo: int, f_hi: int) -> int:
        """Wire size of this slab's share for features ``[f_lo, f_hi)``.

        One header, the present features of the share's part of the
        stripe as ids or a bitmap (:func:`presence_bytes`), and each
        present feature's ``2 * K`` float32 values.  Zero when the range
        misses the stripe entirely (no message is sent there).
        """
        lo = max(f_lo, self.col_lo)
        hi = min(f_hi, self.col_hi)
        if lo >= hi:
            return 0
        present = int(
            np.searchsorted(self.features, hi, side="left")
            - np.searchsorted(self.features, lo, side="left")
        )
        values = present * self.values.shape[1] * 4
        return SLAB_HEADER_BYTES + presence_bytes(present, hi - lo) + values

    @property
    def wire_bytes(self) -> int:
        """Total wire size of the slab (single-message accounting)."""
        return self.wire_bytes_for(self.col_lo, self.col_hi)


@dataclass(frozen=True)
class CompressedSlab:
    """A sparse slab whose value payload rides the low-precision codec.

    The carried features' ``2 * K`` float64 segments are quantized with
    the Section 6.1 stochastic-rounding codec (block-wise scales, so one
    feature's large buckets cannot drown another's small ones).  The
    header — stripe range, exact ``sum_g`` / ``sum_h``, and the present
    feature ids — stays exact, which matters twice: absent features are
    reconstructed from the sums with *no* quantization at all, and the
    zero-bucket fold (an O(N)-mass entry in every present feature) is
    subtracted before encoding and re-added exactly on the server, so the
    codec only sees the small per-bucket residuals.

    Wire format of one partition's share of ``F`` stripe features, ``P``
    of them present (charged to the cost model, never serialized here)::

        header: col_lo, col_hi, sum_g, sum_h            -> 16 bytes
        presence: as in :class:`SparseSlab`             -> 1 + min(4P, ceil(F/8))
        per present feature: one float32 scale per
                             block of ``block_size``    -> (2K/bs) * 4
        the share's n = present * 2K levels, in whichever form is
        smaller (ties: dense; the length says which):
          dense:  n packed d-bit levels                 -> ceil(n*d/8)
          masked: bitmap, one bit per level, set where
                  the level is nonzero                  -> ceil(n/8)
                  then the nnz nonzero levels, packed   -> + ceil(nnz*d/8)

    :func:`repro.cluster.costmodel.compressed_slab_bytes` bills every
    present feature an id and its levels densely: the upper bound of
    this bill, reached when ids are the smaller presence form and no
    level is 0 (and, at 2 bits with odd ``K``, no feature ends
    mid-byte).

    Attributes:
        col_lo, col_hi: The stripe, as in :class:`SparseSlab`.
        features: Sorted int64 global feature ids carried.
        blocked: The packed payload + per-block scales over all carried
            segments (zero-bucket folds removed), in feature order.
        sum_g, sum_h: The block's exact node gradient sums (uncompressed).
        n_bins: Bucket budget K.

    The carried features' zero buckets are not a field: they are not on
    the billed wire, and the decoding side reads them off the
    :class:`SlabLayout` it registered (what :func:`compress_slab`
    subtracted at).
    """

    col_lo: int
    col_hi: int
    features: np.ndarray
    blocked: BlockCompressedHistogram
    sum_g: float
    sum_h: float
    n_bins: int

    def __post_init__(self) -> None:
        features = np.ascontiguousarray(self.features, dtype=np.int64)
        object.__setattr__(self, "features", features)
        _check_header(self.col_lo, self.col_hi, features, self.sum_g, self.sum_h)
        width = 2 * self.n_bins
        if self.n_bins < 1 or self.blocked.n_values != len(features) * width:
            raise PSError(
                f"compressed payload carries {self.blocked.n_values} values; "
                f"{len(features)} features with {self.n_bins} bins need "
                f"{len(features) * width}"
            )

    @property
    def bits(self) -> int:
        """Fixed-point width of the value payload."""
        return self.blocked.bits

    @property
    def n_present(self) -> int:
        """Number of features actually carried."""
        return len(self.features)

    def wire_bytes_for(self, f_lo: int, f_hi: int) -> int:
        """Wire size of this slab's share for features ``[f_lo, f_hi)``.

        Mirrors :meth:`SparseSlab.wire_bytes_for` with the float32 value
        segment replaced by the share's levels — one message, billed in
        the dense or the zero-level bitmap form, whichever is smaller
        (:meth:`~repro.compression.lowprec.BlockCompressedHistogram.payload_bytes`)
        — plus their scales.
        """
        lo = max(f_lo, self.col_lo)
        hi = min(f_hi, self.col_hi)
        if lo >= hi:
            return 0
        first, last = (int(i) for i in np.searchsorted(self.features, [lo, hi]))
        width = 2 * self.n_bins
        present = last - first
        payload = self.blocked.payload_bytes(first * width, last * width)
        scales = present * (width // self.blocked.block_size) * 4
        return SLAB_HEADER_BYTES + presence_bytes(present, hi - lo) + payload + scales

    @property
    def wire_bytes(self) -> int:
        """Total wire size of the slab (single-message accounting)."""
        return self.wire_bytes_for(self.col_lo, self.col_hi)

    def decode(
        self, layout: SlabLayout, first: int = 0, last: int | None = None
    ) -> np.ndarray:
        """The value segments of carried features ``[first, last)``.

        Server-side and rng-free: the stochastic rounding happened at
        encode time, so every partition decoding its share of the same
        slab — and a retried delivery — reconstructs the floats a full
        decode holds there.  Scale blocks never straddle a feature
        (:meth:`SlabLayout.check_slab`), so only the listed features'
        blocks are unpacked; their exact zero-bucket folds are re-added.
        """
        layout.check_slab(self)
        width = 2 * self.n_bins
        if last is None:
            last = len(self.features)
        values = decompress_blocked(
            self.blocked, first * width, last * width
        ).reshape(last - first, width)
        layout.fold_sums(values, self.features[first:last], self.sum_g, self.sum_h)
        return values

    def to_sparse(self, layout: SlabLayout) -> SparseSlab:
        """Decode the whole slab into a :class:`SparseSlab`."""
        return SparseSlab(
            col_lo=self.col_lo,
            col_hi=self.col_hi,
            features=self.features,
            values=self.decode(layout),
            sum_g=self.sum_g,
            sum_h=self.sum_h,
        )


def compress_slab(
    slab: SparseSlab,
    layout: SlabLayout,
    bits: int,
    rng: np.random.Generator,
    block_size: int | None = None,
) -> CompressedSlab:
    """Quantize a slab's value payload for the wire.

    The zero-bucket folds (``sum_g`` / ``sum_h``, already exact in the
    header) are subtracted from every carried feature before encoding —
    they carry O(N) mass and would otherwise dominate every scale —
    and re-added exactly by :meth:`CompressedSlab.decode`.

    Args:
        slab: The sparse slab to compress.
        layout: The parameter's histogram layout (zero-bucket table).
        bits: Fixed-point width, one of ``SUPPORTED_BITS``.
        rng: Stochastic-rounding dither source.  Compression happens once
            per slab, *before* fan-out to partitions, so the rounding
            stream is independent of the partition layout.
        block_size: Values per fixed-point scale; defaults to ``n_bins``
            (one scale per g-histogram and one per h-histogram).
    """
    if bits not in SUPPORTED_BITS:
        raise PSError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    width = layout.feature_width
    block = layout.n_bins if block_size is None else int(block_size)
    if block < 1 or width % block != 0:
        raise PSError(
            f"compression block {block} must divide the feature width {width}"
        )
    residual = slab.values.copy()
    layout.fold_sums(residual, slab.features, slab.sum_g, slab.sum_h, sign=-1.0)
    blocked = compress_blocked(residual.ravel(), block, bits, rng)
    return CompressedSlab(
        col_lo=slab.col_lo,
        col_hi=slab.col_hi,
        features=slab.features,
        blocked=blocked,
        sum_g=slab.sum_g,
        sum_h=slab.sum_h,
        n_bins=layout.n_bins,
    )


def slab_from_flat(
    flat: np.ndarray,
    present: np.ndarray,
    col_lo: int,
    col_hi: int,
    n_bins: int,
    sum_g: float,
    sum_h: float,
) -> SparseSlab:
    """Wrap the present features' flat segments as a slab, without a copy.

    Args:
        flat: Exactly the listed features' ``2 * K`` segments, in order
            (feature-major: ``K`` gradient buckets then ``K`` hessian
            buckets each) — ``len(present) * 2 * K`` float64 values.
        present: Sorted stripe-local ids of the features ``flat`` holds.
        col_lo, col_hi: Global feature range of the stripe.
        n_bins: Bucket budget K.
        sum_g, sum_h: The block's exact node gradient sums.
    """
    width = 2 * n_bins
    flat = np.asarray(flat, dtype=np.float64)
    present = np.asarray(present, dtype=np.int64)
    if flat.size != len(present) * width:
        raise PSError(
            f"flat has {flat.size} values; {len(present)} present features "
            f"with {n_bins} bins need {len(present) * width}"
        )
    return SparseSlab(
        col_lo=col_lo,
        col_hi=col_hi,
        features=present + col_lo,
        values=flat.reshape(len(present), width),
        sum_g=sum_g,
        sum_h=sum_h,
    )
