"""Fixed-point histogram codec with stochastic rounding.

For each value ``q`` in a histogram whose maximum absolute value is
``c``, the encoder computes::

    q' = floor(q / |c| * S + u),   u ~ Uniform[0, 1)

with integer scale ``S = 2**(d-1) - 1``, so ``q'`` fits in a signed
``d``-bit integer.  The uniform dither makes the decoder output
``q'' = q' / S * |c|`` an *unbiased* estimate of ``q`` — the paper's
Bernoulli-correction formulation (Section 6.1) is the same estimator.
The absolute error is bounded by ``|c| / S``.

Wire layout: a 4-byte float carrying ``|c|`` followed by the ``d``-bit
payload.  For ``d`` in {2, 4} the integers are genuinely bit-packed (two
or four per byte); ``d`` = 8 and 16 use native int8/int16 arrays.

A block frame (:class:`BlockCompressedHistogram`, the one the parameter
servers carry) is billed per message at the smaller of its dense packed
levels and a zero-level bitmap plus the packed nonzero levels
(:meth:`BlockCompressedHistogram.payload_bytes`); the single-scale frame
of :func:`compress_flat` keeps the dense bill.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

#: Bit widths the codec supports.
SUPPORTED_BITS = (2, 4, 8, 16)


@dataclass(frozen=True)
class CompressedHistogram:
    """A quantized flat histogram as it travels on the wire.

    Attributes:
        payload: The packed integer payload (uint8 buffer).
        scale_max: ``|c|``, the maximum absolute input value.
        bits: Fixed-point width ``d``.
        n_values: Number of encoded values.
    """

    payload: np.ndarray
    scale_max: float
    bits: int
    n_values: int

    def __post_init__(self) -> None:
        _check_payload(self.payload, self.bits, self.n_values)
        if not 0.0 <= self.scale_max < np.inf:
            raise DataError(f"scale_max must be finite and >= 0, got {self.scale_max}")

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire: payload plus the 4-byte scale."""
        return int(self.payload.nbytes) + 4

    @property
    def compression_ratio(self) -> float:
        """Uncompressed float32 bytes divided by wire bytes."""
        raw = 4 * self.n_values
        return raw / self.wire_bytes if self.wire_bytes else 0.0


def _int_scale(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _check_payload(payload: np.ndarray, bits: int, n_values: int) -> None:
    """A frame's payload must be exactly what ``bits`` and ``n_values`` imply."""
    if bits not in SUPPORTED_BITS:
        raise DataError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    if n_values < 0:
        raise DataError(f"n_values must be >= 0, got {n_values}")
    if payload.dtype != np.uint8 or payload.ndim != 1:
        raise DataError("payload must be a 1-D uint8 buffer")
    expected = -(-n_values * bits // 8)
    if len(payload) != expected:
        raise DataError(
            f"payload has {len(payload)} bytes; {n_values} values at "
            f"{bits} bits need {expected}"
        )


def _pack(levels: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``bits``-wide integers into a uint8 buffer."""
    if bits == 8:
        return levels.astype(np.uint8, copy=False)
    if bits == 16:
        return levels.astype(np.uint16, copy=False).view(np.uint8)
    per_byte = 8 // bits
    padded_len = -(-len(levels) // per_byte) * per_byte
    padded = np.zeros(padded_len, dtype=np.uint8)
    padded[: len(levels)] = levels
    packed = np.zeros(padded_len // per_byte, dtype=np.uint8)
    for j in range(per_byte):
        packed |= padded[j::per_byte] << (bits * j)
    return packed


def _unpack(payload: np.ndarray, bits: int, stop: int, start: int = 0) -> np.ndarray:
    """Inverse of :func:`_pack`: the unsigned levels ``[start, stop)``, as
    a fresh float64 array (exact — a level is below ``2**16``) the
    decoders scale in place.  Sub-byte widths unpack only the bytes that
    cover the range, whether or not it starts on a byte."""
    if bits == 8:
        return payload[start:stop].astype(np.float64)
    if bits == 16:
        return payload.view(np.uint16)[start:stop].astype(np.float64)
    per_byte = 8 // bits
    mask = (1 << bits) - 1
    first_byte = start // per_byte
    covering = payload[first_byte : -(-stop // per_byte)]
    levels = np.empty(len(covering) * per_byte, dtype=np.float64)
    for j in range(per_byte):
        levels[j::per_byte] = (covering >> (bits * j)) & mask
    skipped = first_byte * per_byte
    return levels[start - skipped : stop - skipped]


def compress_flat(
    flat: np.ndarray, bits: int, rng: np.random.Generator
) -> CompressedHistogram:
    """Quantize a flat float histogram to ``bits``-wide fixed point.

    Args:
        flat: Histogram values (any float dtype, 1-D).
        bits: Width ``d``; one of ``SUPPORTED_BITS``.
        rng: Source of the stochastic-rounding dither.

    Returns:
        The wire representation.

    Raises:
        DataError: For unsupported widths, non-1-D input, or non-finite
            values.
    """
    if bits not in SUPPORTED_BITS:
        raise DataError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise DataError(f"compress_flat expects a 1-D array, got ndim={flat.ndim}")
    if not np.all(np.isfinite(flat)):
        raise DataError("histogram contains non-finite values")
    scale_max = float(np.max(np.abs(flat))) if flat.size else 0.0
    n_values = len(flat)
    if scale_max == 0.0:
        return CompressedHistogram(
            payload=_pack(np.zeros(n_values, dtype=np.int64), bits),
            scale_max=0.0,
            bits=bits,
            n_values=n_values,
        )
    scale = _int_scale(bits)
    dither = rng.random(n_values)
    # floor(t + u) with u ~ U[0, 1) is stochastic rounding: it equals
    # ceil(t) with probability frac(t) and floor(t) otherwise, so its
    # expectation is exactly t.  No post-hoc bias correction is needed.
    encoded = np.floor(flat / scale_max * scale + dither).astype(np.int64)
    np.clip(encoded, -scale, scale, out=encoded)
    # Shift to unsigned for packing: levels in [0, 2 * scale].
    levels = encoded + scale
    return CompressedHistogram(
        payload=_pack(levels, bits), scale_max=scale_max, bits=bits, n_values=n_values
    )


@dataclass(frozen=True)
class BlockCompressedHistogram:
    """A quantized flat histogram with one fixed-point scale per block.

    Section 1 frames a worker's summary as "M gradient histograms" — one
    per feature — and Section 6.1 scales each histogram by *its* maximal
    absolute item ``c``.  Block-wise scaling implements exactly that:
    with ``block_size = n_bins`` every feature's g-histogram and
    h-histogram gets its own scale, so a popular feature's large buckets
    cannot drown a rare feature's small ones in quantization noise.

    Attributes:
        payload: Packed integer payload (uint8 buffer) over all blocks.
        scales: float32 array, one ``|c|`` per block.
        bits: Fixed-point width d.
        n_values: Total number of encoded values.
        block_size: Values per block.
    """

    payload: np.ndarray
    scales: np.ndarray
    bits: int
    n_values: int
    block_size: int

    def __post_init__(self) -> None:
        _check_payload(self.payload, self.bits, self.n_values)
        if self.block_size < 1 or self.n_values % self.block_size != 0:
            raise DataError(
                f"{self.n_values} values do not split into blocks of "
                f"{self.block_size}"
            )
        n_blocks = self.n_values // self.block_size
        if self.scales.shape != (n_blocks,):
            raise DataError(
                f"{n_blocks} blocks need {n_blocks} scales, got shape "
                f"{self.scales.shape}"
            )
        # min/max propagate NaN, and a comparison with NaN is false.
        if n_blocks and not (self.scales.min() >= 0.0 and self.scales.max() < np.inf):
            raise DataError("block scales must be finite and >= 0")

    def payload_bytes(self, start: int = 0, stop: int | None = None) -> int:
        """Billed bytes of the levels ``[start, stop)`` (block-aligned;
        default: all), as one message: the smaller of two forms.

        * dense: the packed levels, ``ceil(n * d / 8)`` bytes;
        * masked: a bitmap with one bit per value, set where the level is
          nonzero, then the packed nonzero levels —
          ``ceil(n / 8) + ceil(nnz * d / 8)`` bytes.

        A zero input always quantizes to level 0 (``floor(0 + u) = 0``),
        so the masked form wins wherever the histogram is mostly empty
        buckets.  Ties go to the dense form, so a message's length alone
        tells the receiver which form it carries.  The frame keeps the
        dense levels either way: only the bill depends on the form.
        """
        start, stop = self._check_range(start, stop)
        n = stop - start
        dense = -(-n * self.bits // 8)
        zero = _int_scale(self.bits)  # signed level 0, stored shifted
        if self.bits == 8:
            levels = self.payload[start:stop]
        elif self.bits == 16:
            levels = self.payload.view(np.uint16)[start:stop]
        else:
            levels = _unpack(self.payload, self.bits, stop, start)
        nonzero = n - int(np.count_nonzero(levels == zero))
        return min(dense, -(-n // 8) + -(-nonzero * self.bits // 8))

    def _check_range(self, start: int, stop: int | None) -> tuple[int, int]:
        """``(start, stop)`` with ``stop`` defaulted, or a ``DataError`` if
        the range is not block-aligned within the frame."""
        block = self.block_size
        if stop is None:
            stop = self.n_values
        if not 0 <= start <= stop <= self.n_values or start % block or stop % block:
            raise DataError(
                f"range [{start}, {stop}) must be block-aligned (block "
                f"{block}) within {self.n_values} values"
            )
        return start, stop

    @property
    def wire_bytes(self) -> int:
        """Billed payload (:meth:`payload_bytes`) plus one 4-byte scale per
        block."""
        return self.payload_bytes() + int(self.scales.nbytes)

    @property
    def compression_ratio(self) -> float:
        """Uncompressed float32 bytes divided by wire bytes."""
        raw = 4 * self.n_values
        return raw / self.wire_bytes if self.wire_bytes else 0.0


def compress_blocked(
    flat: np.ndarray, block_size: int, bits: int, rng: np.random.Generator
) -> BlockCompressedHistogram:
    """Quantize with an independent scale per ``block_size`` values.

    The input length must be a multiple of ``block_size`` (histogram
    layouts always are: ``2 * K * M`` with ``block_size`` = K or 2K).
    Consumes exactly one ``rng.random((n_blocks, block_size))`` draw; the
    input is never written.
    """
    if bits not in SUPPORTED_BITS:
        raise DataError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise DataError(f"compress_blocked expects a 1-D array, got ndim={flat.ndim}")
    if block_size < 1:
        raise DataError(f"block_size must be >= 1, got {block_size}")
    if flat.size % block_size != 0:
        raise DataError(
            f"length {flat.size} is not a multiple of block_size {block_size}"
        )
    blocks = flat.reshape(flat.size // block_size, block_size)
    # Every pass below runs in place over this one buffer: with a fresh
    # slice-sized float64 temporary per step the kernel's working set
    # leaves L2, and the steps run at L3 speed.
    work = np.abs(blocks)
    # One segmented pass; ``max(axis=1)`` spends its time entering and
    # leaving the thousands of short (K = 20) rows of a histogram.
    scales_abs = np.maximum.reduceat(
        work.ravel(), np.arange(0, flat.size, block_size)
    )
    # abs and max propagate NaN and inf, so the block maxima are finite
    # exactly when every value is.
    if not np.all(np.isfinite(scales_abs)):
        raise DataError("histogram contains non-finite values")
    scale = _int_scale(bits)
    safe = np.where(scales_abs == 0.0, 1.0, scales_abs)
    dither = rng.random(blocks.shape)
    # floor(q / |c| * S + u), see the module docstring.  An all-zero block
    # needs no special case: floor(0 / 1 * S + u) is already 0.
    np.divide(blocks, safe[:, None], out=work)
    work *= scale
    work += dither
    np.floor(work, out=work)
    # Load-bearing: at q = +|c| the sum S + u rounds up to S + 1 once u is
    # within half an ulp of 1 (u > 1 - 2**-47 at 8 bits), one level past
    # what ``bits`` can carry.
    np.clip(work, -scale, scale, out=work)
    # Shift to unsigned for packing: levels in [0, 2 * scale].
    work += scale
    levels = work.ravel().astype(np.uint8 if bits <= 8 else np.uint16)
    return BlockCompressedHistogram(
        payload=_pack(levels, bits),
        scales=scales_abs.astype(np.float32),
        bits=bits,
        n_values=flat.size,
        block_size=block_size,
    )


def decompress_blocked(
    compressed: BlockCompressedHistogram, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Inverse of :func:`compress_blocked`; unbiased per block.

    ``start`` / ``stop`` (multiples of the block size; default: all)
    decode only values ``[start, stop)`` — the same floats the full decode
    holds there, since every value depends on its own level and its own
    block's scale alone.
    """
    block = compressed.block_size
    start, stop = compressed._check_range(start, stop)
    scale = _int_scale(compressed.bits)
    decoded = _unpack(compressed.payload, compressed.bits, stop, start)
    decoded -= scale
    blocks = decoded.reshape(-1, block)
    scales = compressed.scales[start // block : stop // block]
    blocks *= (scales.astype(np.float64) / scale)[:, None]
    return decoded


def decompress_flat(compressed: CompressedHistogram) -> np.ndarray:
    """Decode back to float64; unbiased reconstruction of the input."""
    if compressed.scale_max == 0.0:
        return np.zeros(compressed.n_values, dtype=np.float64)
    scale = _int_scale(compressed.bits)
    encoded = _unpack(compressed.payload, compressed.bits, compressed.n_values)
    encoded -= scale
    encoded /= scale
    encoded *= compressed.scale_max
    return encoded
