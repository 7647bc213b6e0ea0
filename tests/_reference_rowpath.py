"""Frozen reference for the row-path inner loops rewritten in PR 19.

Verbatim copies of ``compress_blocked`` / ``decompress_blocked``
(``repro.compression.lowprec``), ``BinnedShard.split_mask``
(``repro.histogram.binned``), ``best_split_in_range``
(``repro.tree.split``) and ``sorted_columns`` (``repro.sketch.ragged``)
as they stood at ``45c8b6c``, before the in-place codec, the column
lookup, the bucket-major scan and the single-key sort.  Test-only — the
differential oracle of the ``test_*_matches_reference`` tests — and
never imported by ``src/``.  Do not "fix" or modernise it: its value is
that it shares no inner loop with the implementation it checks.  The
only edits are absolute ``repro`` imports, the codec returning plain
``(payload, scales)`` / taking them back instead of building the frame
dataclass, ``split_mask`` taking the shard as an argument and gathering
``zero_slots[features[positions]]`` where the shard used to cache that
gather as ``zero_slots_of_nz``, and ``best_split_in_range`` returning the
``SplitDecision`` fields as a tuple.

PR 24 appended ``concat_ranges`` (``repro.histogram.binned``) and
``build_node_histogram_sparse`` (``repro.histogram.builder``) as they
stood at ``9840ba0``, before the repeat-based ranges and weights; the
frozen ``split_mask`` above uses that frozen ``concat_ranges``, and the
frozen builder reaches its positions through it (``indptr`` gathers
inlined) instead of ``shard.positions_of_rows``, so neither shares a loop
with the rewrite.

Appended last: the dense lossy loop of ``ParameterServerGroup.encode_row``
(``repro.ps.group``) as it stood at ``c89872d``, before the per-feature
presence bitmap — every feature of every partition slice encoded, absent
or not.  It runs on the frozen codec above and takes the partition
bounds as ``(lo, hi)`` pairs instead of the registered partitioner.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError, TrainingError
from repro.histogram.histogram import GradientHistogram

# ----------------------------------------------------------------------
# compression/lowprec.py
# ----------------------------------------------------------------------

SUPPORTED_BITS = (2, 4, 8, 16)


def _int_scale(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _pack(levels: np.ndarray, bits: int) -> np.ndarray:
    if bits == 8:
        return levels.astype(np.uint8)
    if bits == 16:
        return levels.astype(np.uint16).view(np.uint8)
    per_byte = 8 // bits
    padded_len = -(-len(levels) // per_byte) * per_byte
    padded = np.zeros(padded_len, dtype=np.uint8)
    padded[: len(levels)] = levels
    packed = np.zeros(padded_len // per_byte, dtype=np.uint8)
    for j in range(per_byte):
        packed |= padded[j::per_byte] << (bits * j)
    return packed


def _unpack(payload: np.ndarray, bits: int, n_values: int) -> np.ndarray:
    if bits == 8:
        return payload[:n_values].astype(np.int64)
    if bits == 16:
        return payload.view(np.uint16)[:n_values].astype(np.int64)
    per_byte = 8 // bits
    mask = (1 << bits) - 1
    levels = np.empty(len(payload) * per_byte, dtype=np.int64)
    for j in range(per_byte):
        levels[j::per_byte] = (payload >> (bits * j)) & mask
    return levels[:n_values]


def compress_blocked(
    flat: np.ndarray, block_size: int, bits: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``(payload, float32 scales)`` of the old kernel."""
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
    if not np.all(np.isfinite(flat)):
        raise DataError("histogram contains non-finite values")
    n_blocks = flat.size // block_size
    blocks = flat.reshape(n_blocks, block_size)
    scales_abs = np.abs(blocks).max(axis=1)
    scale = _int_scale(bits)
    safe = np.where(scales_abs == 0.0, 1.0, scales_abs)
    dither = rng.random(blocks.shape)
    encoded = np.floor(blocks / safe[:, None] * scale + dither).astype(np.int64)
    encoded[scales_abs == 0.0] = 0
    np.clip(encoded, -scale, scale, out=encoded)
    levels = (encoded + scale).ravel()
    return _pack(levels, bits), scales_abs.astype(np.float32)


def decompress_blocked(
    payload: np.ndarray, scales: np.ndarray, bits: int, n_values: int, block_size: int
) -> np.ndarray:
    scale = _int_scale(bits)
    levels = _unpack(payload, bits, n_values)
    encoded = (levels - scale).astype(np.float64)
    blocks = encoded.reshape(-1, block_size)
    return (blocks * (scales.astype(np.float64)[:, None] / scale)).ravel()


# ----------------------------------------------------------------------
# histogram/binned.py
# ----------------------------------------------------------------------


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The old ``ones -> fancy set -> cumsum`` range concat."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if starts.shape != counts.shape:
        raise DataError("starts and counts must have the same shape")
    nonempty = counts > 0
    starts, counts = starts[nonempty], counts[nonempty]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    deltas = np.ones(total, dtype=np.int64)
    deltas[0] = starts[0]
    ends = counts.cumsum()
    deltas[ends[:-1]] = starts[1:] - (starts[:-1] + counts[:-1]) + 1
    return deltas.cumsum()


def split_mask(shard, rows: np.ndarray, feature: int, bucket: int) -> np.ndarray:
    """The old SPLIT_TREE gather over every nonzero of the node's rows."""
    if not 0 <= feature < shard.n_features:
        raise DataError(f"feature {feature} out of range [0, {shard.n_features})")
    rows = np.asarray(rows, dtype=np.int64)
    mask = np.full(len(rows), shard.zero_bins[feature] <= bucket, dtype=bool)
    starts = shard.indptr[rows]
    counts = shard.indptr[rows + 1] - starts
    positions = concat_ranges(starts, counts)
    if len(positions) == 0:
        return mask
    local_row = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
    zero_slots_of_nz = shard.zero_slots[shard.features[positions]]
    at_feature = zero_slots_of_nz == shard.zero_slots[feature]
    mask[local_row[at_feature]] = shard.bins[positions[at_feature]] <= bucket
    return mask


# ----------------------------------------------------------------------
# histogram/builder.py
# ----------------------------------------------------------------------


def build_node_histogram_sparse(
    shard, rows: np.ndarray, grad: np.ndarray, hess: np.ndarray
) -> GradientHistogram:
    """The old Algorithm 2 kernel: five gathers per nonzero, 2-D settle."""
    if len(grad) != shard.n_rows or len(hess) != shard.n_rows:
        raise DataError(
            f"grad/hess must have one value per shard row ({shard.n_rows}), "
            f"got {len(grad)}/{len(hess)}"
        )
    rows = np.asarray(rows, dtype=np.int64)
    size = shard.n_features * shard.n_bins
    far = shard.feature_arange
    zero_bins = shard.zero_bins

    sum_g = float(grad[rows].sum())
    sum_h = float(hess[rows].sum())

    starts = shard.indptr[rows]
    positions = concat_ranges(starts, shard.indptr[rows + 1] - starts)
    if len(positions) == 0:
        empty = GradientHistogram.zeros(shard.n_features, shard.n_bins)
        empty.grad[far, zero_bins] += sum_g
        empty.hess[far, zero_bins] += sum_h
        return empty

    slots = shard.slots[positions]
    nz_features = shard.features[positions]
    nz_rows = shard.row_of[positions]
    g_nz = grad[nz_rows].astype(np.float64, copy=False)
    h_nz = hess[nz_rows].astype(np.float64, copy=False)

    hist_g = np.bincount(slots, weights=g_nz, minlength=size)
    hist_h = np.bincount(slots, weights=h_nz, minlength=size)
    zsub_g = np.bincount(nz_features, weights=g_nz, minlength=shard.n_features)
    zsub_h = np.bincount(nz_features, weights=h_nz, minlength=shard.n_features)

    hist_g = hist_g.reshape(shard.n_features, shard.n_bins)
    hist_h = hist_h.reshape(shard.n_features, shard.n_bins)
    hist_g[far, zero_bins] -= zsub_g
    hist_h[far, zero_bins] -= zsub_h
    hist_g[far, zero_bins] += sum_g
    hist_h[far, zero_bins] += sum_h
    return GradientHistogram(hist_g, hist_h)


# ----------------------------------------------------------------------
# tree/split.py
# ----------------------------------------------------------------------


def _gain_term(g, h, reg_lambda: float):
    return np.square(g) / (h + reg_lambda)


def best_split_in_range(
    flat_slice: np.ndarray,
    f_lo: int,
    f_hi: int,
    candidates,
    reg_lambda: float,
    reg_gamma: float = 0.0,
    min_child_weight: float = 0.0,
    feature_valid: np.ndarray | None = None,
) -> tuple | None:
    """The old feature-major scan; the decision's fields in declaration order."""
    n_features = f_hi - f_lo
    n_bins = candidates.max_bins
    if flat_slice.size != 2 * n_features * n_bins:
        raise TrainingError(
            f"slice has {flat_slice.size} values; features [{f_lo}, {f_hi}) "
            f"with {n_bins} bins need {2 * n_features * n_bins}"
        )
    if n_features == 0:
        return None
    blocks = np.asarray(flat_slice, dtype=np.float64).reshape(n_features, 2, n_bins)
    grad = blocks[:, 0, :]
    hess = blocks[:, 1, :]

    total_grad = float(grad[0].sum())
    total_hess = float(hess[0].sum())

    left_g = np.cumsum(grad, axis=1)[:, : n_bins - 1]
    left_h = np.cumsum(hess, axis=1)[:, : n_bins - 1]
    right_g = total_grad - left_g
    right_h = total_hess - left_h

    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (
            _gain_term(left_g, left_h, reg_lambda)
            + _gain_term(right_g, right_h, reg_lambda)
            - _gain_term(total_grad, total_hess, reg_lambda)
        ) - reg_gamma

    n_cuts = np.diff(candidates.offsets[f_lo : f_hi + 1])
    cut_exists = np.arange(n_bins - 1)[None, :] < n_cuts[:, None]
    valid = (
        cut_exists
        & (left_h >= min_child_weight)
        & (right_h >= min_child_weight)
        & (left_h + reg_lambda > 0.0)
        & (right_h + reg_lambda > 0.0)
    )
    if feature_valid is not None:
        valid &= np.asarray(feature_valid[f_lo:f_hi], dtype=bool)[:, None]
    gains = np.where(valid & np.isfinite(gains), gains, -np.inf)

    best = int(np.argmax(gains))
    local_f, bucket = divmod(best, n_bins - 1)
    best_gain = float(gains.flat[best])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feature = f_lo + local_f
    return (
        feature,
        bucket,
        candidates.split_value(feature, bucket),
        best_gain,
        float(left_g[local_f, bucket]),
        float(left_h[local_f, bucket]),
        float(right_g[local_f, bucket]),
        float(right_h[local_f, bucket]),
        total_grad,
        total_hess,
    )


# ----------------------------------------------------------------------
# sketch/ragged.py
# ----------------------------------------------------------------------


def sorted_columns(
    indices: np.ndarray, data: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort CSR nonzeros by (column, value) with one lexsort."""
    order = np.lexsort((data, indices))
    bounds = np.searchsorted(indices[order], np.arange(n_cols + 1))
    return order, data[order].astype(np.float64), bounds


# ----------------------------------------------------------------------
# ps/group.py
# ----------------------------------------------------------------------


def encode_row_lossy(
    flat: np.ndarray,
    bounds: list[tuple[int, int]],
    n_bins: int,
    bits: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, int]]:
    """``(decoded slice, wire bytes)`` per partition ``(lo, hi)``, in order."""
    flat = np.asarray(flat, dtype=np.float64)
    pieces: list[tuple[np.ndarray, int]] = []
    for lo, hi in bounds:
        payload, scales = compress_blocked(flat[lo:hi], n_bins, bits, rng)
        decoded = decompress_blocked(payload, scales, bits, hi - lo, n_bins)
        pieces.append((decoded, payload.nbytes + scales.nbytes))
    return pieces


# ----------------------------------------------------------------------
# ps/group.py, again
# ----------------------------------------------------------------------
# The bitmap lossy loop of ``ParameterServerGroup.encode_row`` as it stood
# at ``b7326fc``, before the row slice carried its node sums as a header:
# the caller unfolded the zero buckets, only the features with a nonzero
# value were encoded, and an absent feature decoded to ``+0.0``.  It runs
# on the frozen codec above and takes the partition bounds as
# ``(lo, hi)`` pairs instead of the registered partitioner.


def encode_row_bitmap(
    flat: np.ndarray,
    bounds: list[tuple[int, int]],
    n_bins: int,
    bits: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, int]]:
    """``(decoded slice, wire bytes)`` per partition ``(lo, hi)``, in order."""
    flat = np.asarray(flat, dtype=np.float64)
    width = 2 * n_bins
    pieces: list[tuple[np.ndarray, int]] = []
    for lo, hi in bounds:
        features = flat[lo:hi].reshape(-1, width)
        present = np.flatnonzero((features != 0.0).any(axis=1))
        payload, scales = compress_blocked(features[present].ravel(), n_bins, bits, rng)
        decoded = np.zeros_like(features)
        decoded[present] = decompress_blocked(
            payload, scales, bits, len(present) * width, n_bins
        ).reshape(len(present), width)
        bitmap_bytes = -(-len(features) // 8)
        pieces.append((decoded.ravel(), payload.nbytes + scales.nbytes + bitmap_bytes))
    return pieces


# ----------------------------------------------------------------------
# compression/lowprec.py, the billed message
# ----------------------------------------------------------------------
# Not a frozen copy: a real serializer and parser for the two forms
# ``BlockCompressedHistogram.payload_bytes`` bills a run of levels at —
# the dense packed levels, or a zero-level bitmap (``np.packbits``, one
# bit per level, little bit order, set where the signed level is nonzero)
# followed by the packed nonzero levels.  The smaller form travels; a tie
# goes to the dense one, so the parser tells the forms apart by length.
# Both run on the frozen pack / unpack above.


def serialize_levels(payload: np.ndarray, bits: int, start: int, stop: int) -> bytes:
    """Levels ``[start, stop)`` of a packed payload as the smaller message."""
    levels = _unpack(payload, bits, stop)[start:stop]
    dense = _pack(levels, bits).tobytes()
    nonzero = levels != _int_scale(bits)
    bitmap = np.packbits(nonzero, bitorder="little")
    masked = bitmap.tobytes() + _pack(levels[nonzero], bits).tobytes()
    return masked if len(masked) < len(dense) else dense


def parse_levels(message: bytes, bits: int, n_values: int) -> np.ndarray:
    """Inverse of :func:`serialize_levels`: the ``n_values`` unsigned
    levels as int64."""
    buffer = np.frombuffer(message, dtype=np.uint8).copy()
    if len(buffer) == -(-n_values * bits // 8):
        return _unpack(buffer, bits, n_values)
    n_bitmap = -(-n_values // 8)
    nonzero = np.unpackbits(
        buffer[:n_bitmap], count=n_values, bitorder="little"
    ).astype(bool)
    packed = buffer[n_bitmap:]
    if len(packed) != -(-int(nonzero.sum()) * bits // 8):
        raise DataError(f"a {len(buffer)}-byte message is neither form")
    levels = np.full(n_values, _int_scale(bits), dtype=np.int64)
    levels[nonzero] = _unpack(packed, bits, int(nonzero.sum()))
    return levels
