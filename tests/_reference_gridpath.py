"""Frozen reference for the grid-path inner loops rewritten in PR 21.

Verbatim copies, as they stood at ``a9eaa3f``, of

* the present-set line of ``_build_node_slabs`` (``repro.distributed.engine``,
  now a method of ``_GridFit``) and ``slab_from_flat``
  (``repro.ps.slab``) — sort the node's feature ids, gather the present
  segments out of the whole stripe's flat;
* ``CompressedSlab.to_sparse`` / ``wire_bytes_for`` (``repro.ps.slab``)
  over the whole-payload ``_unpack`` / ``decompress_blocked``
  (``repro.compression.lowprec``), and ``PSServer._materialize_slab``
  plus the dense ``stored += contrib`` of ``handle_push_slab``
  (``repro.ps.server``) — every partition decodes the whole slab and
  adds a zero-filled row;
* the per-feature sketch chain ``ParameterServerGroup.push_sketch`` ->
  ``PSServer.handle_push_sketch`` -> ``handle_pull_sketch`` ->
  ``pull_sketches`` (``repro.ps.group`` / ``repro.ps.server``) — one
  tagged frame, one ``merge`` and one dict entry per feature.

Test-only — the differential oracle of ``test_gridpath_reference.py`` —
and never imported by ``src/``.  Do not "fix" or modernise it: its value
is that it shares no inner loop with the implementation it checks.  The
only edits are absolute imports; functions taking what they read off
``self`` as arguments; ``to_sparse`` reading the zero buckets off the
layout (``compress_slab`` copied exactly those into the deleted
``CompressedSlab.zero_bins`` field) and returning the ``(features,
values)`` pair; the sketch chain keeping the servers' two
dicts in one object, without the fabric, and speaking the frozen
summaries of ``tests.sketch._reference_gk``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PSError

from .sketch._reference_gk import sketch_from_wire, sketch_to_wire

SLAB_HEADER_BYTES = 16

# ----------------------------------------------------------------------
# distributed/engine.py::_build_node_slabs + ps/slab.py::slab_from_flat
# ----------------------------------------------------------------------


def present_features(shard, rows: np.ndarray) -> np.ndarray:
    positions = shard.positions_of_rows(rows)
    present = (
        np.unique(shard.features[positions])
        if len(positions)
        else np.empty(0, dtype=np.int64)
    )
    return present


def slab_from_flat(
    flat: np.ndarray,
    present: np.ndarray,
    col_lo: int,
    col_hi: int,
    n_bins: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(features, values)`` of the slab the old function built."""
    width = 2 * n_bins
    n_stripe = col_hi - col_lo
    flat = np.asarray(flat, dtype=np.float64)
    if flat.size != n_stripe * width:
        raise PSError(
            f"stripe flat has {flat.size} values; {n_stripe} features with "
            f"{n_bins} bins need {n_stripe * width}"
        )
    present = np.asarray(present, dtype=np.int64)
    segments = flat.reshape(n_stripe, width)[present]
    return present + col_lo, segments


# ----------------------------------------------------------------------
# ps/slab.py::CompressedSlab.to_sparse / wire_bytes_for
# ps/server.py::_materialize_slab + handle_push_slab's dense add
# ----------------------------------------------------------------------


def _int_scale(bits: int) -> int:
    return (1 << (bits - 1)) - 1


def _unpack(payload: np.ndarray, bits: int, n_values: int) -> np.ndarray:
    if bits == 8:
        return payload[:n_values].astype(np.float64)
    if bits == 16:
        return payload.view(np.uint16)[:n_values].astype(np.float64)
    per_byte = 8 // bits
    mask = (1 << bits) - 1
    levels = np.empty(len(payload) * per_byte, dtype=np.float64)
    for j in range(per_byte):
        levels[j::per_byte] = (payload >> (bits * j)) & mask
    return levels[:n_values]


def decompress_blocked(compressed) -> np.ndarray:
    scale = _int_scale(compressed.bits)
    decoded = _unpack(compressed.payload, compressed.bits, compressed.n_values)
    decoded -= scale
    blocks = decoded.reshape(-1, compressed.block_size)
    blocks *= (compressed.scales.astype(np.float64) / scale)[:, None]
    return decoded


def to_sparse(compressed, layout) -> tuple[np.ndarray, np.ndarray]:
    """``(features, values)`` of the decoded slab."""
    width = 2 * compressed.n_bins
    if layout.n_bins != compressed.n_bins:
        raise PSError(
            f"slab was compressed for K={compressed.n_bins}, layout has "
            f"K={layout.n_bins}"
        )
    values = decompress_blocked(compressed.blocked).reshape(-1, width)
    zero_bins = layout.zero_bins[compressed.features]
    if len(compressed.features):
        rows = np.arange(len(compressed.features), dtype=np.int64)
        values[rows, zero_bins] += compressed.sum_g
        values[rows, compressed.n_bins + zero_bins] += compressed.sum_h
    return compressed.features, values


def wire_bytes_for(
    col_lo: int, col_hi: int, features: np.ndarray, per_feature: int,
    f_lo: int, f_hi: int,
) -> int:
    lo = max(f_lo, col_lo)
    hi = min(f_hi, col_hi)
    if lo >= hi:
        return 0
    present = int(
        np.searchsorted(features, hi, side="left")
        - np.searchsorted(features, lo, side="left")
    )
    return SLAB_HEADER_BYTES + present * per_feature


def materialize_slab(
    layout,
    col_lo: int,
    col_hi: int,
    features: np.ndarray,
    values: np.ndarray,
    sum_g: float,
    sum_h: float,
    f_lo: int,
    f_hi: int,
    length: int,
) -> np.ndarray:
    """Materialize a slab's contribution over features [f_lo, f_hi)."""
    lo = max(f_lo, col_lo)
    hi = min(f_hi, col_hi)
    contrib = np.zeros(length, dtype=np.float64)
    if lo < hi:
        view = contrib.reshape(f_hi - f_lo, 2, layout.n_bins)
        local = np.arange(lo - f_lo, hi - f_lo, dtype=np.int64)
        zero_bins = layout.zero_bins[lo:hi]
        view[local, 0, zero_bins] = sum_g
        view[local, 1, zero_bins] = sum_h
        first = int(np.searchsorted(features, lo, side="left"))
        last = int(np.searchsorted(features, hi, side="left"))
        if first < last:
            carried = features[first:last] - f_lo
            view[carried] = values[first:last].reshape(
                last - first, 2, layout.n_bins
            )
    return contrib


def fold(stored: np.ndarray | None, contrib: np.ndarray) -> np.ndarray:
    if stored is None:
        return contrib
    stored += contrib
    return stored


# ----------------------------------------------------------------------
# ps/group.py::push_sketch / pull_sketches
# ps/server.py::handle_push_sketch / handle_pull_sketch
# ----------------------------------------------------------------------


class PerFeatureSketchServers:
    """The sketch state of all servers of one group, per feature."""

    def __init__(self, partitioner) -> None:
        self.partitioner = partitioner
        self.sketches: dict[int, object] = {}
        self.applied: dict[int, set] = {}
        self.duplicate_pushes = 0

    def push_sketch(self, sketches: dict, seq: object | None = None) -> tuple[int, int]:
        """``(bytes_up, messages)`` of one worker's push."""
        partitioner = self.partitioner
        features = sorted(sketches)
        pids = partitioner.partition_ids_of(features)
        starts = np.flatnonzero(np.diff(pids, prepend=-1))
        bytes_up = messages = 0
        for a, b in zip(starts, (*starts[1:], len(features))):
            part = partitioner.partitions[pids[a]]
            payloads = [(f, sketch_to_wire(sketches[f])) for f in features[a:b]]
            piece_bytes = sum(4 + len(wire) for _, wire in payloads)
            self.handle_push_sketch(part, payloads, seq=seq)
            bytes_up += piece_bytes
            messages += 1
        return bytes_up, messages

    def handle_push_sketch(self, part, payloads, seq: object | None = None) -> None:
        applied = self.applied.setdefault(part.partition_id, set())
        if seq in applied:
            self.duplicate_pushes += 1
            return
        sketches = self.sketches
        staged: dict[int, object] = {}
        for feature, wire in payloads:
            if not part.lo <= feature < part.hi:
                raise PSError(
                    f"sketch for feature {feature} pushed to partition "
                    f"{part.partition_id} ([{part.lo}, {part.hi}))"
                )
            incoming = sketch_from_wire(wire)
            stored = staged.get(feature, sketches.get(feature))
            staged[feature] = (
                incoming if stored is None else stored.merge(incoming)
            )
        if seq is not None:
            applied.add(seq)
        sketches.update(staged)

    def handle_pull_sketch(self, part) -> list[tuple[int, bytes]]:
        sketches = self.sketches
        out = [
            (feature, sketch_to_wire(sketches[feature]))
            for feature in sorted(sketches)
            if part.lo <= feature < part.hi
        ]
        return out

    def pull_sketches(self) -> tuple[dict, int]:
        """``(merged, bytes_down)`` reassembled across partitions."""
        merged: dict[int, object] = {}
        bytes_down = 0
        for part in self.partitioner.partitions:
            payloads = self.handle_pull_sketch(part)
            for feature, wire in payloads:
                merged[feature] = sketch_from_wire(wire)
                bytes_down += 4 + len(wire)
        return merged, bytes_down


# ----------------------------------------------------------------------
# Extension, not a frozen copy: what a PULL_SKETCH candidate pull of the
# stripe [lo, hi) bills, spelled out partition by partition and feature
# by feature — one frame per partition overlapping the stripe, 8 header
# bytes, then per feature a 4-byte cut count and 8 bytes a cut.
# ----------------------------------------------------------------------


def candidate_pull_bytes(partitioner, cut_counts, lo: int, hi: int) -> tuple[int, int]:
    """``(bytes_down, messages)`` of one stripe's candidate pull."""
    bytes_down = messages = 0
    for part in partitioner.partitions:
        features = [f for f in range(lo, hi) if part.lo <= f < part.hi]
        if not features:
            continue
        bytes_down += 8 + sum(4 + 8 * int(cut_counts[f]) for f in features)
        messages += 1
    return bytes_down, messages


# ----------------------------------------------------------------------
# Extension, not a frozen copy: what the grid-path frames bill once each
# travels in its smallest lossless form, spelled out element by element
# in plain Python.  A sketch or candidate column costs a form byte plus
# the shortest of the payloads its column admits (``repro.sketch.wire``):
# nothing for all zeros, 8 bytes for one repeated float or a run of
# consecutive ids, else n elements of the narrowest width that holds
# them.  A slab share names its present features by 4-byte ids or by a
# bitmap of its range, whichever is smaller, after a tag byte.
# ----------------------------------------------------------------------


def _int_column_bytes(xs, ids: bool = False, zero: bool = False) -> int:
    xs = [int(x) for x in xs]
    options = [8 * len(xs)]
    if all(x >= 0 for x in xs):
        top = max(xs, default=0)
        options += [w * len(xs) for w in (1, 2, 4) if top < 2 ** (8 * w)]
    if ids and xs and all(b - a == 1 for a, b in zip(xs, xs[1:])):
        options.append(8)
    if zero and not any(xs):
        options.append(0)
    return 1 + min(options)


def _float_column_bytes(xs, uniform: bool = False, zero: bool = False) -> int:
    xs = [float(x) for x in xs]
    bits = [np.float64(x).tobytes() for x in xs]
    options = [8 * len(xs)]
    with np.errstate(over="ignore"):
        if all(np.float32(x).astype(np.float64).tobytes() == b for x, b in zip(xs, bits)):
            options.append(4 * len(xs))
    if uniform and xs and len(set(bits)) == 1:
        options.append(8)
    if zero and all(b == bytes(8) for b in bits):
        options.append(0)
    return 1 + min(options)


def sketch_frame_bytes(features, summaries, weighted: bool) -> int:
    """Length of the sketch frame of ``summaries`` (frozen reference
    summaries) for the increasing ids ``features``."""
    total = 5 + _int_column_bytes(features, ids=True)
    total += _int_column_bytes([len(s) for s in summaries])
    total += _float_column_bytes([s.eps for s in summaries], uniform=True)
    total += _int_column_bytes([s.count for s in summaries])
    if weighted:
        total += _float_column_bytes([s.total_weight for s in summaries])
    total += _float_column_bytes([v for s in summaries for v in s._values])
    for ranks in ([g for s in summaries for g in s._g], [d for s in summaries for d in s._delta]):
        if weighted:
            total += _float_column_bytes(ranks, zero=True)
        else:
            total += _int_column_bytes(ranks, zero=True)
    return total


def sketch_push_bytes(partitioner, sketches: dict, weighted: bool) -> int:
    """``bytes_up`` of one worker's push of ``{feature: summary}``: one
    frame per partition holding some of its features."""
    bytes_up = 0
    for part in partitioner.partitions:
        features = [f for f in sorted(sketches) if part.lo <= f < part.hi]
        if features:
            summaries = [sketches[f] for f in features]
            bytes_up += sketch_frame_bytes(features, summaries, weighted)
    return bytes_up


def candidate_frame_pull_bytes(
    partitioner, offsets, cuts, max_bins: int, lo: int, hi: int
) -> tuple[int, int]:
    """``(bytes_down, messages)`` of one stripe's candidate pull: per
    partition overlapping the stripe 8 header bytes, per feature a cut
    count in the narrowest unsigned width holding ``max_bins - 1``, then
    a form byte and every cut at 4 bytes when all of the frame's cuts
    survive a float32 round trip, at 8 otherwise."""
    count_width = next(w for w in (1, 2, 4, 8) if max_bins - 1 < 2 ** (8 * w))
    bytes_down = messages = 0
    for part in partitioner.partitions:
        features = [f for f in range(lo, hi) if part.lo <= f < part.hi]
        if not features:
            continue
        share = [c for f in features for c in cuts[offsets[f] : offsets[f + 1]]]
        bytes_down += 8 + count_width * len(features) + _float_column_bytes(share)
        messages += 1
    return bytes_down, messages


def presence_wire_bytes_for(
    col_lo: int, col_hi: int, features: np.ndarray, value_bytes: int,
    f_lo: int, f_hi: int,
) -> int:
    """:func:`wire_bytes_for` with the present features named by ids or
    by a bitmap of the share's range, whichever is smaller, after a tag
    byte; ``value_bytes`` is what one present feature's values weigh."""
    lo = max(f_lo, col_lo)
    hi = min(f_hi, col_hi)
    if lo >= hi:
        return 0
    present = sum(1 for f in features if lo <= f < hi)
    presence = 1 + min(4 * present, (hi - lo + 7) // 8)
    return SLAB_HEADER_BYTES + presence + present * value_bytes
