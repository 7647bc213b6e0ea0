"""``ParameterServerGroup.encode_row``'s lossy branch against its oracles.

A lossy dense slice carries the delta's node sums as a header, subtracts
them from every zero bucket, and encodes only the features whose
residual has a nonzero value behind a per-feature presence bitmap;
decoding adds the sums back.  Three frozen references bound it
(``tests/_reference_rowpath.py``):

* the bitmap loop that encoded an already unfolded row — the encode of
  ``flat`` must equal that loop run on ``flat`` minus the fold, plus the
  fold, piece by piece and bit for bit, with the same dither draws and
  eight more bytes per piece (the two sums);

* ``compress_blocked`` run over the *compacted* present features of the
  whole row, with the same generator — the present features must decode
  to those floats bit for bit, and the generator must end where that one
  draw leaves it;
* the dense loop that encoded every feature — a row whose features are
  all present must reproduce its decoded pieces bit for bit, and its
  payload + scale bytes plus the bitmap and the sums.

Every piece's levels are billed as one message in the smaller of the
dense and the zero-level bitmap form, so each byte check swaps a
reference's dense payload bytes for the length of the real message
``_reference_rowpath.serialize_levels`` builds from the same levels.

The last two run with zero node sums, whose fold subtracts nothing and
only adds ``+0.0`` back (a ``-0.0`` zero bucket decodes to ``+0.0``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ps import ParameterServerGroup, SlabLayout

from .. import _reference_rowpath as ref

VALUE_KINDS = ["sparse", "dense", "residue", "subnormal", "pm_max", "negzero"]

#: Header bytes of a lossy piece: the two node sums.
SUMS_BYTES = 8


def level_messages(slices, n_bins, bits, seed):
    """Per slice, ``(dense payload bytes, message bytes)`` of the levels
    the frozen codec draws for it — the slices encoded in order from one
    generator seeded ``seed``, as the encode draws them."""
    rng = np.random.default_rng(seed)
    out = []
    for values in slices:
        payload, _scales = ref.compress_blocked(values, n_bins, bits, rng)
        message = ref.serialize_levels(payload, bits, 0, values.size)
        out.append((payload.nbytes, len(message)))
    return out


def fold(row, zero_bins, n_bins, sum_g, sum_h):
    """``row`` with ``sum_g`` / ``sum_h`` added to the zero buckets of its
    features (``zero_bins`` lists them, one per feature of ``row``)."""
    out = np.array(row, dtype=np.float64).reshape(len(zero_bins), 2 * n_bins)
    features = np.arange(len(zero_bins))
    out[features, zero_bins] += sum_g
    out[features, n_bins + zero_bins] += sum_h
    return out.ravel()


@st.composite
def lossy_rows(draw, all_present=False):
    """``(group, flat, present mask, n_bins)``: a registered ``"hist"``
    row of per-feature ``[g, h]`` histograms over 1-4 servers, each
    feature absent (all ``2K`` values zero, ``-0.0`` included) or filled
    with one of the value kinds a pre-fold histogram holds."""
    n_bins = draw(st.sampled_from([1, 2, 3, 4, 10, 21]))
    n_features = draw(st.integers(min_value=1, max_value=40))
    n_servers = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    width = 2 * n_bins
    rows = np.zeros((n_features, width))
    present = np.zeros(n_features, dtype=bool)
    for f in range(n_features):
        if not all_present and draw(st.booleans()):
            if draw(st.booleans()):
                rows[f, rng.integers(width)] = -0.0
            continue
        kind = draw(st.sampled_from(VALUE_KINDS))
        if kind == "sparse":
            rows[f] = rng.normal(size=width) * (rng.random(width) < 0.3)
        elif kind == "dense":
            rows[f] = rng.normal(size=width) * 10.0 ** rng.integers(-8, 9)
        elif kind == "residue":
            pass  # the lone zero-bucket residue below
        elif kind == "subnormal":
            rows[f] = rng.integers(-3, 4, size=width) * 5e-324
        elif kind == "pm_max":
            top = float(rng.random() + 0.5)
            rows[f] = rng.choice([top, -top, 0.0, top / 3], size=width)
        elif kind == "negzero":
            rows[f] = rng.choice([-0.0, 0.0], size=width)
        if not rows[f].any():
            rows[f, rng.integers(width)] = rng.choice([1e-17, -1e-17])
        present[f] = True
    group = ParameterServerGroup(n_servers)
    layout = SlabLayout(n_features, n_bins, np.zeros(n_features, dtype=np.int64))
    group.register("hist", n_features * width, align=width, layout=layout)
    return group, rows.ravel(), present, n_bins


@st.composite
def folded_rows(draw):
    """``(group, flat, zero_bins, n_bins, sums)``: a :func:`lossy_rows`
    row read as a node's residual, zero buckets at drawn bins, with the
    node sums ``(sum_g, sum_h)`` folded in — zero, histogram-sized, or
    the O(N) mass that dwarfs every bucket."""
    template, residual, _present, n_bins = draw(lossy_rows())
    width = 2 * n_bins
    n_features = residual.size // width
    bins = st.integers(0, n_bins - 1)
    zero_bins = np.array(
        draw(st.lists(bins, min_size=n_features, max_size=n_features)),
        dtype=np.int64,
    )
    group = ParameterServerGroup(template.n_servers)
    layout = SlabLayout(n_features, n_bins, zero_bins)
    group.register("hist", residual.size, align=width, layout=layout)
    magnitude = draw(st.sampled_from([0.0, 1.0, 1e4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    sums = (float(rng.normal() * magnitude), float(rng.random() * magnitude))
    return group, fold(residual, zero_bins, n_bins, *sums), zero_bins, n_bins, sums


@settings(max_examples=150, deadline=None)
@given(folded_rows(), st.sampled_from([2, 4, 8, 16]), st.integers(0, 2**31 - 1))
def test_encode_folds_around_the_frozen_bitmap_loop(drawn, bits, seed):
    group, flat, zero_bins, n_bins, (sum_g, sum_h) = drawn
    width = 2 * n_bins
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pieces = group.encode_row("hist", flat, bits, rng, sums=(sum_g, sum_h))
    bounds = [(part.lo, part.hi) for part, _values, _bytes in pieces]
    unfolded = fold(flat, zero_bins, n_bins, -sum_g, -sum_h)
    reference = ref.encode_row_bitmap(unfolded, bounds, n_bins, bits, rng_ref)
    present_slices = []
    for lo, hi in bounds:
        features = unfolded[lo:hi].reshape(-1, width)
        present_slices.append(features[(features != 0.0).any(axis=1)].ravel())
    messages = level_messages(present_slices, n_bins, bits, seed)
    assert len(pieces) == len(reference)
    for (part, values, piece_bytes), (ref_values, ref_bytes), (dense, message) in zip(
        pieces, reference, messages
    ):
        piece_bins = zero_bins[part.lo // width : part.hi // width]
        expected = fold(ref_values, piece_bins, n_bins, sum_g, sum_h)
        assert values.tobytes() == expected.tobytes()
        assert piece_bytes == ref_bytes - dense + message + SUMS_BYTES
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(lossy_rows(), st.sampled_from([2, 4, 8, 16]), st.integers(0, 2**31 - 1))
def test_present_features_match_the_compacted_reference(drawn, bits, seed):
    group, flat, present, n_bins = drawn
    width = 2 * n_bins
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pieces = group.encode_row("hist", flat, bits, rng, sums=(0.0, 0.0))

    decoded = np.concatenate([values for _part, values, _bytes in pieces])
    by_feature = decoded.reshape(-1, width)
    compacted = flat.reshape(-1, width)[present].ravel()
    payload, scales = ref.compress_blocked(compacted, n_bins, bits, rng_ref)
    expected = ref.decompress_blocked(payload, scales, bits, compacted.size, n_bins)
    zero_bins = np.zeros(int(present.sum()), dtype=np.int64)
    expected = fold(expected, zero_bins, n_bins, 0.0, 0.0)
    # Present features: the compacted reference plus the (zero) fold, bit
    # for bit (sign of zeros included).
    assert by_feature[present].ravel().tobytes() == expected.tobytes()
    # Absent features: +0.0, never -0.0.
    absent = by_feature[~present]
    assert not absent.any() and not np.signbit(absent).any()
    # Dither is drawn for the present features only.
    drawn_once = np.random.default_rng(seed)
    drawn_once.random(int(present.sum()) * width)
    assert rng.bit_generator.state == drawn_once.bit_generator.state
    # Billed: the smaller real message of the piece's levels (its run of
    # the compacted payload) + one float32 scale per block + the bitmap
    # + the two sums.
    for part, values, piece_bytes in pieces:
        n_part = part.length // width
        n_present = int(present[part.lo // width : part.hi // width].sum())
        start = int(present[: part.lo // width].sum()) * width
        message = ref.serialize_levels(
            payload, bits, start, start + n_present * width
        )
        assert values.shape == (part.length,)
        assert piece_bytes == (
            len(message)
            + 2 * n_present * 4
            + -(-n_part // 8)
            + SUMS_BYTES
        )


@settings(max_examples=80, deadline=None)
@given(
    lossy_rows(all_present=True),
    st.sampled_from([2, 4, 8, 16]),
    st.integers(0, 2**31 - 1),
)
def test_all_present_row_reproduces_the_dense_loop(drawn, bits, seed):
    group, flat, present, n_bins = drawn
    assert present.all()
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pieces = group.encode_row("hist", flat, bits, rng, sums=(0.0, 0.0))
    bounds = [(part.lo, part.hi) for part, _values, _bytes in pieces]
    reference = ref.encode_row_lossy(flat, bounds, n_bins, bits, rng_ref)
    messages = level_messages([flat[lo:hi] for lo, hi in bounds], n_bins, bits, seed)
    assert len(pieces) == len(reference)
    for (part, values, piece_bytes), (ref_values, ref_bytes), (dense, message) in zip(
        pieces, reference, messages
    ):
        n_part = part.length // (2 * n_bins)
        zero_bins = np.zeros(n_part, dtype=np.int64)
        expected = fold(ref_values, zero_bins, n_bins, 0.0, 0.0)
        assert values.tobytes() == expected.tobytes()
        # The dense loop's scale bytes and its levels' smaller message,
        # plus the presence bitmap and the sums.
        assert piece_bytes == ref_bytes - dense + message + -(-n_part // 8) + SUMS_BYTES
    assert rng.bit_generator.state == rng_ref.bit_generator.state
