"""The block codec's billed payload is the length of a real message.

``BlockCompressedHistogram.payload_bytes`` bills a block-aligned run of
levels at the smaller of the dense packed form and a zero-level bitmap
plus the packed nonzero levels, without serializing either.  The
reference in ``tests/_reference_rowpath.py`` builds both messages for
real, on the frozen packer, and parses the one it keeps: the bill must be
that message's length, and the parse must give back the frame's dense
levels bit for bit, for every range of every frame drawn — all-zero,
all-nonzero and break-even ones (where the forms tie and the dense one
travels) included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.lowprec import BlockCompressedHistogram, compress_blocked
from repro.errors import DataError

from .. import _reference_rowpath as ref

KINDS = ["mixed", "all_zero", "all_nonzero", "break_even"]


def _dense(n, bits):
    return -(-n * bits // 8)


def _masked(n, nonzero, bits):
    return -(-n // 8) + -(-nonzero * bits // 8)


@st.composite
def frames(draw):
    """``(frame, kind)``: a frame of 1-8 blocks whose levels are drawn
    directly — signed level 0 is ``S`` stored shifted — and packed by the
    frozen packer."""
    bits = draw(st.sampled_from([2, 4, 8, 16]))
    block_size = draw(st.integers(1, 12))
    n_blocks = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(KINDS))
    n = n_blocks * block_size
    scale = (1 << (bits - 1)) - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if kind == "all_zero":
        n_nonzero = 0
    elif kind == "all_nonzero":
        n_nonzero = n
    elif kind == "break_even":
        ties = [k for k in range(n + 1) if _masked(n, k, bits) == _dense(n, bits)]
        if not ties:  # no count ties at this size: fall back to a mixed frame
            kind = "mixed"
        n_nonzero = draw(st.sampled_from(ties)) if ties else 0
    if kind == "mixed":
        n_nonzero = draw(st.integers(0, n))
    levels = np.full(n, scale, dtype=np.int64)
    at = rng.choice(n, size=n_nonzero, replace=False)
    offsets = rng.integers(1, scale + 1, size=n_nonzero)
    levels[at] = scale + np.where(rng.random(n_nonzero) < 0.5, -offsets, offsets)
    frame = BlockCompressedHistogram(
        payload=ref._pack(levels, bits),
        scales=rng.random(n_blocks).astype(np.float32),
        bits=bits,
        n_values=n,
        block_size=block_size,
    )
    return frame, kind


@settings(max_examples=300, deadline=None)
@given(frames())
def test_bill_is_the_smaller_real_message_and_parses_back(drawn):
    frame, kind = drawn
    bits, block = frame.bits, frame.block_size
    levels = ref._unpack(frame.payload, bits, frame.n_values)
    n_blocks = frame.n_values // block
    for a in range(n_blocks + 1):
        for b in range(a, n_blocks + 1):
            start, stop = a * block, b * block
            message = ref.serialize_levels(frame.payload, bits, start, stop)
            assert frame.payload_bytes(start, stop) == len(message)
            parsed = ref.parse_levels(message, bits, stop - start)
            assert parsed.tobytes() == levels[start:stop].tobytes()
    whole = frame.payload_bytes()
    assert frame.wire_bytes == whole + frame.scales.nbytes
    n = frame.n_values
    if kind == "all_zero":
        assert whole == min(_dense(n, bits), -(-n // 8))
    elif kind == "all_nonzero":
        assert whole == _dense(n, bits)  # the bitmap can only add bytes
    elif kind == "break_even":
        assert whole == _dense(n, bits)
        assert len(ref.serialize_levels(frame.payload, bits, 0, n)) == _dense(n, bits)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 4, 8, 16]),
    st.integers(1, 6),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
)
def test_encoded_zeros_are_zero_levels(bits, n_blocks, density, seed):
    """Every exact zero the codec sees is a zero level: a histogram with
    ``z`` zeros is billed at most ``ceil(n / 8) + ceil((n - z) * d / 8)``,
    and the bill is still the length of the real message."""
    rng = np.random.default_rng(seed)
    block = 20
    flat = rng.normal(size=n_blocks * block) * (rng.random(n_blocks * block) < density)
    frame = compress_blocked(flat, block, bits, rng)
    n = flat.size
    assert frame.payload_bytes() <= _masked(n, int(np.count_nonzero(flat)), bits)
    message = ref.serialize_levels(frame.payload, bits, 0, n)
    assert frame.payload_bytes() == len(message)


def test_tie_goes_to_the_dense_form():
    # 8 values at 8 bits: 7 nonzero levels cost 1 + 7 bytes, as many as
    # the dense 8; one zero more and the bitmap form is smaller.
    levels = np.full(8, 127, dtype=np.int64)
    levels[:7] = 3
    frame = BlockCompressedHistogram(
        ref._pack(levels, 8), np.ones(1, dtype=np.float32), 8, 8, 8
    )
    assert frame.payload_bytes() == 8
    assert ref.serialize_levels(frame.payload, 8, 0, 8) == frame.payload.tobytes()
    levels[6] = 127
    frame = BlockCompressedHistogram(
        ref._pack(levels, 8), np.ones(1, dtype=np.float32), 8, 8, 8
    )
    assert frame.payload_bytes() == 7


@pytest.mark.parametrize("start, stop", [(-4, 8), (2, 8), (0, 6), (8, 4), (0, 12)])
def test_unaligned_or_outside_range_is_rejected(start, stop):
    frame = compress_blocked(np.arange(8.0), 4, 8, np.random.default_rng(0))
    with pytest.raises(DataError, match="block-aligned"):
        frame.payload_bytes(start, stop)
