"""Tests for the per-block (per-feature-histogram) codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import (
    BlockCompressedHistogram,
    CompressedHistogram,
    compress_blocked,
    compress_flat,
    decompress_blocked,
    decompress_flat,
)
from repro.errors import DataError

from .. import _reference_rowpath as ref


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([2, 4, 8, 16]),
        st.sampled_from([1, 4, 10, 20]),
    )
    def test_per_block_error_bound(self, seed, bits, block_size):
        """Error in each block is bounded by that block's own scale."""
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(1, 8))
        values = rng.normal(size=n_blocks * block_size) * (
            10.0 ** rng.integers(-2, 3)
        )
        compressed = compress_blocked(values, block_size, bits, rng)
        decoded = decompress_blocked(compressed)
        scale = (1 << (bits - 1)) - 1
        blocks = values.reshape(n_blocks, block_size)
        err = np.abs(decoded.reshape(n_blocks, block_size) - blocks)
        bounds = np.abs(blocks).max(axis=1) / scale + 1e-12
        assert np.all(err <= bounds[:, None] + 1e-9)

    def test_zero_block_stays_zero(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([np.zeros(4), np.ones(4)])
        decoded = decompress_blocked(compress_blocked(values, 4, 8, rng))
        np.testing.assert_array_equal(decoded[:4], np.zeros(4))

    def test_heterogeneous_scales_beat_global_scale(self):
        """The motivating case: one huge block next to tiny blocks."""
        rng = np.random.default_rng(1)
        tiny = rng.normal(size=20) * 0.01
        huge = rng.normal(size=20) * 1000.0
        values = np.concatenate([tiny, huge])
        blocked = decompress_blocked(compress_blocked(values, 20, 8, rng))
        flat = decompress_flat(compress_flat(values, 8, rng))
        err_blocked = np.abs(blocked[:20] - tiny).max()
        err_flat = np.abs(flat[:20] - tiny).max()
        assert err_blocked < err_flat / 10

    def test_unbiased(self):
        rng = np.random.default_rng(2)
        values = np.array([0.1, -0.5, 3.0, -7.0])
        acc = np.zeros_like(values)
        trials = 4000
        for _ in range(trials):
            acc += decompress_blocked(compress_blocked(values, 2, 8, rng))
        np.testing.assert_allclose(acc / trials, values, atol=5e-3)


class TestWireFormat:
    def test_wire_bytes_include_scales(self):
        rng = np.random.default_rng(0)
        compressed = compress_blocked(np.ones(100), 20, 8, rng)
        assert compressed.wire_bytes == 100 + 5 * 4  # payload + 5 scales

    def test_ratio_accounts_for_scales(self):
        rng = np.random.default_rng(0)
        compressed = compress_blocked(np.ones(400), 20, 8, rng)
        assert compressed.compression_ratio == pytest.approx(
            400 * 4 / (400 + 20 * 4)
        )

    def test_bit_packing_small_widths(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=40)
        for bits in (2, 4):
            compressed = compress_blocked(values, 8, bits, rng)
            per_byte = 8 // bits
            assert compressed.payload.nbytes == 40 // per_byte
            decoded = decompress_blocked(compressed)
            assert decoded.shape == values.shape

    def test_dataclass(self):
        rng = np.random.default_rng(0)
        compressed = compress_blocked(np.ones(8), 4, 8, rng)
        assert isinstance(compressed, BlockCompressedHistogram)
        assert compressed.block_size == 4
        assert compressed.n_values == 8


class TestValidation:
    def test_length_not_multiple(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError, match="multiple"):
            compress_blocked(np.ones(7), 3, 8, rng)

    def test_bad_bits(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            compress_blocked(np.ones(4), 2, 5, rng)

    def test_bad_block_size(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            compress_blocked(np.ones(4), 0, 8, rng)

    def test_rejects_nan(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            compress_blocked(np.array([1.0, np.nan]), 2, 8, rng)

    def test_rejects_2d(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DataError):
            compress_blocked(np.ones((2, 2)), 2, 8, rng)


# ----------------------------------------------------------------------
# PR 19: the in-place kernel against the frozen one, bit for bit
# ----------------------------------------------------------------------


BLOCK_KINDS = ["zero", "residue", "sparse", "dense", "subnormal", "pm_max"]


@st.composite
def histogram_slices(draw):
    """``(flat, n_blocks, block_size)`` with the block kinds a histogram
    slice holds: all-zero, a lone 1e-17 zero-bucket residue, a value at
    +max or -max of its block, subnormals, and ordinary sparse mass."""
    block_size = draw(st.sampled_from([1, 2, 3, 4, 10, 20, 40]))
    n_blocks = draw(st.integers(min_value=0, max_value=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    blocks = np.zeros((n_blocks, block_size), dtype=np.float64)
    for block in blocks:
        kind = draw(st.sampled_from(BLOCK_KINDS))
        if kind == "residue":
            block[rng.integers(block_size)] = rng.choice([1e-17, -1e-17])
        elif kind == "sparse":
            block[:] = rng.normal(size=block_size) * (rng.random(block_size) < 0.25)
        elif kind == "dense":
            block[:] = rng.normal(size=block_size) * 10.0 ** rng.integers(-8, 9)
        elif kind == "subnormal":
            block[:] = rng.integers(-3, 4, size=block_size) * 5e-324
        elif kind == "pm_max":
            top = float(rng.random() + 0.5)
            block[:] = rng.choice([top, -top, 0.0, top / 3], size=block_size)
    return blocks.ravel(), n_blocks, block_size


class TestMatchesFrozenReference:
    @settings(max_examples=150, deadline=None)
    @given(
        histogram_slices(), st.sampled_from([2, 4, 8, 16]), st.integers(0, 2**31 - 1)
    )
    def test_same_bits_and_same_rng_state(self, drawn, bits, seed):
        flat, n_blocks, block_size = drawn
        rng_old, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
        payload, scales = ref.compress_blocked(flat, block_size, bits, rng_old)
        frame = compress_blocked(flat, block_size, bits, rng_new)

        assert frame.payload.dtype == payload.dtype
        assert frame.payload.tobytes() == payload.tobytes()
        assert frame.scales.dtype == scales.dtype
        assert frame.scales.tobytes() == scales.tobytes()
        # Billed: the smaller real message of the levels, plus the scales.
        message = ref.serialize_levels(payload, bits, 0, flat.size)
        assert frame.wire_bytes == len(message) + scales.nbytes
        assert (frame.n_values, frame.block_size) == (flat.size, block_size)
        # The dither stream is part of the model bits: the kernel must
        # leave the generator exactly where the old one did.
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

        old = ref.decompress_blocked(payload, scales, bits, flat.size, block_size)
        new = decompress_blocked(frame)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()  # signbit of zeros included

    def test_input_is_not_written(self):
        flat = np.random.default_rng(0).normal(size=200)
        before = flat.copy()
        frame = compress_blocked(flat, 20, 8, np.random.default_rng(1))
        decompress_blocked(frame)[:] = 0.0  # the decode is the caller's to keep
        np.testing.assert_array_equal(flat, before)

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    def test_clip_holds_the_top_level(self, bits):
        """With the largest dither a generator can return, ``S + u`` rounds
        up to ``S + 1`` at a block's positive maximum; the clip is what
        keeps the level at ``+S`` (unsigned ``2 S``)."""

        class AlmostOne:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        scale = (1 << (bits - 1)) - 1
        assert np.floor(scale + np.nextafter(1.0, 0.0)) == scale + 1
        flat = np.array([2.5, -2.5, 0.0, 1.0])
        frame = compress_blocked(flat, 4, bits, AlmostOne())
        decoded = decompress_blocked(frame)
        assert decoded[0] == 2.5  # level +S exactly, not S + 1 wrapped
        assert np.abs(decoded).max() <= 2.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_still_rejected_before_any_draw(self, bad):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        flat = np.zeros(60)
        flat[41] = bad
        with pytest.raises(DataError, match="non-finite"):
            compress_blocked(flat, 20, 8, rng)
        assert rng.bit_generator.state == state


class TestFrameValidation:
    """A frame checks itself at construction: a truncated or mis-sized one
    must not reach ``reshape`` / broadcasting (numpy ``ValueError``) or
    decode silently wrong."""

    def good(self, **changes):
        frame = compress_blocked(np.arange(40.0), 20, 8, np.random.default_rng(0))
        fields = {
            "payload": frame.payload,
            "scales": frame.scales,
            "bits": frame.bits,
            "n_values": frame.n_values,
            "block_size": frame.block_size,
        }
        fields.update(changes)
        return BlockCompressedHistogram(**fields)

    def test_well_formed_frame_is_accepted(self):
        assert self.good().n_values == 40

    @pytest.mark.parametrize(
        "changes",
        [
            {"bits": 5},
            {"bits": 16},  # payload is half of what 16 bits need
            {"payload": np.zeros(39, dtype=np.uint8)},  # truncated
            {"payload": np.zeros(41, dtype=np.uint8)},  # overlong
            {"payload": np.zeros(40, dtype=np.int64)},
            {"payload": np.zeros((2, 20), dtype=np.uint8)},
            {"block_size": 0},
            {"block_size": 3},  # does not divide 40
            {"block_size": 10},  # 4 blocks, 2 scales
            {"n_values": 60},
            {"n_values": -20},
            {"scales": np.zeros(3, dtype=np.float32)},
            {"scales": np.array([1.0, np.nan], dtype=np.float32)},
            {"scales": np.array([1.0, np.inf], dtype=np.float32)},
            {"scales": np.array([1.0, -2.0], dtype=np.float32)},
        ],
    )
    def test_malformed_block_frame_rejected(self, changes):
        with pytest.raises(DataError):
            self.good(**changes)

    def test_sub_byte_payload_length(self):
        rng = np.random.default_rng(0)
        frame = compress_blocked(np.arange(6.0), 3, 2, rng)  # 6 values, 2 bytes
        with pytest.raises(DataError, match="payload"):
            BlockCompressedHistogram(frame.payload[:1], frame.scales, 2, 6, 3)

    @pytest.mark.parametrize(
        "changes",
        [
            {"bits": 3},
            {"payload": np.zeros(7, dtype=np.uint8)},
            {"n_values": 9},
            {"scale_max": float("nan")},
            {"scale_max": float("inf")},
            {"scale_max": -1.0},
        ],
    )
    def test_malformed_flat_frame_rejected(self, changes):
        frame = compress_flat(np.arange(8.0), 8, np.random.default_rng(0))
        fields = {
            "payload": frame.payload,
            "scale_max": frame.scale_max,
            "bits": frame.bits,
            "n_values": frame.n_values,
        }
        assert CompressedHistogram(**fields).n_values == 8
        fields.update(changes)
        with pytest.raises(DataError):
            CompressedHistogram(**fields)

    def test_empty_frame(self):
        frame = compress_blocked(np.empty(0), 20, 8, np.random.default_rng(0))
        assert frame.wire_bytes == 0
        assert decompress_blocked(frame).shape == (0,)


class TestRangeDecode:
    """``decompress_blocked(frame, start, stop)``: what a server partition
    decodes of a slab — the floats the full decode holds there, bit for bit
    (sign of zero included), wherever the range starts inside a byte."""

    @pytest.mark.parametrize("bits", [2, 4, 8, 16])
    @pytest.mark.parametrize("block_size", [1, 3, 5, 10])  # odd: 2-bit ranges start mid-byte
    def test_every_block_range_equals_the_full_decode(self, bits, block_size):
        rng = np.random.default_rng(bits * 31 + block_size)
        n_blocks = 7
        values = rng.normal(size=n_blocks * block_size)
        values[block_size : 2 * block_size] = 0.0  # a zero-scale block
        frame = compress_blocked(values, block_size, bits, rng)
        full = decompress_blocked(frame)
        for first in range(n_blocks + 1):
            for last in range(first, n_blocks + 1):
                part = decompress_blocked(frame, first * block_size, last * block_size)
                assert part.tobytes() == full[first * block_size : last * block_size].tobytes()
                assert part.flags.writeable and not np.shares_memory(part, frame.payload)

    @pytest.mark.parametrize("start, stop", [(2, 8), (0, 9), (-4, 4), (8, 4), (0, 32)])
    def test_misaligned_or_outside_range_rejected(self, start, stop):
        frame = compress_blocked(np.ones(28), 4, 8, np.random.default_rng(0))
        with pytest.raises(DataError, match="block-aligned"):
            decompress_blocked(frame, start, stop)
