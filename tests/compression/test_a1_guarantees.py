"""Appendix A.1's codec guarantees as properties, for both lossy encoders.

``compress_blocked`` (one scale per block) and the lossy branch of
``ParameterServerGroup.encode_row`` (the same codec over the features a
presence bitmap marks) must each keep, for every block of ``K`` values
with maximum magnitude ``c`` and integer scale ``S = 2**(d-1) - 1``:

* **bounded error** — every decoded value within ``c / S`` of its input;
* **exact zeros** — an input zero decodes to ``+0.0``;
* **unbiasedness** — the mean of ``N`` independent decodes lies within
  ``6 * c / (2 * S * sqrt(N))`` of the input (six standard errors of a
  stochastic rounding, whose variance is at most ``(c / S)**2 / 4``).

``encode_row`` runs the codec on the residual left once the node sums
are subtracted from the zero buckets; the guarantees above are checked
at zero sums, where the residual is the input.  One more guarantee is
its own: **exact absent features** — a feature whose residual is all
zeros (the builder's closed form: zeros but the sums in its zero
buckets) is stored bit for bit as the lossless push stores it.

Each bound carries a relative ``2**-20`` of ``c`` for the float32 wire
scale and float64 arithmetic.  Magnitudes stay inside float32's normal
range: a block whose maximum is below it ships a zero scale.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import compress_blocked, decompress_blocked
from repro.ps import ParameterServerGroup, SlabLayout

BITS = st.sampled_from([2, 4, 8, 16])
SLACK = 2.0**-20


@st.composite
def blocks(draw, block_size, multiple=1):
    """``(n_blocks, block_size)`` values, ``n_blocks`` a multiple of
    ``multiple``: zero blocks, sparse blocks and dense blocks, each at its
    own magnitude within 1e-30 .. 1e30."""
    n_blocks = multiple * draw(st.integers(min_value=1, max_value=24 // multiple))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    values = np.zeros((n_blocks, block_size))
    for block in values:
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        magnitude = 10.0 ** draw(st.integers(-30, 30))
        if kind == "sparse":
            block[:] = rng.normal(size=block_size) * (rng.random(block_size) < 0.3)
        elif kind == "dense":
            block[:] = rng.normal(size=block_size)
        block *= magnitude
    return values


def block_maxima(values: np.ndarray) -> np.ndarray:
    return np.abs(values).max(axis=1, keepdims=True)


def assert_bounded_error(decoded: np.ndarray, values: np.ndarray, bits: int) -> None:
    scale = (1 << (bits - 1)) - 1
    c = block_maxima(values)
    assert np.all(np.abs(decoded - values) <= c / scale + SLACK * c)


def assert_exact_zeros(decoded: np.ndarray, values: np.ndarray) -> None:
    zeros = decoded[values == 0.0]
    assert not zeros.any() and not np.signbit(zeros).any()


def assert_unbiased(mean: np.ndarray, values: np.ndarray, bits: int, n: int) -> None:
    scale = (1 << (bits - 1)) - 1
    c = block_maxima(values)
    tolerance = 6.0 * c / (2.0 * scale * np.sqrt(n)) + SLACK * c
    assert np.all(np.abs(mean - values) <= tolerance)


class TestCompressBlocked:
    @settings(max_examples=120, deadline=None)
    @given(st.data(), BITS, st.sampled_from([1, 3, 20, 21]), st.integers(0, 2**31 - 1))
    def test_error_bound_and_exact_zeros(self, data, bits, block_size, seed):
        values = data.draw(blocks(block_size))
        rng = np.random.default_rng(seed)
        decoded = decompress_blocked(
            compress_blocked(values.ravel(), block_size, bits, rng)
        ).reshape(values.shape)
        assert_bounded_error(decoded, values, bits)
        assert_exact_zeros(decoded, values)

    @settings(max_examples=25, deadline=None)
    @given(st.data(), BITS, st.sampled_from([1, 3, 20]), st.integers(0, 2**31 - 1))
    def test_mean_of_decodes_is_unbiased(self, data, bits, block_size, seed):
        values = data.draw(blocks(block_size))
        n = 4000
        # N copies of every block in one encode: each copy draws its own
        # dither, as N separate encodes would.
        tiled = np.tile(values, (n, 1))
        decoded = decompress_blocked(
            compress_blocked(tiled.ravel(), block_size, bits, np.random.default_rng(seed))
        )
        mean = decoded.reshape(n, *values.shape).mean(axis=0)
        assert_unbiased(mean, values, bits, n)


def feature_row(values: np.ndarray, n_bins: int):
    """A ``"hist"`` row of ``values`` read as per-feature ``[g, h]``
    histograms (``2 * n_bins`` values each), over three servers."""
    n_features = values.size // (2 * n_bins)
    group = ParameterServerGroup(3)
    layout = SlabLayout(n_features, n_bins, np.zeros(n_features, dtype=np.int64))
    group.register("hist", values.size, align=2 * n_bins, layout=layout)
    return group


def encode_decode(group, flat: np.ndarray, bits: int, rng) -> np.ndarray:
    pieces = group.encode_row("hist", flat, bits, rng, sums=(0.0, 0.0))
    return np.concatenate([values for _part, values, _bytes in pieces])


class TestEncodeRow:
    """The same guarantees through the presence bitmap: blocks are the
    ``K``-value g- and h-histograms, absent features are all-zero."""

    @settings(max_examples=80, deadline=None)
    @given(st.data(), BITS, st.sampled_from([1, 3, 21]), st.integers(0, 2**31 - 1))
    def test_error_bound_and_exact_zeros(self, data, bits, n_bins, seed):
        values = data.draw(blocks(n_bins, multiple=2))
        group = feature_row(values, n_bins)
        decoded = encode_decode(
            group, values.ravel(), bits, np.random.default_rng(seed)
        ).reshape(values.shape)
        assert_bounded_error(decoded, values, bits)
        assert_exact_zeros(decoded, values)

    @settings(max_examples=15, deadline=None)
    @given(st.data(), BITS, st.sampled_from([1, 3, 21]), st.integers(0, 2**31 - 1))
    def test_mean_of_decodes_is_unbiased(self, data, bits, n_bins, seed):
        values = data.draw(blocks(n_bins, multiple=2))
        group = feature_row(values, n_bins)
        rng = np.random.default_rng(seed)
        n = 1000
        total = np.zeros(values.size)
        for _ in range(n):
            total += encode_decode(group, values.ravel(), bits, rng)
        assert_unbiased((total / n).reshape(values.shape), values, bits, n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.data(),
        BITS,
        st.sampled_from([1, 3, 21]),
        st.integers(1, 4),
        st.integers(0, 2**31 - 1),
    )
    def test_absent_features_store_the_lossless_bits(
        self, data, bits, n_bins, n_workers, seed
    ):
        n_features = data.draw(st.integers(min_value=1, max_value=30))
        rng = np.random.default_rng(seed)
        width = 2 * n_bins
        zero_bins = rng.integers(0, n_bins, size=n_features)
        layout = SlabLayout(n_features, n_bins, zero_bins)
        groups = {}
        for bits_or_zero in (bits, 0):
            groups[bits_or_zero] = ParameterServerGroup(3)
            groups[bits_or_zero].register(
                "hist", n_features * width, align=width, layout=layout
            )
        touched = np.zeros(n_features, dtype=bool)
        features = np.arange(n_features)
        for worker in range(n_workers):
            present = rng.random(n_features) < 0.5
            touched |= present
            residual = np.zeros((n_features, width))
            residual[present] = rng.normal(size=(int(present.sum()), width))
            sums = (float(rng.normal() * 1e3), float(rng.random() * 1e3))
            flat = residual.copy()
            flat[features, zero_bins] += sums[0]
            flat[features, n_bins + zero_bins] += sums[1]
            for push_bits, group in groups.items():
                group.push_row(
                    "hist",
                    0,
                    flat.ravel(),
                    push_bits,
                    np.random.default_rng(worker),
                    sums=sums,
                )
        lossy, _ = groups[bits].pull_row("hist", 0)
        lossless, _ = groups[0].pull_row("hist", 0)
        absent = ~touched
        assert (
            lossy.reshape(n_features, width)[absent].tobytes()
            == lossless.reshape(n_features, width)[absent].tobytes()
        )
