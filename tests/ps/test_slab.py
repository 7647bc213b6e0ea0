"""Tests for sparse histogram slabs (block-distributed pushes)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.cluster.costmodel import compressed_slab_bytes, sparse_slab_bytes
from repro.compression.lowprec import compress_blocked
from repro.errors import PSError
from repro.ps import (
    ParameterServerGroup,
    PSServer,
    SlabLayout,
    SparseSlab,
    compress_slab,
    slab_from_flat,
)
from repro.ps.partitioner import Partition
from repro.ps.slab import SLAB_HEADER_BYTES, CompressedSlab, presence_bytes

M, K = 8, 4  # features, bins
WIDTH = 2 * K


def make_layout(n_features: int = M) -> SlabLayout:
    return SlabLayout(
        n_features=n_features,
        n_bins=K,
        zero_bins=np.arange(n_features, dtype=np.int64) % K,
    )


def dense_row(rng, present, sum_g, sum_h, layout, col_lo=0, col_hi=M):
    """The dense flat row a slab over [col_lo, col_hi) should reconstruct."""
    row = np.zeros(layout.row_length, dtype=np.float64)
    view = row.reshape(layout.n_features, 2, K)
    for f in range(col_lo, col_hi):
        if f in present:
            view[f] = rng.normal(size=(2, K))
        else:
            view[f, 0, layout.zero_bins[f]] = sum_g
            view[f, 1, layout.zero_bins[f]] = sum_h
    return row


def slab_of(row, present, layout, col_lo=0, col_hi=M, sum_g=0.0, sum_h=0.0):
    present = np.asarray(sorted(present), dtype=np.int64)
    segments = row.reshape(layout.n_features, WIDTH)[present]
    return SparseSlab(
        col_lo=col_lo,
        col_hi=col_hi,
        features=present,
        values=segments,
        sum_g=sum_g,
        sum_h=sum_h,
    )


class TestSlabLayout:
    def test_widths(self):
        layout = make_layout()
        assert layout.feature_width == WIDTH
        assert layout.row_length == M * WIDTH

    def test_rejects_bad_dims(self):
        with pytest.raises(PSError, match="positive dims"):
            SlabLayout(0, K, np.zeros(0, dtype=np.int64))

    def test_rejects_wrong_zero_bins_shape(self):
        with pytest.raises(PSError, match="one entry per feature"):
            SlabLayout(M, K, np.zeros(M - 1, dtype=np.int64))

    def test_rejects_out_of_range_zero_bins(self):
        bad = np.zeros(M, dtype=np.int64)
        bad[0] = K
        with pytest.raises(PSError, match="lie in"):
            SlabLayout(M, K, bad)


class TestSparseSlab:
    def test_rejects_unsorted_features(self):
        with pytest.raises(PSError, match="strictly increasing"):
            SparseSlab(0, M, np.array([3, 1]), np.zeros((2, WIDTH)), 0.0, 0.0)

    def test_rejects_features_outside_stripe(self):
        with pytest.raises(PSError, match="stripe"):
            SparseSlab(2, 5, np.array([1]), np.zeros((1, WIDTH)), 0.0, 0.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(PSError, match="does not match"):
            SparseSlab(0, M, np.array([1, 2]), np.zeros((3, WIDTH)), 0.0, 0.0)

    def test_wire_bytes(self):
        slab = SparseSlab(
            0, M, np.array([1, 4, 6]), np.zeros((3, WIDTH)), 0.0, 0.0
        )
        # Header, a tag byte, a 1-byte bitmap of the 8 features (smaller
        # than 3 ids), three features' 32 bytes of float32 values.
        assert slab.wire_bytes == 16 + 1 + 1 + 3 * 32 == 114
        # Range covering one listed feature of two: the bitmap still wins.
        assert slab.wire_bytes_for(4, 6) == 16 + 1 + 1 + 32 == 50
        # Range inside the stripe but missing every listed feature still
        # costs a header and the tag: the sums must still travel there.
        assert slab.wire_bytes_for(2, 4) == SLAB_HEADER_BYTES + 1 == 17
        # Range entirely outside the stripe: no message at all.
        assert slab.wire_bytes_for(M, M + 4) == 0

    def test_presence_takes_the_smaller_of_ids_and_bitmap(self):
        """A share of F features with P present names them in
        ``min(4P, ceil(F/8))`` bytes after a tag byte; the cost model's
        closed forms bill the ids, so they bound the bill from above,
        the P = 0 share included."""
        n_features, n_bins = 100, 3
        for present, presence in ((0, 1), (1, 5), (3, 13), (4, 14), (60, 14)):
            features = np.linspace(0, n_features - 1, present).astype(np.int64)
            slab = SparseSlab(
                0, n_features, features, np.ones((present, 2 * n_bins)), 0.0, 0.0
            )
            assert presence_bytes(present, n_features) == presence
            assert slab.wire_bytes == 16 + presence + present * 2 * n_bins * 4
            assert slab.wire_bytes <= sparse_slab_bytes(present, n_bins)
            layout = SlabLayout(
                n_features, n_bins, np.zeros(n_features, dtype=np.int64)
            )
            for bits in (2, 4, 8):
                comp = compress_slab(slab, layout, bits, np.random.default_rng(0))
                assert comp.wire_bytes <= compressed_slab_bytes(present, n_bins, bits)

    def test_slab_from_flat(self):
        """``flat`` holds exactly the listed features' segments, in order,
        and the slab wraps it without a copy."""
        rng = np.random.default_rng(0)
        flat = rng.normal(size=2 * WIDTH)
        slab = slab_from_flat(
            flat, np.array([0, 2]), col_lo=5, col_hi=8, n_bins=K,
            sum_g=1.5, sum_h=2.5,
        )
        np.testing.assert_array_equal(slab.features, [5, 7])
        np.testing.assert_array_equal(slab.values, flat.reshape(2, WIDTH))
        assert np.shares_memory(slab.values, flat)
        assert slab.sum_g == 1.5 and slab.sum_h == 2.5

    def test_slab_from_flat_size_check(self):
        """One segment per listed feature: a whole-stripe flat is refused."""
        with pytest.raises(PSError, match="need"):
            slab_from_flat(
                np.zeros(3 * WIDTH), np.array([0]), 0, 3, K, 0.0, 0.0
            )


@pytest.fixture()
def server() -> PSServer:
    s = PSServer(0)
    s.register(
        "hist",
        [Partition(0, 0, M * WIDTH, 0)],
        layout=make_layout(),
    )
    return s


class TestServerSlabPush:
    def test_slab_equals_dense_push(self, server):
        """One stripe's slab push must equal the dense push of the row it
        encodes — bit for bit, including reconstructed empty features."""
        rng = np.random.default_rng(1)
        layout = make_layout()
        row = dense_row(rng, {1, 3}, sum_g=0.75, sum_h=1.25, layout=layout)
        slab = slab_of(row, {1, 3}, layout, sum_g=0.75, sum_h=1.25)
        server.handle_push_slab("hist", 0, 0, slab, seq=("t", 0))
        server.handle_push("hist", 1, 0, row, seq=("t", 1))
        np.testing.assert_array_equal(
            server.handle_pull("hist", 0, 0), server.handle_pull("hist", 1, 0)
        )

    def test_stripe_restriction(self, server):
        """A slab contributes nothing outside its stripe: other stripes'
        features stay exactly zero, not sum-reconstructed."""
        layout = make_layout()
        slab = SparseSlab(2, 5, np.empty(0, dtype=np.int64),
                          np.empty((0, WIDTH)), sum_g=3.0, sum_h=4.0)
        server.handle_push_slab("hist", 0, 0, slab, seq=("t", 0))
        stored = server.handle_pull("hist", 0, 0).reshape(M, 2, K)
        for f in range(M):
            expect = np.zeros((2, K))
            if 2 <= f < 5:
                expect[0, layout.zero_bins[f]] = 3.0
                expect[1, layout.zero_bins[f]] = 4.0
            np.testing.assert_array_equal(stored[f], expect)

    def test_duplicate_seq_not_reapplied(self, server):
        layout = make_layout()
        slab = SparseSlab(0, M, np.empty(0, dtype=np.int64),
                          np.empty((0, WIDTH)), sum_g=1.0, sum_h=1.0)
        server.handle_push_slab("hist", 0, 0, slab, seq=(0, 7))
        once = server.handle_pull("hist", 0, 0).copy()
        server.handle_push_slab("hist", 0, 0, slab, seq=(0, 7))
        np.testing.assert_array_equal(server.handle_pull("hist", 0, 0), once)
        assert server.duplicate_pushes == 1

    def test_requires_layout(self):
        s = PSServer(0)
        s.register("plain", [Partition(0, 0, M * WIDTH, 0)])
        slab = SparseSlab(0, M, np.empty(0, dtype=np.int64),
                          np.empty((0, WIDTH)), 0.0, 0.0)
        with pytest.raises(PSError, match="no histogram layout"):
            s.handle_push_slab("plain", 0, 0, slab, seq=None)

    def test_bytes_accounting(self):
        group = ParameterServerGroup(n_servers=1)
        group.register("hist", M * WIDTH, align=WIDTH, layout=make_layout())
        slab = SparseSlab(0, M, np.array([2]), np.zeros((1, WIDTH)), 0.0, 0.0)
        stats = group.push_slab("hist", 0, slab)
        assert (stats.bytes_up, stats.messages) == (slab.wire_bytes, 1)


def _compressed(features, values, col_lo=0, col_hi=M, sum_g=0.5, sum_h=1.5, n_bins=K):
    """A CompressedSlab header over an honestly encoded payload."""
    blocked = compress_blocked(
        np.asarray(values, dtype=np.float64).ravel(), n_bins, 8, np.random.default_rng(0)
    )
    return CompressedSlab(col_lo, col_hi, np.asarray(features), blocked, sum_g, sum_h, n_bins)


#: Headers a server must not trust.  ``CompressedSlab`` used to carry its
#: own ``zero_bins`` (``[0, K]`` leaked an IndexError, ``[0, -1]`` folded
#: the sums into the wrong bucket): the field is gone — the server reads
#: the layout it registered — and a header that lies about ``K`` is the
#: case that remains of it.
HOSTILE_SLABS = {
    "nan-sum": lambda: _compressed([1, 3], np.ones((2, WIDTH)), sum_g=float("nan")),
    "inf-sum-plain": lambda: SparseSlab(
        0, M, np.array([1]), np.ones((1, WIDTH)), 0.0, float("inf")
    ),
    "unsorted-features": lambda: _compressed([3, 1], np.ones((2, WIDTH))),
    "features-outside-stripe": lambda: _compressed(
        [1, 6], np.ones((2, WIDTH)), col_lo=0, col_hi=5
    ),
    "header-lies-about-K": lambda: _compressed(
        [1, 3], np.ones((2, 4 * K)), n_bins=2 * K
    ),
    "stripe-past-the-layout": lambda: SparseSlab(
        4, M + 3, np.array([M + 1]), np.ones((1, WIDTH)), 0.0, 0.0
    ),
    "block-straddles-features": lambda: CompressedSlab(
        0, M, np.array([1, 2, 3]),
        compress_blocked(np.ones(3 * WIDTH), 3 * K, 8, np.random.default_rng(0)),
        0.0, 0.0, K,
    ),
}


class TestHostileSlabHeaders:
    """A slab the server refuses raises ``PSError`` — never a numpy error —
    and leaves no row and no token behind, whether it
    arrives alone or behind honest entries of a window."""

    def snapshot(self, server):
        return (
            server.stored_rows("hist"),
            {row: {pid: set(tokens) for pid, tokens in parts.items()}
             for row, parts in server._applied["hist"].items()},
            [server.handle_pull("hist", row, 0).tobytes() for row in server.stored_rows("hist")],
        )

    def test_the_zero_bins_field_is_gone(self):
        assert "zero_bins" not in {f.name for f in dataclasses.fields(CompressedSlab)}

    @pytest.mark.parametrize("case", HOSTILE_SLABS.values(), ids=HOSTILE_SLABS.keys())
    @pytest.mark.parametrize("windowed", [False, True], ids=["slab", "window"])
    def test_rejected_before_anything_is_recorded(self, server, case, windowed):
        honest = _compressed([0, 2], np.full((2, WIDTH), 0.25))
        server.handle_push_slab("hist", 7, 0, honest, seq=("t", 0))
        before = self.snapshot(server)
        with pytest.raises(PSError):
            if windowed:
                # Honest entries first: they must not land either.
                server.handle_push_window(
                    "hist", 0, [(7, honest), (8, honest), (9, case())], seq=("t", 1, 0)
                )
            else:
                server.handle_push_slab("hist", 9, 0, case(), seq=("t", 1))
        assert self.snapshot(server) == before
        # The same token is still fresh: a corrected retry applies.
        server.handle_push_slab("hist", 9, 0, honest, seq=("t", 1))
        assert server.stored_rows("hist") == [7, 9] and server.duplicate_pushes == 0


class TestGroupSlabPush:
    @pytest.fixture()
    def group(self) -> ParameterServerGroup:
        g = ParameterServerGroup(n_servers=3)
        g.register(
            "hist",
            row_length=M * WIDTH,
            align=WIDTH,
            layout=make_layout(),
        )
        return g

    def test_stripes_sum_to_dense(self, group):
        """Pushing every stripe's slab equals one dense push of the whole
        row — the end-to-end contract block-sharded training relies on."""
        rng = np.random.default_rng(2)
        layout = make_layout()
        sums = [(0.5, 1.0), (2.0, 0.25)]
        stripes = [(0, 4), (4, 8)]
        present = [{1, 2}, {6}]
        dense = np.zeros(layout.row_length, dtype=np.float64)
        for (lo, hi), (sg, sh), pres in zip(stripes, sums, present):
            piece = dense_row(rng, pres, sg, sh, layout, lo, hi)
            dense += piece
            slab = slab_of(piece, pres, layout, lo, hi, sg, sh)
            group.push_slab("hist", 0, slab, seq=None)
        group.push_row("hist", 1, dense, seq=None)
        a, _ = group.pull_row("hist", 0)
        b, _ = group.pull_row("hist", 1)
        np.testing.assert_array_equal(a, b)

    def test_partition_share_billing(self, group):
        slab = SparseSlab(0, M, np.array([0, 7]),
                          np.ones((2, WIDTH)), 1.0, 1.0)
        stats = group.push_slab("hist", 0, slab, seq=None)
        part = group.partitioner("hist")
        shares = [
            slab.wire_bytes_for(p.lo // WIDTH, p.hi // WIDTH)
            for p in part.partitions
        ]
        assert stats.bytes_up == sum(s for s in shares if s > 0)
        assert stats.messages == sum(1 for s in shares if s > 0)

    def test_requires_layout(self, group):
        group.register("plain", row_length=M * WIDTH, align=WIDTH)
        slab = SparseSlab(0, M, np.empty(0, dtype=np.int64),
                          np.empty((0, WIDTH)), 0.0, 0.0)
        with pytest.raises(PSError, match="without a slab layout"):
            group.push_slab("plain", 0, slab, seq=None)

    def test_layout_length_mismatch(self):
        g = ParameterServerGroup(n_servers=2)
        with pytest.raises(PSError):
            g.register("hist", row_length=10, align=1, layout=make_layout())
