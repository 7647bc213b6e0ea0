"""Tests for the parameter-server group facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PSError
from repro.ps import ParameterServerGroup, SlabLayout
from repro.sketch import GKSketch, SketchBatch, WeightedGKSketch

#: Node sums that fold nothing into the zero buckets.
ZERO = (0.0, 0.0)


@pytest.fixture()
def group() -> ParameterServerGroup:
    g = ParameterServerGroup(n_servers=4)
    g.register("hist", row_length=64, align=8)
    return g


class TestPushPull:
    def test_roundtrip(self, group, rng):
        flat = rng.normal(size=64)
        group.push_row("hist", 0, flat)
        pulled, _ = group.pull_row("hist", 0)
        np.testing.assert_allclose(pulled, flat, atol=1e-12)

    def test_additive_merge_across_workers(self, group, rng):
        flats = [rng.normal(size=64) for _ in range(5)]
        for flat in flats:
            group.push_row("hist", 3, flat)
        pulled, _ = group.pull_row("hist", 3)
        np.testing.assert_allclose(pulled, np.sum(flats, axis=0), atol=1e-9)

    def test_push_wrong_length(self, group):
        with pytest.raises(PSError):
            group.push_row("hist", 0, np.ones(63))

    def test_unregistered_parameter(self, group):
        with pytest.raises(PSError):
            group.pull_row("nope", 0)

    def test_stats_uncompressed(self, group, rng):
        stats = group.push_row("hist", 0, rng.normal(size=64))
        assert stats.bytes_up == 64 * 4
        assert stats.messages == group.partitioner("hist").n_partitions
        _, pull_stats = group.pull_row("hist", 0)
        assert pull_stats.bytes_down == 64 * 4

    def test_double_register(self, group):
        with pytest.raises(PSError):
            group.register("hist", 10)


class TestCompression:
    @pytest.fixture()
    def group(self) -> ParameterServerGroup:
        """``"hist"`` as 8 per-feature histograms of 4 bins: a lossy push
        takes its scale block (one per 4 values) from the layout."""
        g = ParameterServerGroup(n_servers=4)
        layout = SlabLayout(8, 4, np.zeros(8, dtype=np.int64))
        g.register("hist", row_length=64, align=8, layout=layout)
        return g

    def test_compressed_push_approximates(self, group, rng):
        flat = rng.normal(size=64)
        group.push_row("hist", 0, flat, compression_bits=8, rng=rng, sums=ZERO)
        pulled, _ = group.pull_row("hist", 0)
        scale = np.abs(flat).max() / 127
        assert np.max(np.abs(pulled - flat)) <= 2 * scale

    def test_compressed_wire_bytes_smaller(self, group, rng):
        flat = rng.normal(size=64)
        full = group.push_row("hist", 1, flat)
        comp = group.push_row(
            "hist", 2, flat, compression_bits=8, rng=rng, sums=ZERO
        )
        assert comp.bytes_up < full.bytes_up

    def test_compression_requires_rng(self, group):
        with pytest.raises(PSError, match="rng"):
            group.push_row("hist", 0, np.ones(64), compression_bits=8)

    def test_compression_requires_node_sums(self, group, rng):
        with pytest.raises(PSError, match="node sums"):
            group.push_row("hist", 0, np.ones(64), compression_bits=8, rng=rng)
        assert group.memory_bytes() == 0

    def test_sixteen_bit_tighter_than_eight(self, group, rng):
        flat = rng.normal(size=64)
        group.push_row("hist", 4, flat, compression_bits=8, rng=rng, sums=ZERO)
        group.push_row("hist", 5, flat, compression_bits=16, rng=rng, sums=ZERO)
        e8, _ = group.pull_row("hist", 4)
        e16, _ = group.pull_row("hist", 5)
        assert np.abs(e16 - flat).max() < np.abs(e8 - flat).max()

    def test_lossy_encode_needs_a_layout(self, rng):
        bare = ParameterServerGroup(n_servers=2)
        bare.register("plain", row_length=64, align=8)
        with pytest.raises(PSError, match="'plain'"):
            bare.encode_row(
                "plain", np.ones(64), compression_bits=8, rng=rng, sums=ZERO
            )
        # Without the codec a layout is not needed.
        pieces = bare.encode_row("plain", np.ones(64))
        assert sum(piece_bytes for *_rest, piece_bytes in pieces) == 64 * 4

    def test_one_scale_per_feature_histogram(self, group, rng):
        flat = np.repeat([1.0, 1000.0], 32)
        pieces = group.encode_row("hist", flat, compression_bits=8, rng=rng, sums=ZERO)
        # 16 histograms of 4 values: 4 one-byte codes + one float32 scale;
        # each of the 4 partitions adds one presence-bitmap byte (2
        # features) and the 8 bytes of the two node sums.
        assert sum(
            piece_bytes for *_rest, piece_bytes in pieces
        ) == 16 * (4 + 4) + 4 * (1 + 8)
        decoded = np.concatenate([piece for _part, piece, _bytes in pieces])
        # Small histograms keep their own scale, not the row maximum's.
        assert np.abs(decoded[:32] - 1.0).max() <= 1.0 / 127

    def test_removed_codec_options_are_refused(self, group, rng):
        with pytest.raises(TypeError):
            group.push_row("hist", 0, np.ones(64), compression_block=20)
        with pytest.raises(TypeError):
            group.encode_row("hist", np.ones(64), 8, rng, 4)


class TestPushWindowRows:
    """The dense window seam: ``(row, pieces)`` entries, ``pieces``
    exactly what ``encode_row`` returned."""

    def test_one_message_per_server_in_server_order(self, group, rng):
        entries = [
            (row, group.encode_row("hist", rng.normal(size=64))) for row in (3, 1)
        ]
        delivered = []
        for server in group.servers:
            original = server.handle_push

            def spy(name, row, partition_id, *args, _s=server, _o=original, **kw):
                delivered.append((_s.server_id, row, partition_id))
                return _o(name, row, partition_id, *args, **kw)

            server.handle_push = spy
        stats = group.push_window_rows("hist", entries, seq=(0, 0, 0))
        hosting = sorted(
            {part.server_id for part in group.partitioner("hist").partitions}
        )
        assert stats.messages == len(hosting)
        servers = [server_id for server_id, _row, _pid in delivered]
        assert servers == sorted(servers)
        # Each server applies its pieces in entry order: row 3, then row 1.
        for server_id in hosting:
            rows = [row for sid, row, _pid in delivered if sid == server_id]
            assert rows == sorted(rows, reverse=True)

    def test_billing_is_row_id_plus_piece_bytes(self, group, rng):
        entries = [
            (row, group.encode_row("hist", rng.normal(size=64))) for row in range(3)
        ]
        stats = group.push_window_rows("hist", entries, seq=(0, 0, 0))
        n_pieces = sum(len(pieces) for _row, pieces in entries)
        piece_bytes = sum(b for _row, pieces in entries for *_rest, b in pieces)
        assert stats.bytes_up == 4 * n_pieces + piece_bytes
        direct = ParameterServerGroup(n_servers=4)
        direct.register("hist", row_length=64, align=8)
        per_delta = sum(
            direct.push_row(
                "hist", row, np.concatenate([v for _p, v, _b in pieces])
            ).bytes_up
            for row, pieces in entries
        )
        assert stats.bytes_up == per_delta + 4 * n_pieces

    def test_duplicate_delivery_is_deduplicated(self, group, rng):
        flat = rng.normal(size=64)
        entries = [(0, group.encode_row("hist", flat))]
        group.push_window_rows("hist", entries, seq=(0, 0, 0))
        group.push_window_rows("hist", entries, seq=(0, 0, 0))
        pulled, _ = group.pull_row("hist", 0)
        np.testing.assert_array_equal(pulled, flat)
        # The next window's token applies.
        group.push_window_rows("hist", entries, seq=(0, 1, 0))
        pulled, _ = group.pull_row("hist", 0)
        np.testing.assert_array_equal(pulled, flat + flat)

    def test_fabric_requires_seq(self, rng):
        faulty = ParameterServerGroup(n_servers=2, fabric=object())
        faulty.register("hist", row_length=64, align=8)
        entries = [(0, faulty.encode_row("hist", rng.normal(size=64)))]
        with pytest.raises(PSError, match="seq"):
            faulty.push_window_rows("hist", entries)


class TestServerByteCounters:
    """What the servers receive, as the group's ``TransferStats`` — the
    one wire ledger — bills it: a dense range at 4 bytes a value, a lossy
    piece at its encoded size, a windowed piece with its row id, a sketch
    frame at its length."""

    @pytest.fixture()
    def group(self) -> ParameterServerGroup:
        """16 per-feature histograms of 4 bins on 2 servers."""
        g = ParameterServerGroup(n_servers=2)
        layout = SlabLayout(16, 4, np.arange(16, dtype=np.int64) % 4)
        g.register("hist", row_length=128, align=8, layout=layout)
        return g

    @pytest.mark.parametrize("bits", [0, 8])
    def test_push_row(self, group, rng, bits):
        flat = rng.normal(size=128)
        pieces = group.encode_row(
            "hist", flat, bits, np.random.default_rng(1), sums=(1.5, 2.5)
        )
        stats = group.push_row(
            "hist", 0, flat, bits, np.random.default_rng(1), sums=(1.5, 2.5)
        )
        assert stats.messages == len(pieces) == group.n_servers
        assert stats.bytes_up == sum(nbytes for *_piece, nbytes in pieces)
        if not bits:
            assert stats.bytes_up == 128 * 4

    @pytest.mark.parametrize("bits", [0, 8])
    def test_push_window_rows(self, group, rng, bits):
        entries = [
            (row, group.encode_row("hist", rng.normal(size=128), bits, rng, sums=ZERO))
            for row in range(3)
        ]
        stats = group.push_window_rows("hist", entries, seq=(0, 0, 0))
        assert stats.messages == group.n_servers
        assert stats.bytes_up == sum(
            4 + nbytes for _row, pieces in entries for *_piece, nbytes in pieces
        )

    @pytest.mark.parametrize("weighted", [False, True], ids=["gk", "weighted"])
    def test_push_sketch(self, group, rng, weighted):
        """Every sketch frame is billed at its length: a contiguous
        stripe, a gapped one, and a duplicated delivery."""
        group.register("sketch", 16, n_partitions=4)
        frames = []
        real_to_frame = SketchBatch.to_frame

        def recording(batch):
            frames.append(real_to_frame(batch))
            return frames[-1]

        def batch(features):
            sketches = []
            for _ in features:
                values = rng.normal(size=int(rng.integers(0, 40)))
                sketches.append(
                    WeightedGKSketch.from_values(values, rng.uniform(size=len(values)))
                    if weighted
                    else GKSketch.from_values(values)
                )
            return SketchBatch.from_sketches(sketches, features)

        bytes_up = 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(SketchBatch, "to_frame", recording)
            for wid, features in enumerate((range(2, 14), [0, 3, 4, 9, 15])):
                for _ in range(2):  # the second delivery is a duplicate
                    stats = group.push_sketch(
                        "sketch", batch(features), seq=("sketch", wid), worker=wid
                    )
                    bytes_up += stats.bytes_up
        assert sum(s.duplicate_pushes for s in group.servers) == 4 + 4  # partitions
        assert bytes_up == sum(len(f) for f in frames)


class TestPullUDF:
    def test_udf_results_in_partition_order(self, group, rng):
        flat = np.arange(64.0)
        group.push_row("hist", 0, flat)
        results, stats = group.pull_row_udf(
            "hist", 0, lambda values, part: float(values.sum())
        )
        total = sum(r for _p, r in results)
        assert total == pytest.approx(flat.sum())
        # Results arrive ordered by partition id (= feature ranges).
        ids = [p.partition_id for p, _r in results]
        assert ids == sorted(ids)

    def test_udf_wire_is_small(self, group, rng):
        group.push_row("hist", 0, rng.normal(size=64))
        _, stats = group.pull_row_udf(
            "hist", 0, lambda values, part: 1, result_bytes=12
        )
        assert stats.bytes_down == 12 * group.partitioner("hist").n_partitions


class TestMaintenance:
    def test_clear_row(self, group, rng):
        group.push_row("hist", 0, rng.normal(size=64))
        group.clear_row("hist", 0)
        pulled, _ = group.pull_row("hist", 0)
        np.testing.assert_array_equal(pulled, np.zeros(64))

    def test_clear_parameter(self, group, rng):
        group.push_row("hist", 0, rng.normal(size=64))
        group.clear_parameter("hist")
        assert group.memory_bytes() == 0

    def test_memory_grows_per_row(self, group, rng):
        group.push_row("hist", 0, rng.normal(size=64))
        one = group.memory_bytes()
        group.push_row("hist", 1, rng.normal(size=64))
        assert group.memory_bytes() == 2 * one

    def test_invalid_server_count(self):
        with pytest.raises(PSError):
            ParameterServerGroup(0)

    def test_partition_salt_is_refused(self):
        """Nobody salted a group's partitioners; the seam stays on
        ``VectorPartitioner(salt=)`` only."""
        with pytest.raises(TypeError):
            ParameterServerGroup(4, partition_salt=1)
