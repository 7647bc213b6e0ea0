"""Tests for the parameter-server group facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PSError
from repro.ps import ParameterServerGroup


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
    def test_compressed_push_approximates(self, group, rng):
        flat = rng.normal(size=64)
        group.push_row("hist", 0, flat, compression_bits=8, rng=rng)
        pulled, _ = group.pull_row("hist", 0)
        scale = np.abs(flat).max() / 127
        assert np.max(np.abs(pulled - flat)) <= 2 * scale

    def test_compressed_wire_bytes_smaller(self, group, rng):
        flat = rng.normal(size=64)
        full = group.push_row("hist", 1, flat)
        comp = group.push_row("hist", 2, flat, compression_bits=8, rng=rng)
        assert comp.bytes_up < full.bytes_up

    def test_compression_requires_rng(self, group):
        with pytest.raises(PSError, match="rng"):
            group.push_row("hist", 0, np.ones(64), compression_bits=8)

    def test_sixteen_bit_tighter_than_eight(self, group, rng):
        flat = rng.normal(size=64)
        group.push_row("hist", 4, flat, compression_bits=8, rng=rng)
        group.push_row("hist", 5, flat, compression_bits=16, rng=rng)
        e8, _ = group.pull_row("hist", 4)
        e16, _ = group.pull_row("hist", 5)
        assert np.abs(e16 - flat).max() < np.abs(e8 - flat).max()


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
