"""Tests for a single PS shard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PSError, SketchError
from repro.ps import ParameterServerGroup, PSServer
from repro.ps.partitioner import Partition
from repro.sketch import (
    GKSketch,
    SketchBatch,
    WeightedGKSketch,
    propose_candidates_from_sketches,
)
from repro.sketch.candidates import candidate_frame_bytes

from ..sketch import frame_of


@pytest.fixture()
def server() -> PSServer:
    s = PSServer(0)
    s.register(
        "hist",
        [Partition(0, 0, 10, 0), Partition(2, 20, 30, 0)],
    )
    return s


class TestPush:
    def test_push_creates_row(self, server):
        server.handle_push("hist", 5, 0, np.ones(10))
        np.testing.assert_array_equal(
            server.handle_pull("hist", 5, 0), np.ones(10)
        )

    def test_push_accumulates(self, server):
        server.handle_push("hist", 1, 0, np.ones(10))
        server.handle_push("hist", 1, 0, 2 * np.ones(10))
        np.testing.assert_array_equal(
            server.handle_pull("hist", 1, 0), 3 * np.ones(10)
        )

    def test_push_wrong_length(self, server):
        with pytest.raises(PSError, match="expected"):
            server.handle_push("hist", 0, 0, np.ones(5))

    def test_push_unknown_parameter(self, server):
        with pytest.raises(PSError, match="not registered"):
            server.handle_push("nope", 0, 0, np.ones(10))

    def test_push_unhosted_partition(self, server):
        with pytest.raises(PSError, match="not hosted"):
            server.handle_push("hist", 0, 1, np.ones(10))

    def test_rows_independent(self, server):
        server.handle_push("hist", 0, 0, np.ones(10))
        server.handle_push("hist", 1, 0, 5 * np.ones(10))
        np.testing.assert_array_equal(
            server.handle_pull("hist", 0, 0), np.ones(10)
        )

    def test_bytes_accounting(self):
        """The group bills a range pushed and pulled at 4 bytes a value."""
        group = ParameterServerGroup(n_servers=1)
        group.register("hist", 10)
        assert group.push_row("hist", 0, np.ones(10)).bytes_up == 40
        _, stats = group.pull_row("hist", 0)
        assert (stats.bytes_down, stats.messages) == (40, 1)


class TestPull:
    def test_pull_unwritten_row_is_zero(self, server):
        np.testing.assert_array_equal(
            server.handle_pull("hist", 9, 0), np.zeros(10)
        )

    def test_pull_returns_copy(self, server):
        server.handle_push("hist", 0, 0, np.ones(10))
        pulled = server.handle_pull("hist", 0, 0)
        pulled[:] = 99.0
        np.testing.assert_array_equal(
            server.handle_pull("hist", 0, 0), np.ones(10)
        )

    def test_pull_udf_runs_server_side(self, server):
        server.handle_push("hist", 0, 2, np.arange(10.0))
        result = server.handle_pull_udf(
            "hist", 0, 2, lambda values, part: (float(values.sum()), part.lo)
        )
        assert result == (45.0, 20)

    def test_pull_udf_on_empty_row(self, server):
        result = server.handle_pull_udf(
            "hist", 3, 0, lambda values, part: float(values.sum())
        )
        assert result == 0.0


class TestMaintenance:
    def test_clear_row(self, server):
        server.handle_push("hist", 0, 0, np.ones(10))
        server.clear_row("hist", 0)
        np.testing.assert_array_equal(
            server.handle_pull("hist", 0, 0), np.zeros(10)
        )

    def test_clear_parameter(self, server):
        server.handle_push("hist", 0, 0, np.ones(10))
        server.handle_push("hist", 1, 0, np.ones(10))
        server.clear_parameter("hist")
        assert server.stored_rows("hist") == []

    def test_stored_rows_sorted(self, server):
        for row in (5, 1, 3):
            server.handle_push("hist", row, 0, np.ones(10))
        assert server.stored_rows("hist") == [1, 3, 5]

    def test_memory_bytes(self, server):
        assert server.memory_bytes() == 0
        server.handle_push("hist", 0, 0, np.ones(10))
        assert server.memory_bytes() == 80  # float64 storage

    def test_double_register_rejected(self, server):
        with pytest.raises(PSError, match="already registered"):
            server.register("hist", [])

    def test_clear_unknown_parameter(self, server):
        with pytest.raises(PSError):
            server.clear_row("nope", 0)


class TestSketchPushAllOrNothing:
    """A sketch push that raises must leave no trace: no merged feature, no
    recorded token — so its corrected retry is applied, not swallowed."""

    def batch(self, features, seed=0, weighted=False):
        rng = np.random.default_rng(seed)
        sketches = []
        for f in features:
            values = rng.normal(loc=f, size=40)
            sketches.append(
                WeightedGKSketch.from_values(values, rng.uniform(0.1, 2, 40), 0.05)
                if weighted
                else GKSketch.from_values(values, 0.05)
            )
        return SketchBatch.from_sketches(sketches, features)

    def frame(self, features, seed=0, weighted=False):
        return self.batch(features, seed, weighted).to_frame()

    def relisted(self, batch, features):
        """``batch``'s frame with other feature ids in its header."""
        hostile = SketchBatch(
            batch.kind, np.asarray(features, dtype=np.int64), batch.eps, batch.counts,
            batch.masses, batch.bounds, batch.values, batch.g, batch.delta,
        )
        return hostile.to_frame()

    def state(self, server):
        return server._sketches["hist"][0].to_frame(), server.duplicate_pushes

    @pytest.mark.parametrize(
        "spoil, error",
        [
            (lambda self, good: self.relisted(good, [1, 2, 15]), PSError),  # out of range
            (lambda self, good: b"\x07" + good.to_frame()[1:], SketchError),  # tag
            (lambda self, good: good.to_frame()[:-3], SketchError),  # length
        ],
        ids=["range", "tag", "length"],
    )
    def test_mixed_payload_leaves_no_trace(self, server, spoil, error):
        server.handle_push_sketch("hist", 0, self.frame([1, 2], seed=1), seq=("sketch", 0))
        before = self.state(server)
        good = self.batch([1, 2, 3], seed=2)
        with pytest.raises(error):
            server.handle_push_sketch("hist", 0, spoil(self, good), seq=("sketch", 1))
        assert self.state(server) == before
        # The corrected retry under the same seq is a first delivery ...
        server.handle_push_sketch("hist", 0, good.to_frame(), seq=("sketch", 1))
        after, duplicates = self.state(server)
        assert duplicates == before[1]
        merged, was = SketchBatch.from_frame(after), SketchBatch.from_frame(before[0])
        assert merged.features.tolist() == [1, 2, 3]
        assert merged.span(1, 3).to_frame() != was.to_frame()
        # ... and only its replay is a duplicate.
        server.handle_push_sketch("hist", 0, good.to_frame(), seq=("sketch", 1))
        assert self.state(server) == (after, duplicates + 1)

    def test_kind_mismatch_leaves_no_trace(self, server):
        """A frame that parses but cannot merge (weighted into unweighted)
        fails the whole push too."""
        server.handle_push_sketch("hist", 0, self.frame([2], seed=1), seq=("sketch", 0))
        before = self.state(server)
        mixed = self.frame([1, 2], seed=3, weighted=True)
        with pytest.raises(SketchError, match="cannot merge"):
            server.handle_push_sketch("hist", 0, mixed, seq=("sketch", 1))
        assert self.state(server) == before

    def test_repeated_feature_in_one_frame_rejected(self, server):
        """A frame lists each feature once, in increasing order: the
        per-feature payload list could repeat one and fold it twice, the
        ragged frame cannot — and says so before touching any state."""
        server.handle_push_sketch("hist", 0, self.frame([4], seed=1), seq=("sketch", 0))
        before = self.state(server)
        twice = self.relisted(self.batch([4, 5], seed=5), [4, 4])
        with pytest.raises(SketchError, match="strictly increasing"):
            server.handle_push_sketch("hist", 0, twice, seq=("sketch", 1))
        assert self.state(server) == before

    def test_two_pushes_fold_in_order(self, server):
        first, second = self.batch([4], seed=5), self.batch([4], seed=6)
        server.handle_push_sketch("hist", 0, first.to_frame())
        server.handle_push_sketch("hist", 0, second.to_frame())
        merged = server._sketches["hist"][0]
        folded = first[0].merge(second[0])
        assert merged.features.tolist() == [4]
        assert frame_of(merged[0]) == frame_of(folded)


class TestCandidatePull:
    """PULL_SKETCH's server side: cuts proposed from a partition's merged
    summaries, once, and only the requested features' frame sent."""

    def push(self, server, pid, lo, hi, seed, seq=None):
        rng = np.random.default_rng(seed)
        batch = SketchBatch.from_sketches(
            [GKSketch.from_values(rng.normal(size=30), 0.05) for _ in range(lo, hi)],
            range(lo, hi),
        )
        server.handle_push_sketch("hist", pid, batch.to_frame(), seq=seq)
        return batch

    def test_stripe_frame_is_the_partition_proposal_sliced(self, server):
        batch = self.push(server, 2, 20, 30, seed=1)
        whole = propose_candidates_from_sketches(batch.shifted(-20), 5)
        frame = server.handle_pull_candidates("hist", 2, 23, 27, 5)
        assert frame == whole.feature_range(3, 7).to_frame(23)
        cuts = whole.cuts[whole.offsets[3] : whole.offsets[7]]
        assert len(frame) == candidate_frame_bytes(4, cuts, 5)

    def test_proposed_once_per_partition_until_the_next_push(self, server, monkeypatch):
        import repro.ps.server as server_module

        calls = []
        propose = server_module.propose_candidates_from_sketches

        def counting(*args):
            calls.append(args)
            return propose(*args)

        monkeypatch.setattr(server_module, "propose_candidates_from_sketches", counting)
        self.push(server, 0, 0, 10, seed=1)
        first = server.handle_pull_candidates("hist", 0, 0, 4, 5)
        server.handle_pull_candidates("hist", 0, 4, 10, 5)
        assert len(calls) == 1
        self.push(server, 0, 0, 10, seed=2)
        assert server.handle_pull_candidates("hist", 0, 0, 4, 5) != first
        assert len(calls) == 2
        server.handle_pull_candidates("hist", 0, 0, 4, 7)  # another budget
        assert len(calls) == 3

    @pytest.mark.parametrize("lo, hi", [(5, 12), (-1, 3), (7, 6), (10, 11)])
    def test_range_outside_the_partition_rejected(self, server, lo, hi):
        self.push(server, 0, 0, 10, seed=1)
        with pytest.raises(PSError, match="candidate pull"):
            server.handle_pull_candidates("hist", 0, lo, hi, 5)

    def test_partition_missing_summaries_rejected(self, server):
        with pytest.raises(PSError, match="0 of its 10 features"):
            server.handle_pull_candidates("hist", 0, 0, 10, 5)
        self.push(server, 0, 0, 6, seed=1)
        with pytest.raises(PSError, match="6 of its 10 features"):
            server.handle_pull_candidates("hist", 0, 0, 3, 5)
