"""Tests for per-phase time attribution."""

from __future__ import annotations

import pytest

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.cluster import SimClock
from repro.distributed import BACKEND_NAMES
from repro.distributed.backends import MLlibBackend
from repro.ps.master import WorkerPhase
from repro.runtime.phases import StalenessLanes


class TestSimClockPhases:
    def test_labelled_charges_tracked(self):
        clock = SimClock()
        clock.advance_comm(1.0, phase="A")
        clock.advance_compute(0.5, phase="A")
        StalenessLanes(ClusterConfig(2, 1)).defer([0.2, 0.3], "B", clock)
        assert clock.by_phase() == pytest.approx({"A": 1.5, "B": 0.3})

    def test_unlabelled_charges_excluded(self):
        clock = SimClock()
        clock.advance_comm(1.0)
        assert clock.by_phase() == {}
        assert clock.time == 1.0

    def test_by_phase_returns_copy(self):
        clock = SimClock()
        clock.advance_comm(1.0, phase="A")
        snapshot = clock.by_phase()
        snapshot["A"] = 99.0
        assert clock.by_phase()["A"] == 1.0


class TestEnginePhases:
    @pytest.fixture(scope="class")
    def result(self, small_dataset):
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        return train_distributed(
            "dimboost", small_dataset, ClusterConfig(4, 4), config
        )

    def test_all_phases_present(self, result):
        expected = {
            "CREATE_SKETCH",
            "PULL_SKETCH",
            "NEW_TREE",
            "BUILD_HISTOGRAM",
            "FIND_SPLIT",
            "SPLIT_TREE",
        }
        assert set(result.phases) == expected

    def test_phases_sum_to_clock_total(self, result):
        """Every charged second carries a phase label — no leakage."""
        charged = result.breakdown.computation + result.breakdown.communication
        assert sum(result.phases.values()) == pytest.approx(charged, rel=1e-9)

    def test_phase_names_match_worker_phases(self, result):
        valid = {phase.value for phase in WorkerPhase}
        assert set(result.phases) <= valid

    @pytest.mark.parametrize("system", BACKEND_NAMES)
    def test_phase_accounting_complete_for_every_system(
        self, system, tiny_dataset
    ):
        """Invariant: the per-phase view is a complete decomposition.

        The phases dict (populated through the hook spine) must sum to
        the clock's computation + communication for every backend — a
        stage charging outside its accounting window would break this.
        """
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        result = train_distributed(
            system, tiny_dataset, ClusterConfig(3, 3), config
        )
        charged = result.breakdown.computation + result.breakdown.communication
        assert sum(result.phases.values()) == pytest.approx(charged, rel=1e-9)

    def test_find_split_dominated_by_comm_for_mllib(self, small_dataset, monkeypatch):
        """MLlib's bottleneck is FIND_SPLIT (statistics aggregation).

        The dense-build compute is overridden to the sparse path so the
        comparison isolates the aggregation cost the claim is about.
        """
        monkeypatch.setattr(MLlibBackend, "build_mode", "sparse")
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        result = train_distributed(
            "mllib", small_dataset, ClusterConfig(4, 4), config
        )
        assert result.phases["FIND_SPLIT"] == max(result.phases.values())
