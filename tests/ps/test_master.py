"""Tests for phase-lockstep coordination."""

from __future__ import annotations

import pytest

from repro.errors import TrainingError
from repro.ps import Master, WorkerPhase


def advance_all(master: Master, phase: WorkerPhase) -> None:
    for wid in range(master.n_workers):
        master.enter_phase(wid, phase)


class TestPhases:
    def test_full_legal_lifecycle(self):
        master = Master(3)
        advance_all(master, WorkerPhase.CREATE_SKETCH)
        advance_all(master, WorkerPhase.PULL_SKETCH)
        advance_all(master, WorkerPhase.NEW_TREE)
        for _ in range(2):  # two layers
            advance_all(master, WorkerPhase.BUILD_HISTOGRAM)
            advance_all(master, WorkerPhase.FIND_SPLIT)
            advance_all(master, WorkerPhase.SPLIT_TREE)
            if _ == 0:
                advance_all(master, WorkerPhase.BUILD_HISTOGRAM)
                advance_all(master, WorkerPhase.FIND_SPLIT)
                advance_all(master, WorkerPhase.SPLIT_TREE)
        advance_all(master, WorkerPhase.FINISH)
        assert all(master.phase_of(w) is WorkerPhase.FINISH for w in range(3))

    def test_must_start_in_create_sketch(self):
        master = Master(2)
        with pytest.raises(TrainingError, match="CREATE_SKETCH"):
            master.enter_phase(0, WorkerPhase.NEW_TREE)

    def test_illegal_transition(self):
        master = Master(1)
        master.enter_phase(0, WorkerPhase.CREATE_SKETCH)
        with pytest.raises(TrainingError, match="illegal transition"):
            master.enter_phase(0, WorkerPhase.FIND_SPLIT)

    def test_split_tree_loops_back(self):
        master = Master(1)
        for phase in (
            WorkerPhase.CREATE_SKETCH,
            WorkerPhase.PULL_SKETCH,
            WorkerPhase.NEW_TREE,
            WorkerPhase.BUILD_HISTOGRAM,
            WorkerPhase.FIND_SPLIT,
            WorkerPhase.SPLIT_TREE,
            WorkerPhase.BUILD_HISTOGRAM,  # next layer
        ):
            master.enter_phase(0, phase)
        assert master.phase_of(0) is WorkerPhase.BUILD_HISTOGRAM

    def test_split_tree_to_new_tree(self):
        master = Master(1)
        for phase in (
            WorkerPhase.CREATE_SKETCH,
            WorkerPhase.PULL_SKETCH,
            WorkerPhase.NEW_TREE,
            WorkerPhase.BUILD_HISTOGRAM,
            WorkerPhase.FIND_SPLIT,
            WorkerPhase.SPLIT_TREE,
            WorkerPhase.NEW_TREE,  # next tree
        ):
            master.enter_phase(0, phase)


class TestBarrier:
    def test_barrier_violation_detected(self):
        master = Master(2)
        master.enter_phase(0, WorkerPhase.CREATE_SKETCH)
        master.enter_phase(1, WorkerPhase.CREATE_SKETCH)
        master.enter_phase(0, WorkerPhase.PULL_SKETCH)
        # Worker 0 races two phases ahead while worker 1 lags.
        with pytest.raises(TrainingError, match="barrier violation"):
            master.enter_phase(0, WorkerPhase.NEW_TREE)



def advance_to_round(master: Master) -> None:
    """Bring every worker to the NEW_TREE barrier (round boundary)."""
    advance_all(master, WorkerPhase.CREATE_SKETCH)
    advance_all(master, WorkerPhase.PULL_SKETCH)
    advance_all(master, WorkerPhase.NEW_TREE)


class TestDeparture:
    def test_departed_worker_cannot_enter(self):
        master = Master(3)
        advance_to_round(master)
        master.mark_departed(1)
        with pytest.raises(TrainingError, match="departed"):
            master.enter_phase(1, WorkerPhase.BUILD_HISTOGRAM)

    def test_barrier_shrinks_to_survivors(self):
        master = Master(3)
        advance_to_round(master)
        master.mark_departed(1)
        # Workers 0 and 2 proceed without worker 1 breaking lockstep.
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(2, WorkerPhase.BUILD_HISTOGRAM)
        assert master.phase_of(0) is WorkerPhase.BUILD_HISTOGRAM

    def test_enter_all_skips_departed(self):
        master = Master(3)
        advance_to_round(master)
        master.mark_departed(2)
        master.enter_all(WorkerPhase.BUILD_HISTOGRAM)
        assert master.phase_of(2) is WorkerPhase.NEW_TREE  # untouched
        # Live-only barrier: the survivors pass it although worker 2
        # still stands at NEW_TREE.
        master.enter_phase(0, WorkerPhase.FIND_SPLIT)
        master.enter_phase(1, WorkerPhase.FIND_SPLIT)
        assert master.phase_of(1) is WorkerPhase.FIND_SPLIT

    def test_double_departure_rejected(self):
        master = Master(2)
        advance_to_round(master)
        master.mark_departed(0)
        with pytest.raises(TrainingError, match="already departed"):
            master.mark_departed(0)

    def test_departed_set_reflects_crash_and_recovery(self):
        master = Master(2)
        advance_to_round(master)
        master.mark_departed(1)
        assert master.departed == frozenset({1})
        master.rollback_round()
        assert master.departed == frozenset()
        assert master.phase_of(1) is WorkerPhase.NEW_TREE


class TestBarrierReentry:
    """Ordering rules of rejoin: a departed worker re-enters the barrier
    only where its live peers currently stand."""

    def test_rejoin_requires_departure(self):
        master = Master(2)
        advance_to_round(master)
        with pytest.raises(TrainingError, match="not departed"):
            master.rejoin(0, WorkerPhase.NEW_TREE)

    def test_rejoin_at_wrong_phase_rejected(self):
        master = Master(3)
        advance_to_round(master)
        master.mark_departed(1)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(2, WorkerPhase.BUILD_HISTOGRAM)
        # Peers stand at BUILD_HISTOGRAM; rejoining at NEW_TREE would put
        # the worker a phase behind the barrier.
        with pytest.raises(TrainingError, match="cannot rejoin"):
            master.rejoin(1, WorkerPhase.NEW_TREE)

    def test_rejoin_at_peer_phase_restores_lockstep(self):
        master = Master(3)
        advance_to_round(master)
        master.mark_departed(1)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(2, WorkerPhase.BUILD_HISTOGRAM)
        master.rejoin(1, WorkerPhase.BUILD_HISTOGRAM)
        assert master.departed == frozenset()
        # Full-membership lockstep resumes: all three enter FIND_SPLIT.
        master.enter_all(WorkerPhase.FIND_SPLIT)
        assert all(
            master.phase_of(wid) is WorkerPhase.FIND_SPLIT for wid in range(3)
        )

    def test_rollback_round_rejoins_everyone_at_new_tree(self):
        master = Master(3)
        advance_to_round(master)
        master.enter_all(WorkerPhase.BUILD_HISTOGRAM)
        master.mark_departed(2)
        master.rollback_round()
        assert master.departed == frozenset()
        assert all(
            master.phase_of(wid) is WorkerPhase.NEW_TREE for wid in range(3)
        )
        # The replayed round proceeds through the normal transitions.
        master.enter_all(WorkerPhase.BUILD_HISTOGRAM)
        master.enter_all(WorkerPhase.FIND_SPLIT)


class TestValidation:
    def test_worker_id_range(self):
        master = Master(2)
        with pytest.raises(TrainingError):
            master.enter_phase(5, WorkerPhase.CREATE_SKETCH)

    def test_zero_workers(self):
        with pytest.raises(TrainingError):
            Master(0)


class TestStalenessClocks:
    """Bounded-staleness mode: layer clocks replace the phase barrier."""

    def test_rejects_negative_staleness(self):
        with pytest.raises(TrainingError, match="staleness"):
            Master(2, staleness=-1)

    def test_clock_counts_layers_started(self):
        master = Master(2, staleness=1)
        advance_to_round(master)
        assert master.worker_clock(0) == 0
        advance_all(master, WorkerPhase.BUILD_HISTOGRAM)
        assert master.worker_clock(0) == 1
        assert master.worker_clock(1) == 1
        assert master.clock_drift() == 0

    def test_drift_within_bound_is_legal(self):
        """With S=1, a worker may run one full layer ahead of its peers
        — the strict phase barrier would have raised immediately."""
        master = Master(2, staleness=1)
        advance_to_round(master)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(0, WorkerPhase.FIND_SPLIT)
        master.enter_phase(0, WorkerPhase.SPLIT_TREE)
        assert master.clock_drift() == 1

    def test_drift_beyond_bound_raises(self):
        master = Master(2, staleness=1)
        advance_to_round(master)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(0, WorkerPhase.FIND_SPLIT)
        master.enter_phase(0, WorkerPhase.SPLIT_TREE)
        with pytest.raises(TrainingError, match="staleness bound exceeded"):
            master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)

    def test_peer_progress_unblocks_the_leader(self):
        master = Master(2, staleness=1)
        advance_to_round(master)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(0, WorkerPhase.FIND_SPLIT)
        master.enter_phase(0, WorkerPhase.SPLIT_TREE)
        master.enter_phase(1, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)  # now legal
        assert master.worker_clock(0) == 2
        assert master.clock_drift() == 1

    def test_departed_workers_leave_the_bound(self):
        """A crashed laggard must not freeze the cluster: the bound is
        computed over live peers only."""
        master = Master(3, staleness=1)
        advance_to_round(master)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.enter_phase(1, WorkerPhase.BUILD_HISTOGRAM)
        master.mark_departed(2)
        master.enter_phase(0, WorkerPhase.FIND_SPLIT)
        master.enter_phase(0, WorkerPhase.SPLIT_TREE)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        assert master.worker_clock(0) == 2
        assert master.clock_drift() == 1  # over workers 0 and 1 only

    def test_rollback_resynchronizes_clocks(self):
        master = Master(2, staleness=1)
        advance_to_round(master)
        master.enter_phase(0, WorkerPhase.BUILD_HISTOGRAM)
        master.mark_departed(1)
        master.rollback_round()
        assert master.worker_clock(0) == master.worker_clock(1) == 1
        assert master.clock_drift() == 0

    def test_synchronous_mode_still_tracks_clocks(self):
        """S=0 keeps the strict barrier *and* the clocks, so drift is
        observable (always 0 at barriers) without behavior change."""
        master = Master(2)
        advance_to_round(master)
        advance_all(master, WorkerPhase.BUILD_HISTOGRAM)
        assert master.worker_clock(0) == 1
        assert master.clock_drift() == 0
