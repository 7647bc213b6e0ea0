"""Tests for the master's phase machine."""

from __future__ import annotations

import pytest

from repro.errors import TrainingError
from repro.ps import Master, WorkerPhase

#: CREATE_SKETCH -> ... -> NEW_TREE: the setup phases up to the first round.
TO_ROUND = (
    WorkerPhase.CREATE_SKETCH,
    WorkerPhase.PULL_SKETCH,
    WorkerPhase.NEW_TREE,
)


def enter_each(master: Master, *phases: WorkerPhase) -> None:
    for phase in phases:
        master.enter(phase)


class TestPhases:
    def test_full_legal_lifecycle(self):
        master = Master()
        assert master.phase is None
        enter_each(master, *TO_ROUND)
        for _ in range(2):  # two trees of two layers
            for _ in range(2):
                enter_each(
                    master,
                    WorkerPhase.BUILD_HISTOGRAM,
                    WorkerPhase.FIND_SPLIT,
                    WorkerPhase.SPLIT_TREE,
                )
            master.enter(WorkerPhase.NEW_TREE)
        master.enter(WorkerPhase.FINISH)
        assert master.phase is WorkerPhase.FINISH

    def test_must_start_in_create_sketch(self):
        master = Master()
        with pytest.raises(TrainingError, match="CREATE_SKETCH"):
            master.enter(WorkerPhase.NEW_TREE)

    def test_illegal_transition(self):
        master = Master()
        master.enter(WorkerPhase.CREATE_SKETCH)
        with pytest.raises(TrainingError, match="illegal transition"):
            master.enter(WorkerPhase.FIND_SPLIT)
        assert master.phase is WorkerPhase.CREATE_SKETCH

    def test_split_tree_loops_back(self):
        master = Master()
        enter_each(
            master,
            *TO_ROUND,
            WorkerPhase.BUILD_HISTOGRAM,
            WorkerPhase.FIND_SPLIT,
            WorkerPhase.SPLIT_TREE,
            WorkerPhase.BUILD_HISTOGRAM,  # next layer
        )
        assert master.phase is WorkerPhase.BUILD_HISTOGRAM

    def test_split_tree_to_new_tree(self):
        master = Master()
        enter_each(
            master,
            *TO_ROUND,
            WorkerPhase.BUILD_HISTOGRAM,
            WorkerPhase.FIND_SPLIT,
            WorkerPhase.SPLIT_TREE,
            WorkerPhase.NEW_TREE,  # next tree
        )
        assert master.phase is WorkerPhase.NEW_TREE


class TestRollback:
    @pytest.mark.parametrize(
        "reached",
        [
            TO_ROUND,
            (*TO_ROUND, WorkerPhase.BUILD_HISTOGRAM),
            (*TO_ROUND, WorkerPhase.BUILD_HISTOGRAM, WorkerPhase.FIND_SPLIT),
            (
                *TO_ROUND,
                WorkerPhase.BUILD_HISTOGRAM,
                WorkerPhase.FIND_SPLIT,
                WorkerPhase.SPLIT_TREE,
            ),
        ],
        ids=lambda phases: phases[-1].value,
    )
    def test_rollback_round_from_every_phase(self, reached):
        """A crash anywhere in a round rewinds to its NEW_TREE barrier,
        and the replayed round passes the normal transitions."""
        master = Master()
        enter_each(master, *reached)
        master.rollback_round()
        assert master.phase is WorkerPhase.NEW_TREE
        enter_each(
            master,
            WorkerPhase.BUILD_HISTOGRAM,
            WorkerPhase.FIND_SPLIT,
            WorkerPhase.SPLIT_TREE,
        )


class TestRemovedOptions:
    @pytest.mark.parametrize(
        "args,kwargs",
        [((4,), {}), ((), {"staleness": 1})],
        ids=["n-workers", "staleness"],
    )
    def test_master_takes_no_options(self, args, kwargs):
        """The per-worker phases and layer clocks are gone: the stage is
        the barrier, so the master has no worker count or staleness."""
        with pytest.raises(TypeError):
            Master(*args, **kwargs)
