"""The master role: phase synchronization.

Section 4.2: "The master supervises workers and servers with periodical
health checking.  It also controls the synchronization between workers to
assure algorithmic correctness."  Section 4.4 adds the rule the barrier
enforces: "one worker cannot proceed until all workers have finished the
current phase."

The simulated cluster runs every worker in one process, and each
:class:`~repro.runtime.phases.PhaseStage` is that barrier: the stage
moves all workers into its phase together and charges the slowest one.
So the workers can never disagree about their phase, and the master
keeps just one: it checks that the stages follow the Figure 7 phase
machine and raises :class:`TrainingError` on an illegal transition.
"""

from __future__ import annotations

from enum import Enum

from ..errors import TrainingError


class WorkerPhase(Enum):
    """The seven phases of worker execution (Section 4.4, Figure 7)."""

    CREATE_SKETCH = "CREATE_SKETCH"
    PULL_SKETCH = "PULL_SKETCH"
    NEW_TREE = "NEW_TREE"
    BUILD_HISTOGRAM = "BUILD_HISTOGRAM"
    FIND_SPLIT = "FIND_SPLIT"
    SPLIT_TREE = "SPLIT_TREE"
    FINISH = "FINISH"


#: Phases a worker may legally move to from each phase.
_ALLOWED_NEXT: dict[WorkerPhase, frozenset[WorkerPhase]] = {
    WorkerPhase.CREATE_SKETCH: frozenset({WorkerPhase.PULL_SKETCH}),
    WorkerPhase.PULL_SKETCH: frozenset({WorkerPhase.NEW_TREE}),
    # Depth-1 trees skip BUILD/FIND/SPLIT entirely, hopping straight to
    # the next tree (or FINISH).
    WorkerPhase.NEW_TREE: frozenset(
        {WorkerPhase.BUILD_HISTOGRAM, WorkerPhase.NEW_TREE, WorkerPhase.FINISH}
    ),
    WorkerPhase.BUILD_HISTOGRAM: frozenset({WorkerPhase.FIND_SPLIT}),
    WorkerPhase.FIND_SPLIT: frozenset({WorkerPhase.SPLIT_TREE}),
    WorkerPhase.SPLIT_TREE: frozenset(
        {WorkerPhase.BUILD_HISTOGRAM, WorkerPhase.NEW_TREE, WorkerPhase.FINISH}
    ),
    WorkerPhase.FINISH: frozenset(),
}


class Master:
    """The cluster's phase machine: one phase, shared by every worker."""

    def __init__(self) -> None:
        self._phase: WorkerPhase | None = None

    @property
    def phase(self) -> WorkerPhase | None:
        """The current phase (None before CREATE_SKETCH)."""
        return self._phase

    def enter(self, phase: WorkerPhase) -> None:
        """Move the cluster into ``phase``.

        Raises:
            TrainingError: The first phase is not CREATE_SKETCH, or the
                phase machine forbids the transition.
        """
        current = self._phase
        if current is None:
            if phase is not WorkerPhase.CREATE_SKETCH:
                raise TrainingError(
                    f"the cluster must start in CREATE_SKETCH, tried {phase.value}"
                )
        elif phase not in _ALLOWED_NEXT[current]:
            raise TrainingError(
                f"illegal transition {current.value} -> {phase.value}"
            )
        self._phase = phase

    def rollback_round(self) -> None:
        """Reset the phase machine to the round boundary (NEW_TREE).

        This is the master's half of crash recovery: after the trainer
        restores the last checkpoint, the round is replayed from its
        NEW_TREE barrier.
        """
        self._phase = WorkerPhase.NEW_TREE
