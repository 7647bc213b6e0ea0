"""The master role: phase synchronization and crash membership.

Section 4.2: "The master supervises workers and servers with periodical
health checking.  It also controls the synchronization between workers to
assure algorithmic correctness."  Section 4.4 adds the rule the barrier
enforces: "one worker cannot proceed until all workers have finished the
current phase."

The simulated cluster executes workers one after another, so the barrier
here is a correctness *assertion* rather than a blocking primitive: a
worker entering a phase out of lockstep raises :class:`TrainingError`
immediately instead of deadlocking silently.
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
    """Phase-lockstep coordinator for ``n_workers`` workers.

    With ``staleness == 0`` (the default) the master enforces DimBoost's
    strict layer lockstep: a worker entering a phase while any live peer
    is neither in the same phase nor one barrier behind is a violation.
    With ``staleness == S >= 1`` the barrier relaxes to bounded
    staleness (SSP-style): the master tracks a per-worker *layer clock*
    (incremented each time the worker enters BUILD_HISTOGRAM) and only
    rejects a worker that would run more than ``S`` layers ahead of the
    slowest live peer.
    """

    def __init__(self, n_workers: int, staleness: int = 0) -> None:
        if n_workers < 1:
            raise TrainingError(f"n_workers must be >= 1, got {n_workers}")
        if staleness < 0:
            raise TrainingError(f"staleness must be >= 0, got {staleness}")
        self.n_workers = n_workers
        self.staleness = staleness
        self._phase: list[WorkerPhase | None] = [None] * n_workers
        self._departed: set[int] = set()
        self._layer_clock: list[int] = [0] * n_workers

    def _check_worker(self, worker_id: int) -> None:
        if not 0 <= worker_id < self.n_workers:
            raise TrainingError(
                f"worker {worker_id} out of range [0, {self.n_workers})"
            )

    def phase_of(self, worker_id: int) -> WorkerPhase | None:
        """Current phase of a worker (None before CREATE_SKETCH)."""
        self._check_worker(worker_id)
        return self._phase[worker_id]

    def enter_phase(self, worker_id: int, phase: WorkerPhase) -> None:
        """Record that ``worker_id`` starts ``phase``; validates lockstep.

        Raises:
            TrainingError: If the transition is illegal or the worker is
                ahead of a peer by more than one phase (barrier violation).
        """
        self._check_worker(worker_id)
        if worker_id in self._departed:
            raise TrainingError(
                f"worker {worker_id} is departed (crashed) and cannot enter "
                f"{phase.value}; it must rejoin first"
            )
        current = self._phase[worker_id]
        if current is None:
            if phase is not WorkerPhase.CREATE_SKETCH:
                raise TrainingError(
                    f"worker {worker_id} must start in CREATE_SKETCH, "
                    f"tried {phase.value}"
                )
        elif phase not in _ALLOWED_NEXT[current]:
            raise TrainingError(
                f"worker {worker_id}: illegal transition "
                f"{current.value} -> {phase.value}"
            )
        if self.staleness == 0:
            # Barrier check: every live peer must be either still in this
            # worker's current phase (not yet at the barrier) or already in
            # the target phase (passed it) — anything else means lockstep
            # was broken.  Departed workers are excluded: the barrier
            # shrinks to the surviving membership, as a real master's would.
            for other_id, other in enumerate(self._phase):
                if other_id == worker_id or other_id in self._departed:
                    continue
                if other is not current and other is not phase:
                    raise TrainingError(
                        f"barrier violation: worker {worker_id} entering "
                        f"{phase.value} while worker {other_id} is in "
                        f"{other.value if other else 'None'}"
                    )
        elif phase is WorkerPhase.BUILD_HISTOGRAM:
            # Bounded staleness: layer lockstep is relaxed, but a worker
            # may not start a layer more than ``staleness`` layers ahead
            # of the slowest live peer's clock.
            tentative = self._layer_clock[worker_id] + 1
            peers = [
                self._layer_clock[other_id]
                for other_id in range(self.n_workers)
                if other_id != worker_id and other_id not in self._departed
            ]
            if peers and tentative - min(peers) > self.staleness:
                raise TrainingError(
                    f"staleness bound exceeded: worker {worker_id} entering "
                    f"layer {tentative} while the slowest live peer is at "
                    f"layer {min(peers)} (bound S={self.staleness})"
                )
        self._phase[worker_id] = phase
        if phase is WorkerPhase.BUILD_HISTOGRAM:
            self._layer_clock[worker_id] += 1

    def enter_all(self, phase: WorkerPhase) -> None:
        """Move every live worker through the barrier into ``phase`` in id
        order.

        The simulated cluster executes workers sequentially, so a phase
        transition is always "all workers, one after another"; this is
        the single entry point the runtime's phase stages use.
        """
        for worker_id in range(self.n_workers):
            if worker_id not in self._departed:
                self.enter_phase(worker_id, phase)

    # ------------------------------------------------------------------
    # bounded-staleness clocks
    # ------------------------------------------------------------------

    def worker_clock(self, worker_id: int) -> int:
        """Layers of BUILD_HISTOGRAM this worker has started (its clock)."""
        self._check_worker(worker_id)
        return self._layer_clock[worker_id]

    def clock_drift(self) -> int:
        """Largest clock gap between any two live workers (0 when <= 1
        worker is live).  Bounded by ``staleness`` between barriers."""
        live = [
            self._layer_clock[wid]
            for wid in range(self.n_workers)
            if wid not in self._departed
        ]
        if len(live) < 2:
            return 0
        return max(live) - min(live)

    # ------------------------------------------------------------------
    # failure handling (chaos/recovery support)
    # ------------------------------------------------------------------

    @property
    def departed(self) -> frozenset[int]:
        """Ids of workers currently marked departed (crashed)."""
        return frozenset(self._departed)

    def mark_departed(self, worker_id: int) -> None:
        """Record that a worker crashed: its heartbeat stopped and the
        health check removed it from the barrier membership."""
        self._check_worker(worker_id)
        if worker_id in self._departed:
            raise TrainingError(f"worker {worker_id} is already departed")
        self._departed.add(worker_id)

    def rejoin(self, worker_id: int, phase: WorkerPhase) -> None:
        """Re-admit a departed worker at the barrier where its live peers
        stand.

        Barrier re-entry is only legal when every live peer currently
        occupies ``phase`` — the rejoining worker slots into the lockstep
        instead of breaking it.

        Raises:
            TrainingError: The worker is not departed, or a live peer is
                not at ``phase``.
        """
        self._check_worker(worker_id)
        if worker_id not in self._departed:
            raise TrainingError(
                f"worker {worker_id} is not departed; cannot rejoin"
            )
        for other_id, other in enumerate(self._phase):
            if other_id == worker_id or other_id in self._departed:
                continue
            if other is not phase:
                raise TrainingError(
                    f"worker {worker_id} cannot rejoin at {phase.value}: "
                    f"worker {other_id} is in "
                    f"{other.value if other else 'None'}"
                )
        self._departed.discard(worker_id)
        self._phase[worker_id] = phase

    def rollback_round(self) -> None:
        """Reset the phase machine to the round boundary (NEW_TREE) and
        rejoin every departed worker there.

        This is the master's half of crash recovery: after the trainer
        restores the last checkpoint, the round is replayed from its
        NEW_TREE barrier with full membership restored.
        """
        for worker_id in range(self.n_workers):
            if worker_id not in self._departed:
                self._phase[worker_id] = WorkerPhase.NEW_TREE
        for worker_id in sorted(self._departed):
            self.rejoin(worker_id, WorkerPhase.NEW_TREE)
        # All workers replay the round together from the checkpoint, so
        # their layer clocks resynchronize at the fastest clock — a
        # rejoined laggard must not let its peers' future layer entries
        # read as unbounded drift.
        self._layer_clock = [max(self._layer_clock)] * self.n_workers
