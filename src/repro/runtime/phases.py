"""Phase-stage objects: the Section 4.4 worker phases as runtime seams.

The distributed engine used to interleave three concerns at every phase
boundary: moving the cluster through the master's phase machine,
measuring per-worker kernel wall-clock with ad-hoc clock-read pairs, and
charging the simulated clock.  :class:`PhaseRunner` and
:class:`PhaseStage` absorb all three, and additionally publish every
stage through the :mod:`~repro.runtime.hooks` spine so observers see
phase boundaries without the engine knowing about them.

:meth:`PhaseStage.barrier` is the one path by which measured compute
reaches the simulated clock: the engine, the aggregation backends and
straggler faults record per-worker seconds on the stage's
:class:`WorkerTimer` and never charge compute themselves, so speed
scaling, per-layer jitter and bounded-staleness deferral apply to every
phase alike.

Usage::

    runner = PhaseRunner(callbacks, master=master, clock=clock,
                         cluster=cluster)
    with runner.stage(WorkerPhase.BUILD_HISTOGRAM, tree_index=t) as stage:
        timer = stage.worker_timer()
        for wid in range(n_workers):
            with timer.measure(wid):
                ...numpy kernels...
        stage.barrier(timer)       # charge the slowest (speed-scaled) worker

A stage without master/clock (single-machine trainers) degrades to pure
hook dispatch with wall-clock measurement.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import TracebackType
from typing import Iterator, Sequence

from ..cluster.simclock import SimClock
from ..config import ClusterConfig
from ..ps.master import Master, WorkerPhase
from ..utils.timing import wall_clock
from .hooks import CallbackList

__all__ = [
    "PhaseRunner",
    "PhaseStage",
    "StalenessLanes",
    "WorkerTimer",
    "scale_by_speeds",
]


def scale_by_speeds(
    per_worker_seconds: Sequence[float], cluster: ClusterConfig | None
) -> list[float]:
    """Scale measured per-worker compute by each worker's relative speed.

    Models heterogeneous clusters: a half-speed worker takes twice its
    measured time, and the phase barrier then waits for it.
    """
    if cluster is None:
        return list(per_worker_seconds)
    return [
        seconds / cluster.speed_of(wid)
        for wid, seconds in enumerate(per_worker_seconds)
    ]


class WorkerTimer:
    """Accumulates measured compute seconds per simulated worker."""

    def __init__(self, n_workers: int) -> None:
        self.seconds = [0.0] * n_workers

    @contextmanager
    def measure(self, *worker_ids: int) -> Iterator[None]:
        """Time a block of real kernel work on behalf of ``worker_ids``.

        Several ids charge the one interval to each of them: work every
        one of those workers repeats on replicated data (a grid row's
        gradients).
        """
        started = wall_clock()
        try:
            yield
        finally:
            elapsed = wall_clock() - started
            for worker_id in worker_ids:
                self.seconds[worker_id] += elapsed

    def add(self, worker_id: int, seconds: float) -> None:
        """Charge pre-measured (or simulated-span) seconds to a worker."""
        self.seconds[worker_id] += seconds


class StalenessLanes:
    """Deferred per-worker barrier accounting for bounded staleness.

    With ``TrainConfig.staleness == S >= 1``, a layer's compute does not
    cost the cluster ``max(worker seconds)`` immediately.  No worker
    executes ahead of a peer (each phase stage is still a barrier);
    what is deferred is the bill: each worker keeps its own *lane* of
    accumulated (speed-scaled) seconds, and every ``S + 1`` layers the
    cluster pays the slowest lane.  :meth:`PhaseStage.barrier`
    routes per-worker seconds into the lanes instead of charging the
    clock; :meth:`layer_boundary` counts layers and triggers a
    :meth:`sync` every ``S + 1`` layers; the engine issues a final
    :meth:`sync` at fit end so no lane time is ever dropped.

    The charged time is the slowest lane's per-phase breakdown, which is
    exactly the lower envelope bounded staleness can realize: every
    other worker's lane time overlaps the slowest worker's.
    """

    def __init__(self, n_workers: int, staleness: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if staleness < 1:
            raise ValueError(
                f"StalenessLanes needs staleness >= 1, got {staleness}; "
                f"S=0 is the synchronous barrier and uses no lanes"
            )
        self.n_workers = n_workers
        self.staleness = staleness
        self.syncs = 0
        self._lanes = [0.0] * n_workers
        self._by_phase: list[dict[str, float]] = [{} for _ in range(n_workers)]
        self._layers_since_sync = 0

    @property
    def lane_seconds(self) -> list[float]:
        """Accumulated unsynced seconds per worker lane."""
        return list(self._lanes)

    def defer(self, per_worker_seconds: Sequence[float], phase: str) -> None:
        """Accumulate one relaxed barrier's speed-scaled worker seconds."""
        for wid, seconds in enumerate(per_worker_seconds):
            self._lanes[wid] += seconds
            bucket = self._by_phase[wid]
            bucket[phase] = bucket.get(phase, 0.0) + seconds

    def layer_boundary(self, clock: SimClock) -> float:
        """Note one finished tree layer; sync once drift would exceed S."""
        self._layers_since_sync += 1
        if self._layers_since_sync > self.staleness:
            return self.sync(clock)
        return 0.0

    def sync(self, clock: SimClock) -> float:
        """Charge the slowest lane's breakdown and empty all lanes."""
        self._layers_since_sync = 0
        if not any(self._lanes):
            return 0.0
        slowest = max(range(self.n_workers), key=self._lanes.__getitem__)
        charged = self._lanes[slowest]
        for phase, seconds in self._by_phase[slowest].items():
            clock.advance_compute(seconds, phase=phase)
        self._lanes = [0.0] * self.n_workers
        self._by_phase = [{} for _ in range(self.n_workers)]
        self.syncs += 1
        return charged


class PhaseStage:
    """One execution of one worker phase, used as a context manager.

    On entry: the cluster enters the phase in the master's phase
    machine, and ``on_phase_start`` fires.  On exit: the simulated seconds
    charged during the stage (grouped by cost-model label) and the real
    wall-clock duration are reported through ``on_phase_end``.
    """

    def __init__(
        self,
        runner: "PhaseRunner",
        phase: WorkerPhase,
        tree_index: int,
    ) -> None:
        self.runner = runner
        self.phase = phase
        self.tree_index = tree_index
        self._clock_snapshot: dict[str, float] = {}
        self._started_at = 0.0

    def __enter__(self) -> "PhaseStage":
        runner = self.runner
        if runner.master is not None:
            runner.master.enter(self.phase)
        if runner.clock is not None:
            self._clock_snapshot = runner.clock.by_phase()
        self._started_at = wall_clock()
        runner.callbacks.on_phase_start(self.phase, self.tree_index)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if exc_type is not None:
            return
        wall = wall_clock() - self._started_at
        charges: dict[str, float] = {}
        if self.runner.clock is not None:
            after = self.runner.clock.by_phase()
            before = self._clock_snapshot
            for label, value in after.items():
                if label not in before:
                    charges[label] = value
                elif value != before[label]:
                    charges[label] = value - before[label]
        self.runner.callbacks.on_phase_end(
            self.phase, self.tree_index, charges, wall
        )

    # ------------------------------------------------------------------
    # in-stage accounting helpers
    # ------------------------------------------------------------------

    def worker_timer(self) -> WorkerTimer:
        """A fresh per-worker compute timer sized to the cluster."""
        return WorkerTimer(self.runner.n_workers)

    def barrier(self, timer: WorkerTimer) -> float:
        """End the stage's parallel region: charge the slowest worker.

        Per-worker seconds are speed-scaled first, then the maximum is
        charged to the simulated clock under this stage's phase label.
        Returns the seconds charged (0.0 without a clock).

        Under bounded staleness (``runner.lanes`` set) nothing is
        charged here: the scaled seconds accumulate in the per-worker
        lanes and the clock pays only at the next staleness sync.  The
        clock's per-layer speed jitter is applied exactly once on either
        path — inside ``clock.barrier`` on the synchronous one, at defer
        time on the lanes one (the current layer's factors must price
        the seconds, not whichever layer the sync lands on).
        """
        clock = self.runner.clock
        if clock is None:
            return 0.0
        scaled = scale_by_speeds(timer.seconds, self.runner.cluster)
        if self.runner.lanes is not None:
            self.runner.lanes.defer(clock.jittered(scaled), self.phase.value)
            return 0.0
        return clock.barrier(scaled, phase=self.phase.value)

    def charge_comm(self, seconds: float) -> None:
        """Charge communication time under this stage's phase label."""
        if self.runner.clock is not None:
            self.runner.clock.advance_comm(seconds, phase=self.phase.value)


class PhaseRunner:
    """Factory for :class:`PhaseStage` objects bound to one fit.

    Args:
        callbacks: The hook spine events are dispatched to.
        master: The cluster's phase machine; ``None`` for single-machine
            runs (no phase-machine validation).
        clock: Simulated cluster clock; ``None`` for single-machine runs
            (stages then report only wall-clock).
        cluster: Cluster shape, used for worker count and speed scaling.
        lanes: Bounded-staleness lanes; ``None`` (default) keeps every
            stage barrier synchronous.
    """

    def __init__(
        self,
        callbacks: CallbackList,
        master: Master | None = None,
        clock: SimClock | None = None,
        cluster: ClusterConfig | None = None,
        lanes: StalenessLanes | None = None,
    ) -> None:
        self.callbacks = callbacks
        self.master = master
        self.clock = clock
        self.cluster = cluster
        self.lanes = lanes

    @property
    def n_workers(self) -> int:
        """Simulated worker count (1 for single-machine runs)."""
        return self.cluster.n_workers if self.cluster is not None else 1

    def stage(self, phase: WorkerPhase, tree_index: int = -1) -> PhaseStage:
        """A context manager running one ``phase`` stage."""
        return PhaseStage(self, phase, tree_index)
