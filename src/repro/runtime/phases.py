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
:class:`WorkerTimer` and never charge compute themselves.  The barrier
hands them to the runner's :class:`StalenessLanes`, the one place speed
scaling, per-layer jitter and the settle rule (every barrier at
``S == 0``, every ``S + 1`` layers otherwise) are applied, to every
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

from ..cluster.simclock import LayerSpeedJitter, SimClock
from ..config import ClusterConfig
from ..ps.master import Master, WorkerPhase
from ..utils.timing import wall_clock
from .hooks import CallbackList

__all__ = [
    "PhaseRunner",
    "PhaseStage",
    "StalenessLanes",
    "WorkerTimer",
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
    """The Section 4.4 stage barrier, settled every ``S + 1`` layers.

    Every stage barrier prices each worker's measured seconds once:
    divided by the worker's static speed, then by this layer's jitter
    factor (both read off :class:`ClusterConfig` here and nowhere else).
    The priced seconds go into the worker's *lane*, and a sync charges
    the clock the slowest lane's per-phase breakdown.  With
    ``staleness == 0`` every barrier syncs: the phase costs its slowest
    worker, the synchronous barrier.  With ``staleness == S >= 1`` no
    worker executes ahead of a peer either (each stage is still a
    barrier); what is deferred is the bill: :meth:`layer_boundary`
    counts layers and syncs every ``S + 1`` of them, and the engine
    issues a final :meth:`sync` at fit end so no lane time is ever
    dropped.  The slowest lane is exactly the lower envelope bounded
    staleness can realize: every other worker's lane time overlaps it.

    Args:
        cluster: Worker count, static speeds and per-layer jitter
            amplitude of the simulated cluster.
        staleness: The bound ``S >= 0``.
        seed: Run-level seed the jitter's per-layer streams derive from.
    """

    def __init__(
        self, cluster: ClusterConfig, staleness: int = 0, seed: int = 0
    ) -> None:
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.n_workers = cluster.n_workers
        self.staleness = staleness
        self.syncs = 0
        self._speeds = [cluster.speed_of(wid) for wid in range(self.n_workers)]
        self._jitter = (
            LayerSpeedJitter(self.n_workers, cluster.speed_jitter, seed=seed)
            if cluster.speed_jitter > 0.0
            else None
        )
        self._factors = (
            [1.0] * self.n_workers
            if self._jitter is None
            else self._jitter.factors.tolist()
        )
        self._lanes = [0.0] * self.n_workers
        self._by_phase: list[dict[str, float]] = [{} for _ in range(self.n_workers)]
        self._layers_since_sync = 0

    @property
    def lane_seconds(self) -> list[float]:
        """Accumulated unsynced seconds per worker lane."""
        return list(self._lanes)

    def defer(
        self, per_worker_seconds: Sequence[float], phase: str, clock: SimClock
    ) -> float:
        """Price one stage barrier's worker seconds into the lanes.

        Returns the seconds charged now: the slowest worker's when
        ``S == 0`` (its phase label is booked even at 0 s), else 0.0.
        """
        for wid, seconds in enumerate(per_worker_seconds):
            priced = seconds / self._speeds[wid] / self._factors[wid]
            self._lanes[wid] += priced
            bucket = self._by_phase[wid]
            bucket[phase] = bucket.get(phase, 0.0) + priced
        return self._settle(clock) if self.staleness == 0 else 0.0

    def layer_boundary(self, clock: SimClock) -> float:
        """Note one finished tree layer: sync once drift would exceed S,
        then move the jitter to the next layer's factors."""
        self._layers_since_sync += 1
        due = self._layers_since_sync > self.staleness
        charged = self.sync(clock) if due else 0.0
        if self._jitter is not None:
            self._jitter.advance()
            self._factors = self._jitter.factors.tolist()
        return charged

    def sync(self, clock: SimClock) -> float:
        """Settle the lanes if any holds time; returns the seconds charged."""
        self._layers_since_sync = 0
        return self._settle(clock) if any(self._lanes) else 0.0

    def _settle(self, clock: SimClock) -> float:
        """Charge the slowest lane's breakdown and empty all lanes."""
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
        """End the stage's parallel region at the runner's lanes.

        The lanes price the per-worker seconds and charge them under
        this stage's phase label: the slowest worker at once when
        ``S == 0``, the slowest lane at the next staleness sync
        otherwise.  Returns the seconds charged now (0.0 without a
        clock).
        """
        clock = self.runner.clock
        if clock is None:
            return 0.0
        return self.runner.lanes.defer(timer.seconds, self.phase.value, clock)

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
        cluster: Cluster shape the stage barrier prices; one nominal
            worker when ``None`` (single-machine runs).
        staleness: The bounded-staleness ``S`` of the barrier's lanes.
        seed: Run-level seed of the lanes' per-layer speed jitter.
    """

    def __init__(
        self,
        callbacks: CallbackList,
        master: Master | None = None,
        clock: SimClock | None = None,
        cluster: ClusterConfig | None = None,
        staleness: int = 0,
        seed: int = 0,
    ) -> None:
        self.callbacks = callbacks
        self.master = master
        self.clock = clock
        self.lanes = StalenessLanes(
            cluster or ClusterConfig(n_workers=1, n_servers=1), staleness, seed
        )

    @property
    def n_workers(self) -> int:
        """Simulated worker count (1 for single-machine runs)."""
        return self.lanes.n_workers

    def stage(self, phase: WorkerPhase, tree_index: int = -1) -> PhaseStage:
        """A context manager running one ``phase`` stage."""
        return PhaseStage(self, phase, tree_index)
