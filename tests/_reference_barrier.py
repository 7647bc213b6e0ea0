"""Frozen reference for the stage barrier, before it became the lanes.

Verbatim copies, as they stood at ``8b1af73``, of ``SimClock``
(``repro.cluster.simclock``) with its ``jitter`` slot, ``jittered``,
``next_layer`` and ``barrier``; ``scale_by_speeds`` and
``StalenessLanes`` (``repro.runtime.phases``).  At that commit a
synchronous stage (``S = 0``) charged ``clock.barrier(scale_by_speeds(
seconds, cluster))`` and a stale one deferred ``clock.jittered(
scale_by_speeds(seconds, cluster))`` into the lanes; every tree layer
called ``lanes.layer_boundary(clock)`` (``S >= 1`` only) and then
``clock.next_layer()``; the fit ended with ``lanes.sync(clock)``
(``S >= 1`` only).

Test-only — the differential oracle of
``tests/runtime/test_barrier_reference.py`` — and never imported by
``src/``.  Do not "fix" or modernise it: its value is that it shares no
pricing or settling code with the lanes it checks.  The only edits are
absolute ``repro`` imports and no ``__all__``.  Append, never edit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.cluster.simclock import LayerSpeedJitter
from repro.config import ClusterConfig
from repro.errors import CommunicationError


class SimClock:
    """Monotonic simulated clock with parallel-region support.

    Besides the communication/computation split, every charge can carry
    a *phase label* ("BUILD_HISTOGRAM", "FIND_SPLIT", ...) so trainers
    can report where the time went — the introspection behind the
    Table 3 style per-phase analysis.

    Attributes:
        time: Current simulated time in seconds.
        jitter: Optional per-layer speed noise applied to every parallel
            region (:meth:`barrier` and the staleness lanes' deferred
            seconds via :meth:`jittered`).
    """

    __slots__ = ("time", "jitter", "_comm", "_comp", "_by_phase")

    def __init__(self, jitter: LayerSpeedJitter | None = None) -> None:
        self.time = 0.0
        self.jitter = jitter
        self._comm = 0.0
        self._comp = 0.0
        self._by_phase: dict[str, float] = {}

    @property
    def communication(self) -> float:
        """Total simulated time attributed to communication."""
        return self._comm

    @property
    def computation(self) -> float:
        """Total simulated time attributed to (parallel) computation."""
        return self._comp

    def by_phase(self) -> dict[str, float]:
        """Seconds charged per phase label (labelled charges only)."""
        return dict(self._by_phase)

    def jittered(self, per_worker_seconds: Sequence[float]) -> list[float]:
        """Divide per-worker seconds by this layer's speed factors.

        Identity without jitter.  Callers that route seconds *around*
        :meth:`barrier` (the staleness lanes) apply this exactly once at
        defer time; :meth:`barrier` applies it internally, so plain
        barrier callers must pass un-jittered seconds.
        """
        if self.jitter is None:
            return list(per_worker_seconds)
        return [
            seconds / self.jitter.factor_of(wid)
            for wid, seconds in enumerate(per_worker_seconds)
        ]

    def next_layer(self) -> None:
        """Advance the jitter to the next tree layer (no-op without)."""
        if self.jitter is not None:
            self.jitter.advance()

    def advance_comm(self, seconds: float, phase: str | None = None) -> None:
        """Charge ``seconds`` of communication time."""
        self._charge(seconds, phase)
        self._comm += seconds

    def advance_compute(self, seconds: float, phase: str | None = None) -> None:
        """Charge ``seconds`` of computation time."""
        self._charge(seconds, phase)
        self._comp += seconds

    def barrier(
        self, per_worker_seconds: Iterable[float], phase: str | None = None
    ) -> float:
        """End a parallel compute region: advance by the slowest worker.

        Args:
            per_worker_seconds: Measured compute time of each worker,
                already divided by static speeds but *not* by the layer
                jitter (applied here).
            phase: Optional phase label for the charge.

        Returns:
            The seconds charged (the maximum, 0.0 if empty).
        """
        worst = max(self.jittered(list(per_worker_seconds)), default=0.0)
        self.advance_compute(worst, phase)
        return worst

    def _charge(self, seconds: float, phase: str | None = None) -> None:
        if seconds < 0:
            raise CommunicationError(f"cannot advance clock by {seconds} < 0")
        self.time += seconds
        if phase is not None:
            self._by_phase[phase] = self._by_phase.get(phase, 0.0) + seconds

    def __repr__(self) -> str:
        return (
            f"SimClock(time={self.time:.6f}, comm={self._comm:.6f}, "
            f"comp={self._comp:.6f})"
        )


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
