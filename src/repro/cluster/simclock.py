"""Simulated cluster clock.

All workers of the simulated cluster execute inside one Python process,
so their *parallel* compute must be accounted explicitly: a phase where
every worker independently spends ``t_i`` seconds advances the cluster
clock by ``max(t_i)`` (the synchronization barrier of Section 4.4 makes
every phase end when the slowest worker finishes).  That barrier lives in
:class:`~repro.runtime.phases.StalenessLanes`; :class:`SimClock` is only
the ledger it and the cost model charge: time, communication,
computation and per-phase seconds.

:class:`LayerSpeedJitter` adds *per-layer* multiplicative speed noise on
top of the static ``ClusterConfig.worker_speeds``, and the lanes price
every worker's seconds with it: real clusters do not have one
permanently slow machine so much as a rotating straggler (GC pauses,
co-tenant interference, network hiccups).  Under a persistent
straggler, bounded staleness ties pure windowing — both wait for the
same machine every sync.  Under rotating stragglers the synchronous
barrier (``S = 0``: the lanes settle at every barrier) pays ``sum over
layers of max over workers`` while stale lanes pay ``max over workers
of sum over layers``, which is strictly less whenever the slowest worker
changes between layers.  The jitter is pure clock accounting: trained
model bits are provably unchanged.
"""

from __future__ import annotations

import numpy as np

from ..errors import CommunicationError, ConfigError
from ..utils.rng import spawn_rng

__all__ = ["LayerSpeedJitter", "SimClock"]


class LayerSpeedJitter:
    """Deterministic per-(layer, worker) multiplicative speed factors.

    Each tree layer ``l`` draws one factor per worker from
    ``spawn_rng(seed, "layer-speed-jitter", l)``, uniform in
    ``[1 - amplitude, 1 + amplitude]``.  A worker's effective speed for
    that layer is ``speed_of(wid) * factor``; its scaled compute is
    divided by the factor.  Factors are keyed by the layer counter, not
    by call order, so re-running the same configuration replays the same
    noise (RP001's seeded-randomness invariant).

    Args:
        n_workers: Workers in the simulated cluster.
        amplitude: Half-width of the uniform factor band; must be in
            ``(0, 1)`` so factors stay positive.
        seed: Run-level seed the per-layer streams derive from.
    """

    def __init__(self, n_workers: int, amplitude: float, seed: int = 0) -> None:
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if not 0.0 < amplitude < 1.0:
            raise ConfigError(
                f"jitter amplitude must be in (0, 1), got {amplitude}"
            )
        self.n_workers = n_workers
        self.amplitude = amplitude
        self.seed = seed
        self._layer = 0
        self._factors = self._draw(0)

    def _draw(self, layer: int) -> np.ndarray:
        rng = spawn_rng(self.seed, "layer-speed-jitter", layer)
        span = rng.random(self.n_workers, dtype=np.float64) * 2.0 - 1.0
        return 1.0 + self.amplitude * span

    @property
    def layer(self) -> int:
        """Index of the layer the current factors belong to."""
        return self._layer

    @property
    def factors(self) -> np.ndarray:
        """Current per-worker speed factors (read-only copy)."""
        return self._factors.copy()

    def factor_of(self, worker_id: int) -> float:
        """Current speed factor of one worker (1.0 past the roster)."""
        if 0 <= worker_id < self.n_workers:
            return float(self._factors[worker_id])
        return 1.0

    def advance(self) -> None:
        """Move to the next layer's factors."""
        self._layer += 1
        self._factors = self._draw(self._layer)


class SimClock:
    """Monotonic simulated clock: the cluster's time ledger.

    Besides the communication/computation split, every charge can carry
    a *phase label* ("BUILD_HISTOGRAM", "FIND_SPLIT", ...) so trainers
    can report where the time went — the introspection behind the
    Table 3 style per-phase analysis.

    Attributes:
        time: Current simulated time in seconds.
    """

    __slots__ = ("time", "_comm", "_comp", "_by_phase")

    def __init__(self) -> None:
        self.time = 0.0
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

    def advance_comm(self, seconds: float, phase: str | None = None) -> None:
        """Charge ``seconds`` of communication time."""
        self._charge(seconds, phase)
        self._comm += seconds

    def advance_compute(self, seconds: float, phase: str | None = None) -> None:
        """Charge ``seconds`` of computation time."""
        self._charge(seconds, phase)
        self._comp += seconds

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
