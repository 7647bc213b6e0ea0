"""Deterministic fault injection + recovery for the simulated PS cluster.

The package splits chaos into four small pieces:

* :mod:`~repro.chaos.plan` — declarative, seedable :class:`FaultPlan`
  (what fails, where, when); pure data, JSON round-trippable.
* :mod:`~repro.chaos.injector` — :class:`FaultInjector`, the
  deterministic interpreter turning a plan into per-occasion decisions.
* :mod:`~repro.chaos.fabric` — :class:`FaultyFabric`, bounded
  retry + exponential backoff around every PS message, charged to
  simulated time.
* :mod:`~repro.chaos.recovery` — :class:`RoundRecovery`,
  checkpoint/rollback-replay for worker crashes.

:class:`ChaosRuntime` bundles them for one training run; the distributed
engine builds one when a ``fault_plan`` is supplied and threads its
fabric into the PS backend and its injector into the growth strategy's
execution sites.

The determinism contract (asserted by ``tests/chaos/``): the same seed,
plan, and cluster shape replay the same faults; and a faulted run that
recovers produces a model **bit-identical** to the fault-free run.
"""

from __future__ import annotations

from ..cluster.costmodel import CostParams
from ..runtime.phases import WorkerTimer
from .fabric import FAULT_RECOVERY_PHASE, FaultyFabric, RetryPolicy
from .injector import (
    COUNTER_KEYS,
    FaultInjector,
    InjectedCrash,
    OpPlan,
    SiteFault,
)
from .plan import (
    FAULT_KINDS,
    FAULT_POINTS,
    MESSAGE_POINTS,
    SITE_POINTS,
    FaultEvent,
    FaultPlan,
)
from .recovery import Checkpoint, RoundRecovery

__all__ = [
    "COUNTER_KEYS",
    "FAULT_KINDS",
    "FAULT_POINTS",
    "FAULT_RECOVERY_PHASE",
    "MESSAGE_POINTS",
    "SITE_POINTS",
    "ChaosRuntime",
    "Checkpoint",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultyFabric",
    "InjectedCrash",
    "OpPlan",
    "RetryPolicy",
    "RoundRecovery",
    "SiteFault",
]


class ChaosRuntime:
    """One training run's chaos machinery: injector + fabric + policy.

    Args:
        plan: The declarative fault plan.
        clock: The run's ``SimClock``; the fabric charges failed
            deliveries here (straggler delays ride the stage timers).
        cost: Network cost model (wasted wire time of failed attempts).
        max_retries: Delivery retry budget (``RetryPolicy.max_retries``).
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        clock,
        cost: CostParams | None = None,
        max_retries: int = 3,
    ) -> None:
        self.plan = plan
        self.injector = FaultInjector(plan)
        self.policy = RetryPolicy(max_retries=max_retries)
        self.fabric = FaultyFabric(
            self.injector, clock, self.policy, cost or CostParams()
        )

    @property
    def counters(self) -> dict[str, int]:
        """Live injected/retried/recovered counters (``COUNTER_KEYS``)."""
        return self.injector.counters

    def begin_round(self, round_index: int) -> None:
        """Arm the injector for a boosting round (or its replay)."""
        self.injector.begin_round(round_index)

    def site_fault(
        self, point: str, *, worker: int, timer: WorkerTimer
    ) -> SiteFault:
        """Fire an execution-site fault point for one worker occasion.

        Straggler delays are added to the worker's lane on ``timer``, so
        the phase barrier charges them like any slow worker, under the
        delayed phase's label.  Crashes raise :class:`InjectedCrash` for
        the recovery layer to catch.
        """
        fault = self.injector.site_fault(point, worker=worker)
        if fault.delay_seconds > 0.0:
            timer.add(worker, fault.delay_seconds)
        if fault.crash_worker is not None:
            raise InjectedCrash(
                fault.crash_worker, point, self.injector.round_index
            )
        return fault
