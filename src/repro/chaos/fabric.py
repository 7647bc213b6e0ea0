"""Faulty delivery fabric: bounded retry with exponential backoff.

Every PS message (push / pull / pull-UDF) the cluster sends while a
fault plan is active goes through :meth:`FaultyFabric.deliver`.  The
fabric consults the injector *once* per logical message, then runs a
bounded retry loop: each failed attempt charges simulated time — the
wasted wire time of the attempt plus the exponential backoff before the
next one — under the ``FAULT_RECOVERY`` phase label, so injected faults
show up in ``sim_seconds`` and the per-phase breakdown.  A message whose
declared failure count exceeds ``max_retries`` raises
:class:`~repro.errors.ClusterFaultError` immediately (fail fast, never a
hang).

Idempotence makes the retry loop safe: ``send`` callables re-execute the
real delivery, and the servers' per-round sequence numbers
(:meth:`~repro.ps.server.PSServer.handle_push`) make a re-delivered push
a no-op, so duplicates (injected or from retries racing a slow ack)
never double-count a histogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from ..cluster.costmodel import CostParams
from ..errors import ClusterFaultError, ConfigError
from .injector import FaultInjector, InjectedCrash

__all__ = ["FAULT_RECOVERY_PHASE", "FaultyFabric", "RetryPolicy"]

#: Phase label every fault-recovery charge lands under in ``SimClock``.
FAULT_RECOVERY_PHASE = "FAULT_RECOVERY"

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for PS message delivery.

    Attempt *k* (0-based) that fails waits ``base_backoff * multiplier**k``
    simulated seconds before the next attempt.  ``max_retries`` is the
    number of *re*-deliveries allowed after the first attempt, so a
    message is attempted at most ``max_retries + 1`` times.
    """

    max_retries: int = 3
    base_backoff: float = 0.05
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_backoff < 0:
            raise ConfigError(
                f"base_backoff must be >= 0, got {self.base_backoff}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(f"multiplier must be >= 1, got {self.multiplier}")

    def backoff(self, attempt: int) -> float:
        """Simulated seconds to wait after failed attempt ``attempt``."""
        return self.base_backoff * self.multiplier**attempt


class FaultyFabric:
    """Delivery layer between PS clients and servers under a fault plan."""

    def __init__(
        self,
        injector: FaultInjector,
        clock,
        policy: RetryPolicy,
        cost: CostParams,
    ) -> None:
        self.injector = injector
        self.clock = clock
        self.policy = policy
        self.cost = cost

    def deliver(
        self,
        point: str,
        send: Callable[[], T],
        *,
        server: int,
        worker: int | None = None,
        payload_bytes: int | Callable[[T], int] = 0,
    ) -> T:
        """Deliver one logical PS message, surviving its injected faults.

        Args:
            point: Message fault point (``push`` / ``pull`` / ``pull_udf``).
            send: The real delivery; idempotent, re-invoked per attempt.
            server: Destination server id (fault filtering + reporting).
            worker: Originating worker id, if any.
            payload_bytes: Wire size of the message; failed attempts
                charge ``alpha + payload_bytes * beta`` of wasted wire
                time each, on top of the backoff.  A pull whose size
                only its reply knows passes a function of the reply
                (``len`` for a frame): the reply is fetched first — a
                pull changes nothing on the server that a repeat would
                not — and every lost copy is billed at its size.

        Returns:
            Whatever ``send`` returns, once delivery succeeds.

        Raises:
            ClusterFaultError: The fault outlives ``max_retries``.
            InjectedCrash: The plan kills the worker at this message.
        """
        plan = self.injector.op_plan(point, worker=worker, server=server)
        if plan.delay_seconds > 0.0:
            # A slow link: the message arrives late but intact.
            self.clock.advance_comm(
                plan.delay_seconds, phase=FAULT_RECOVERY_PHASE
            )
        if plan.crash_worker is not None:
            raise InjectedCrash(
                plan.crash_worker, point, self.injector.round_index
            )
        if plan.fail_attempts > self.policy.max_retries:
            kind = "server unavailable" if plan.server_down else "message loss"
            raise ClusterFaultError(
                f"{kind} at {point!r} (worker={worker}, server={server}) "
                f"persists for {plan.fail_attempts} attempts, exceeding "
                f"max_retries={self.policy.max_retries}"
            )
        sized_by_reply = callable(payload_bytes)
        if sized_by_reply:
            result = send()
            payload_bytes = payload_bytes(result)
        attempt = 0
        wasted_wire = self.cost.alpha + payload_bytes * self.cost.beta
        while plan.fail_attempts > 0:
            plan.fail_attempts -= 1
            self.clock.advance_comm(
                wasted_wire + self.policy.backoff(attempt),
                phase=FAULT_RECOVERY_PHASE,
            )
            self.injector.note_retry()
            attempt += 1
        if not sized_by_reply:
            result = send()
        if plan.duplicate:
            # A duplicate delivery of the same message; the servers'
            # sequence numbers make it a no-op, but it still burns wire.
            self.clock.advance_comm(wasted_wire, phase=FAULT_RECOVERY_PHASE)
            send()
        if attempt > 0 or plan.duplicate:
            self.injector.note_recovered()
        return result
