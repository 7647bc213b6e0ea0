"""Round-level rollback-replay recovery for injected worker crashes.

Message-level faults (drops, duplicates, server outages) are absorbed
inside :class:`~repro.chaos.fabric.FaultyFabric` by retrying the one
message.  A worker *crash* is different: the round's partial state —
half-pushed histograms, a partially grown tree — is torn, so recovery
rolls the whole run back to the last per-round checkpoint and replays.

Replay reproduces the fault-free computation bit-for-bit because the
training runtime is stateless per round: every RNG stream is spawned
from ``(seed, labels..., round)``, gradients are a pure function of the
checkpointed scores, and the servers' per-round sequence numbers turn
any surviving partial pushes from the aborted attempt into no-ops.
``RoundRecovery`` supplies the three mechanical pieces: capture/restore
of the boosting scores, truncation of the grown model back to the
checkpoint, and the rewind of the master's phase machine to the round
boundary (:meth:`~repro.ps.master.Master.rollback_round`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ClusterFaultError
from .fabric import FAULT_RECOVERY_PHASE, RetryPolicy
from .injector import FaultInjector, InjectedCrash

__all__ = ["Checkpoint", "RoundRecovery"]


@dataclass(frozen=True)
class Checkpoint:
    """Boosting state at a round boundary.

    ``state`` is whatever the trainer's ``capture`` callable returned —
    for the distributed engine, copies of the per-worker raw score
    vectors.  ``n_units`` is how many grown units (trees) existed, so a
    rewind can truncate the model to match.
    """

    round_index: int
    n_units: int
    state: Any


class RoundRecovery:
    """Checkpoint/rollback driver plugged into ``BoostingLoop``.

    Args:
        capture: Returns a deep snapshot of the mutable boosting state.
        restore: Inverse of ``capture``.
        master: The cluster master (its phase machine is rewound).
        clock: Simulated clock; recovery time is charged to it.
        injector: The fault injector (for recovery bookkeeping).
        policy: Retry policy; its backoff paces repeated rollbacks and
            its ``max_retries`` bounds recovery attempts per round.
        checkpoint_every: Checkpoint cadence in completed rounds.
        records: The shared round-record list (``HistoryCollector``'s
            sink); rewinds truncate it alongside the model.
    """

    #: Exception types the boosting loop hands to :meth:`recover`.
    recoverable = (InjectedCrash,)

    def __init__(
        self,
        *,
        capture: Callable[[], Any],
        restore: Callable[[Any], None],
        master,
        clock,
        injector: FaultInjector,
        policy: RetryPolicy,
        checkpoint_every: int = 1,
        records: list | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ClusterFaultError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.master = master
        self.clock = clock
        self.injector = injector
        self.policy = policy
        self.checkpoint_every = checkpoint_every
        self.records = records
        self._capture = capture
        self._restore = restore
        self._last = Checkpoint(round_index=0, n_units=0, state=capture())
        self._attempts: dict[int, int] = {}

    @property
    def last_checkpoint(self) -> Checkpoint:
        return self._last

    def begin_round(self, round_index: int) -> None:
        """Arm the injector for (a possibly replayed) round."""
        self.injector.begin_round(round_index)

    def checkpoint(self, completed_rounds: int, grown_units: list) -> None:
        """Record a checkpoint if the cadence says this boundary gets one."""
        if completed_rounds % self.checkpoint_every == 0:
            self._last = Checkpoint(
                round_index=completed_rounds,
                n_units=len(grown_units),
                state=self._capture(),
            )

    def recover(
        self, round_index: int, fault: InjectedCrash, grown_units: list
    ) -> int:
        """Roll back to the last checkpoint after a crash in ``round_index``.

        Returns:
            The round to resume from (the checkpoint's round).

        Raises:
            ClusterFaultError: The same round keeps crashing past the
                recovery budget (``policy.max_retries`` rollbacks).
        """
        attempt = self._attempts.get(round_index, 0)
        if attempt >= self.policy.max_retries:
            raise ClusterFaultError(
                f"round {round_index} failed {attempt + 1} times "
                f"(worker {fault.worker} crash at {fault.point!r}); recovery "
                f"budget max_retries={self.policy.max_retries} exhausted"
            ) from fault
        self._attempts[round_index] = attempt + 1

        # Detect-and-restart cost: the failure detection timeout plus
        # the rollback itself, charged to simulated time.
        self.clock.advance_comm(
            self.policy.backoff(attempt), phase=FAULT_RECOVERY_PHASE
        )

        self._restore(self._last.state)
        del grown_units[self._last.n_units :]
        if self.records is not None:
            del self.records[self._last.n_units :]
        self.master.rollback_round()
        self.injector.note_recovered()
        return self._last.round_index
