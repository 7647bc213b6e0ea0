"""The trainer hook spine: callbacks fired at stage boundaries.

Every trainer — the single-machine :class:`~repro.boosting.gbdt.GBDT`,
the distributed :class:`~repro.distributed.engine.DistributedGBDT`, and
the multiclass trainer — drives the same :class:`TrainerCallback`
protocol.  Observability (per-phase time accounting, per-round
telemetry, progress printing) attaches here instead of being inlined in
the engines, so future concerns (fault injection, checkpointing, async
phase overlap) plug in at stage boundaries without editing trainer code.

Event order for one distributed fit::

    on_fit_start
    CREATE_SKETCH  PULL_SKETCH            (once, tree_index=-1)
    per tree: NEW_TREE  [BUILD_HISTOGRAM  FIND_SPLIT  SPLIT_TREE]*layer
              on_tree_end
    FINISH                                 (once, tree_index=-1)
    on_fit_end

The single-machine trainers fire the subset of phases they can attribute
honestly (NEW_TREE around gradient computation; tree growth interleaves
build/find/split per layer inside the grower and is not decomposed), so
a callback written against this protocol runs unmodified on either
trainer.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from ..ps.master import WorkerPhase

__all__ = [
    "TrainerCallback",
    "CallbackList",
    "FaultAccountant",
    "HistoryCollector",
    "RecordingCallback",
]


class TrainerCallback:
    """Base class for trainer hooks; every handler defaults to a no-op.

    Subclass and override the events you care about::

        class Progress(TrainerCallback):
            def on_tree_end(self, tree_index, record):
                print(tree_index, record)

    Handlers must not mutate trainer state; they observe it.  Exceptions
    raised by a handler propagate and abort training (fail loudly rather
    than silently dropping telemetry).
    """

    def on_fit_start(self, n_trees: int) -> None:
        """Training is about to start (``n_trees`` boosting rounds)."""

    def on_phase_start(self, phase: WorkerPhase, tree_index: int) -> None:
        """The cluster (or single process) entered ``phase``.

        ``tree_index`` is the 0-based boosting round, or ``-1`` for the
        per-fit phases (CREATE_SKETCH, PULL_SKETCH, FINISH).
        """

    def on_phase_end(
        self,
        phase: WorkerPhase,
        tree_index: int,
        charges: Mapping[str, float],
        wall_seconds: float,
    ) -> None:
        """The stage for ``phase`` finished.

        Args:
            phase: The worker phase that just completed.
            tree_index: Boosting round, or ``-1`` for per-fit phases.
            charges: Simulated seconds charged to the cluster clock while
                the stage ran, keyed by cost-model phase label.  A stage
                may charge labels other than its own (e.g. histogram
                aggregation runs during BUILD_HISTOGRAM but its wire cost
                is attributed to FIND_SPLIT, matching the paper's
                accounting).  Empty for single-machine trainers.
            wall_seconds: Real wall-clock duration of the stage.
        """

    def on_tree_end(self, tree_index: int, record: object) -> None:
        """One boosting round finished; ``record`` is the trainer's
        per-round telemetry (:class:`~repro.boosting.gbdt.BoostingRound`,
        :class:`~repro.distributed.engine.RoundRecord`, or
        :class:`~repro.boosting.multiclass.MulticlassRound`)."""

    def on_fit_end(self, result: object) -> None:
        """Training finished; ``result`` is the trainer's return value
        (a model, or :class:`~repro.distributed.engine.DistributedResult`)."""


class CallbackList(TrainerCallback):
    """Dispatches every event to an ordered list of callbacks."""

    def __init__(self, callbacks: Iterable[TrainerCallback] = ()) -> None:
        self.callbacks: list[TrainerCallback] = list(callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def append(self, callback: TrainerCallback) -> None:
        """Register one more callback (fires after the existing ones)."""
        self.callbacks.append(callback)

    def on_fit_start(self, n_trees: int) -> None:
        for cb in self.callbacks:
            cb.on_fit_start(n_trees)

    def on_phase_start(self, phase: WorkerPhase, tree_index: int) -> None:
        for cb in self.callbacks:
            cb.on_phase_start(phase, tree_index)

    def on_phase_end(
        self,
        phase: WorkerPhase,
        tree_index: int,
        charges: Mapping[str, float],
        wall_seconds: float,
    ) -> None:
        for cb in self.callbacks:
            cb.on_phase_end(phase, tree_index, charges, wall_seconds)

    def on_tree_end(self, tree_index: int, record: object) -> None:
        for cb in self.callbacks:
            cb.on_tree_end(tree_index, record)

    def on_fit_end(self, result: object) -> None:
        for cb in self.callbacks:
            cb.on_fit_end(result)


class HistoryCollector(TrainerCallback):
    """Appends every round's telemetry record to a shared list.

    The trainers register one of these over their ``history`` /
    ``rounds`` list, so per-round records flow through the same spine
    user callbacks observe.
    """

    def __init__(self, records: list) -> None:
        self.records = records

    def on_tree_end(self, tree_index: int, record: object) -> None:
        self.records.append(record)


class FaultAccountant(TrainerCallback):
    """Per-round accounting of injected faults and their recoveries.

    Observes any ``source`` exposing a live ``counters`` mapping (the
    chaos package's ``FaultInjector`` / ``ChaosRuntime`` — duck-typed so
    the runtime does not import chaos).  On every completed round it
    diffs the counters and attributes the delta to that round; faults
    injected during an aborted round attempt are attributed to the round
    whose completion finally absorbed them.  A round completed twice
    (rollback-replay) accumulates across its attempts.
    """

    def __init__(self, source: Any) -> None:
        self.source = source
        self.per_round: dict[int, dict[str, int]] = {}
        self._seen: dict[str, int] = dict(source.counters)

    def on_tree_end(self, tree_index: int, record: object) -> None:
        current = dict(self.source.counters)
        delta = {
            key: current[key] - self._seen.get(key, 0)
            for key in current
            if current[key] - self._seen.get(key, 0)
        }
        self._seen = current
        if delta:
            bucket = self.per_round.setdefault(tree_index, {})
            for key, count in delta.items():
                bucket[key] = bucket.get(key, 0) + count

    @property
    def totals(self) -> dict[str, int]:
        """Whole-run counter totals (injected, retried, recovered, ...)."""
        return {key: count for key, count in self.source.counters.items() if count}

    def report(self) -> dict:
        """``{"per_round": {round: {counter: n}}, "totals": {counter: n}}``."""
        return {
            "per_round": {t: dict(c) for t, c in sorted(self.per_round.items())},
            "totals": self.totals,
        }


class RecordingCallback(TrainerCallback):
    """Records every event as ``(event_name, payload...)`` tuples.

    Test and debugging aid: the :attr:`events` list captures the exact
    stage order a trainer executed.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_fit_start(self, n_trees: int) -> None:
        self.events.append(("fit_start", n_trees))

    def on_phase_start(self, phase: WorkerPhase, tree_index: int) -> None:
        self.events.append(("phase_start", phase.value, tree_index))

    def on_phase_end(
        self,
        phase: WorkerPhase,
        tree_index: int,
        charges: Mapping[str, float],
        wall_seconds: float,
    ) -> None:
        self.events.append(("phase_end", phase.value, tree_index))

    def on_tree_end(self, tree_index: int, record: object) -> None:
        self.events.append(("tree_end", tree_index))

    def on_fit_end(self, result: object) -> None:
        self.events.append(("fit_end",))
