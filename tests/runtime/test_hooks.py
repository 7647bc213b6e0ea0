"""Tests for the trainer hook spine and the shared boosting loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.boosting.gbdt import GBDT
from repro.boosting.multiclass import MulticlassGBDT
from repro.runtime.hooks import (
    CallbackList,
    RecordingCallback,
    TrainerCallback,
)

N_TREES = 3

TREE_PHASES = ("NEW_TREE", "BUILD_HISTOGRAM", "FIND_SPLIT", "SPLIT_TREE")


@pytest.fixture()
def config() -> TrainConfig:
    # max_depth=2 → exactly one split layer, so every per-tree phase
    # fires exactly once per tree.
    return TrainConfig(
        n_trees=N_TREES, max_depth=2, n_split_candidates=8, compression_bits=0
    )


class TestDistributedHookSpine:
    @pytest.fixture(scope="class")
    def events(self, tiny_dataset):
        recorder = RecordingCallback()
        config = TrainConfig(
            n_trees=N_TREES,
            max_depth=2,
            n_split_candidates=8,
            compression_bits=0,
        )
        train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(2, 2),
            config,
            callbacks=[recorder],
        )
        return recorder.events

    def test_fit_bracketing(self, events):
        assert events[0] == ("fit_start", N_TREES)
        assert events[-1] == ("fit_end",)

    def test_setup_phases_once_with_sentinel_tree_index(self, events):
        for phase in ("CREATE_SKETCH", "PULL_SKETCH", "FINISH"):
            starts = [e for e in events if e == ("phase_start", phase, -1)]
            ends = [e for e in events if e == ("phase_end", phase, -1)]
            assert len(starts) == 1 and len(ends) == 1

    def test_every_phase_exactly_once_per_tree_in_order(self, events):
        """The documented per-tree order: NEW_TREE → BUILD_HISTOGRAM →
        FIND_SPLIT → SPLIT_TREE → tree_end, each stage start/end paired."""
        for t in range(N_TREES):
            expected = []
            for phase in TREE_PHASES:
                expected.append(("phase_start", phase, t))
                expected.append(("phase_end", phase, t))
            expected.append(("tree_end", t))
            observed = [
                e for e in events if e[-1] == t and e[0] != "fit_start"
            ]
            assert observed == expected

    def test_full_event_order(self, events):
        expected = [("fit_start", N_TREES)]
        for phase in ("CREATE_SKETCH", "PULL_SKETCH"):
            expected += [("phase_start", phase, -1), ("phase_end", phase, -1)]
        for t in range(N_TREES):
            for phase in TREE_PHASES:
                expected += [("phase_start", phase, t), ("phase_end", phase, t)]
            expected.append(("tree_end", t))
        expected += [
            ("phase_start", "FINISH", -1),
            ("phase_end", "FINISH", -1),
            ("fit_end",),
        ]
        assert events == expected


class TestSingleMachineHookSpine:
    def test_same_callback_unmodified_on_gbdt(self, tiny_dataset, config):
        """A callback written for the distributed spine runs unchanged on
        the single-machine trainer (which fires the subset of phases it
        can attribute honestly)."""
        recorder = RecordingCallback()
        GBDT(config).fit(tiny_dataset, callbacks=[recorder])
        events = recorder.events
        assert events[0] == ("fit_start", N_TREES)
        assert events[-1] == ("fit_end",)
        for t in range(N_TREES):
            assert ("phase_start", "NEW_TREE", t) in events
            assert ("phase_end", "NEW_TREE", t) in events
            assert ("tree_end", t) in events

    def test_same_callback_unmodified_on_multiclass(self, tiny_dataset, config):
        from repro.datasets import Dataset

        labeled = Dataset(
            X=tiny_dataset.X,
            y=np.arange(tiny_dataset.n_instances) % 3,
            name="three-class",
        )
        recorder = RecordingCallback()
        MulticlassGBDT(n_classes=3, config=config).fit(
            labeled, callbacks=[recorder]
        )
        assert recorder.events[0] == ("fit_start", N_TREES)
        assert recorder.events[-1] == ("fit_end",)
        tree_ends = [e for e in recorder.events if e[0] == "tree_end"]
        assert tree_ends == [("tree_end", t) for t in range(N_TREES)]


class _LossTrace(TrainerCallback):
    """Custom callback used to prove both trainers share the loop:
    collects (tree_index, train_loss) from whatever record arrives."""

    def __init__(self) -> None:
        self.trace: list[tuple[int, float]] = []

    def on_tree_end(self, tree_index: int, record) -> None:
        self.trace.append((tree_index, record.train_loss))


class TestSharedBoostingLoop:
    def test_both_trainers_drive_one_custom_callback(
        self, tiny_dataset, config
    ):
        """gbdt.py and engine.py both run through BoostingLoop: one
        custom callback observes the same per-round loss trajectory from
        both, and with exact aggregation the losses are identical."""
        single = _LossTrace()
        GBDT(config).fit(tiny_dataset, callbacks=[single])

        distributed = _LossTrace()
        train_distributed(
            "dimboost",
            tiny_dataset,
            ClusterConfig(2, 2),
            config,
            callbacks=[distributed],
        )

        assert [t for t, _ in single.trace] == list(range(N_TREES))
        assert [t for t, _ in distributed.trace] == list(range(N_TREES))
        for (_, a), (_, b) in zip(single.trace, distributed.trace):
            assert a == pytest.approx(b, rel=1e-12)

    def test_early_stopping_flows_through_loop(self, tiny_dataset):
        """The loop's should_stop/finalize seams carry the eval-based
        early-stopping policy: the callback sees every evaluated round
        while the model is truncated to the best one."""
        config = TrainConfig(
            n_trees=12,
            max_depth=2,
            n_split_candidates=8,
            learning_rate=0.5,
            compression_bits=0,
        )
        trace = _LossTrace()
        trainer = GBDT(config)
        model = trainer.fit(
            tiny_dataset,
            eval_set=tiny_dataset,
            early_stopping_rounds=2,
            callbacks=[trace],
        )
        assert len(trace.trace) == len(trainer.history)
        assert len(model.trees) <= len(trace.trace)


class TestCallbackPlumbing:
    def test_dispatch_order(self):
        order: list[str] = []

        class Named(TrainerCallback):
            def __init__(self, name: str) -> None:
                self.name = name

            def on_fit_start(self, n_trees: int) -> None:
                order.append(self.name)

        chain = CallbackList([Named("a"), Named("b")])
        chain.append(Named("c"))
        chain.on_fit_start(1)
        assert order == ["a", "b", "c"]
        assert len(chain) == 3
