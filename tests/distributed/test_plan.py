"""The RunPlan gate: every combination rule fails before any work.

One table row per rule in ``RunPlan.__post_init__``; a product of knobs
in which every cell either is rejected at construction or trains; and a
refit check pinning that the plan holds recipes, not live resources.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import multiprocessing
import re

import pytest

from repro import ClusterConfig, TrainConfig
from repro.chaos import FaultEvent, FaultPlan
from repro.cli import main
from repro.datasets import SyntheticSpec, make_sparse_classification, save_libsvm
from repro.distributed import BACKEND_NAMES, DistributedGBDT, RunPlan
from repro.errors import ConfigError, DataError, TrainingError
from repro.runtime.hooks import RecordingCallback
from tests.test_arena import leaked_segments

ROW = ClusterConfig(n_workers=4, n_servers=2)
GRID = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
FAST = TrainConfig(n_trees=1, max_depth=2, compression_bits=0)


def plan_of(**event) -> FaultPlan:
    return FaultPlan(events=(FaultEvent(**event),))


DROP_PUSH = plan_of(kind="drop", point="push", round_=0, worker=1)


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=120, n_features=16, avg_nnz=5.0)
    return make_sparse_classification(spec, seed=3)


def model_hash(result) -> str:
    payload = json.dumps(result.model.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def row(system, cluster, match, overrides=None, **keywords):
    return (system, cluster, overrides or {}, keywords, match)


#: One row per rule of the gate (several where a rule has several arms).
GATE_ROWS = {
    "sketch-mode-name": row(
        "dimboost", ROW, "sketch_mode must be", sketch_mode="approximate"
    ),
    "unknown-option": row("dimboost", ROW, "unknown option.*two_phase", two_fase=False),
    "option-on-optionless": row("mllib", ROW, "no extra options", bogus=1),
    "grid-on-allreduce": row(
        "xgboost", GRID, "grid 2x2 needs a backend with sparse slab aggregation"
    ),
    "window-on-reduce": row(
        "mllib",
        ROW,
        "agg_window 4 needs a backend with windowed pushes",
        {"agg_window": 4},
    ),
    # K = 1 used to pass TrainConfig and die in the sketch stage, after
    # on_fit_start, under either sketch mode.
    "one-candidate-exact": row(
        "dimboost", ROW, "n_split_candidates must be >= 2", {"n_split_candidates": 1}
    ),
    "one-candidate-distributed": row(
        "dimboost",
        GRID,
        "n_split_candidates must be >= 2",
        {"n_split_candidates": 1},
        sketch_mode="distributed",
    ),
    # The codec width is TrainConfig.compression_bits only.
    "option-bits": row(
        "dimboost", ROW, "unknown option.*'compression_bits'", compression_bits=8
    ),
    # The speed-aware scheduler is gone; round-robin is the only policy.
    "speed-aware-scheduler-option": row(
        "dimboost",
        ROW,
        "unknown option.*'speed_aware_scheduler'",
        speed_aware_scheduler=True,
    ),
    "fault-worker": row(
        "dimboost",
        ROW,
        "event 0 .*worker 9 .*only 4",
        fault_plan=plan_of(kind="crash", point="barrier", worker=9),
    ),
    "fault-server": row(
        "dimboost",
        ROW,
        "event 0 .*server 9 .*only 2",
        fault_plan=plan_of(kind="drop", point="push", server=9),
    ),
    "fault-round": row(
        "dimboost",
        ROW,
        "event 0 .*round 1 .*only 1",
        fault_plan=plan_of(kind="delay", point="barrier", round_=1, delay_seconds=0.1),
    ),
    "fault-second-event": row(
        "dimboost",
        ROW,
        "event 1 .*worker 4",
        fault_plan=FaultPlan(
            events=(*DROP_PUSH.events, FaultEvent("crash", "barrier", worker=4))
        ),
    ),
    "message-fault-without-ps": row(
        "xgboost",
        ROW,
        r"event 0 \(drop@push\) is a message fault",
        fault_plan=DROP_PUSH,
    ),
    # The chaos fabric is wiring, not an option: passing one would let
    # a caller switch the fault plan off.
    "fabric-option": row(
        "dimboost",
        ROW,
        "unknown option.*'fabric'",
        fault_plan=plan_of(kind="drop", point="push", every=2, times=3),
        fabric=None,
    ),
    "pull-udf-fault-without-ps": row(
        "lightgbm",
        ROW,
        "message fault",
        fault_plan=plan_of(kind="duplicate", point="pull_udf"),
    ),
}


class TestGate:
    @pytest.mark.parametrize("case", GATE_ROWS.values(), ids=GATE_ROWS.keys())
    def test_unsupported_combination_fails_before_any_work(self, case):
        system, cluster, overrides, keywords, match = case
        recorder = RecordingCallback()
        with pytest.raises(ConfigError, match=match):
            DistributedGBDT(
                system,
                cluster,
                FAST.with_overrides(**overrides),
                callbacks=[recorder],
                **keywords,
            )
        assert recorder.events == []

    def test_unknown_system_is_a_training_error(self):
        with pytest.raises(TrainingError, match="unknown system 'catboost'"):
            RunPlan("catboost", ROW, FAST)

    def test_legal_neighbours_of_the_rules_resolve(self):
        """Each new rule rejects exactly its combination, not the knob."""
        RunPlan("dimboost", ROW, FAST.with_overrides(compression_bits=4))
        # The sketch path's PS group rides the fabric, so a message fault
        # is reachable on a collective backend with server-merged sketches.
        plan = RunPlan(
            "xgboost", ROW, FAST, sketch_mode="distributed", fault_plan=DROP_PUSH
        )
        assert plan.backend_cls.parameter_server is False
        assert RunPlan("dimboost", GRID, FAST).striped


class TestLoadStage:
    """What only the data can rule out raises before ``on_fit_start``."""

    @pytest.mark.parametrize(
        "system,cluster,error,match",
        [
            ("lightgbm", ClusterConfig(32, 2), TrainingError, "at least one feature"),
            ("dimboost", ClusterConfig(121, 2), DataError, "cannot partition"),
        ],
        ids=["lightgbm-features", "more-workers-than-rows"],
    )
    def test_data_dependent_checks_fire_before_any_callback(
        self, data, system, cluster, error, match
    ):
        recorder = RecordingCallback()
        trainer = DistributedGBDT(system, cluster, FAST, callbacks=[recorder])
        with pytest.raises(error, match=match):
            trainer.fit(data)
        assert recorder.events == []


class TestCli:
    @pytest.fixture(scope="class")
    def dataset_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("plan") / "train.libsvm"
        save_libsvm(data, path)
        return path

    @pytest.fixture(scope="class")
    def plan_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("plan") / "plan.json"
        plan_of(kind="crash", point="barrier", worker=9).save(path)
        return path

    @pytest.mark.parametrize(
        "flags,match",
        [
            (["--grid", "2x2"], "--grid require"),
            (["--fault-plan", "PLAN"], "--fault-plan require"),
            (["--agg-window", "4"], "--agg-window require"),
            (["--staleness", "1"], "--staleness require"),
            (["--speed-jitter", "0.2"], "--speed-jitter require"),
            (["--compression-bits", "8"], "--compression-bits require"),
            (["--grid", "2x2", "--staleness", "1"], "--grid/--staleness require"),
            (["--system", "dimboost", "--fault-plan", "PLAN"], "event 0 .* worker 9"),
            (["--system", "xgboost", "--grid", "2x2"], "grid 2x2 needs"),
        ],
        ids=lambda v: "".join(v).strip("-") if isinstance(v, list) else None,
    )
    def test_inapplicable_flags_exit_2_and_write_no_model(
        self, dataset_file, plan_file, tmp_path, capsys, flags, match
    ):
        model = tmp_path / "m.json"
        flags = [str(plan_file) if flag == "PLAN" else flag for flag in flags]
        code = main(
            ["train", str(dataset_file), "--model", str(model), "--trees", "1", *flags]
        )
        assert code == 2
        assert re.search(match, capsys.readouterr().err)
        assert not model.exists()


class TestResolveOrRun:
    def test_every_cell_is_rejected_at_construction_or_trains(self, data):
        """5 systems x layout x window x sketch mode x bits x staleness x
        fault plan: nothing may fail mid-``fit``.  The seed of the
        generated-config oracle (ROADMAP): resolution is its first branch."""
        ran = rejected = 0
        for system, cluster, window, mode, bits, staleness, plan in itertools.product(
            BACKEND_NAMES,
            (ROW, GRID),
            (1, 4),
            ("exact", "distributed"),
            (0, 8),
            (0, 1),
            (None, DROP_PUSH),
        ):
            config = FAST.with_overrides(
                agg_window=window, compression_bits=bits, staleness=staleness
            )
            recorder = RecordingCallback()
            try:
                trainer = DistributedGBDT(
                    system,
                    cluster,
                    config,
                    sketch_mode=mode,
                    fault_plan=plan,
                    callbacks=[recorder],
                )
            except ConfigError:
                assert recorder.events == []
                rejected += 1
                continue
            result = trainer.fit(data)  # any exception here fails the cell
            assert len(result.model.trees) == 1
            assert recorder.events[0] == ("fit_start", 1)
            ran += 1
        # 12 of the parent's 176 running cells injected nothing: drop@push
        # on a collective backend with exact sketches.  Now rejected.
        assert (ran, rejected) == (164, 156)


class TestRefit:
    """One trainer, ``fit`` twice: the plan is a recipe, so the second
    fit starts from nothing the first one left behind."""

    CRASH = FaultPlan(
        events=(
            FaultEvent("crash", "histogram_build", round_=1, worker=2),
            FaultEvent("drop", "push", round_=0, worker=1),
        )
    )
    CONFIG = FAST.with_overrides(n_trees=2, max_depth=3, n_split_candidates=8)
    CASES = {
        "row-window-stale": (ROW, {"agg_window": 3, "staleness": 1}, {}),
        "crash-plan": (ROW, {}, {"fault_plan": CRASH}),
        "merged-sketches": (GRID, {}, {"sketch_mode": "distributed"}),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
    def test_second_fit_equals_first_and_leaks_nothing(self, data, case):
        cluster, overrides, keywords = case
        before = leaked_segments()
        trainer = DistributedGBDT(
            "dimboost", cluster, self.CONFIG.with_overrides(**overrides), **keywords
        )
        first, second = trainer.fit(data), trainer.fit(data)
        assert model_hash(first) == model_hash(second)
        assert first.breakdown.communication == second.breakdown.communication
        assert first.faults == second.faults
        assert (first.faults is not None) == ("fault_plan" in keywords)
        assert leaked_segments() == before
        assert multiprocessing.active_children() == []
