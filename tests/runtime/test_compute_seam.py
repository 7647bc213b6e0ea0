"""One compute seam: measured seconds reach the simulated clock only through
a stage's :class:`WorkerTimer` and :meth:`PhaseStage.barrier`.

Section 4.4's rule — no worker proceeds until every worker finished the
current phase — is applied in one place, so speed scaling, per-layer
jitter, bounded-staleness deferral and straggler delays hold for every
phase alike.  These tests pin the behaviours that follow from it, and a
source guard keeps the charges from being hand-rolled again.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.chaos import FaultEvent, FaultPlan
from repro.cluster import SimClock
from repro.config import ClusterConfig, TrainConfig
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.distributed import BACKEND_NAMES, make_backend, train_distributed
from repro.runtime import phases
from repro.runtime.phases import StalenessLanes, WorkerTimer
from repro.sketch import propose_candidates
from tests.distributed import find_splits

SRC = Path(repro.__file__).parent

#: Backends whose split scan runs on one worker: the root (MLlib,
#: XGBoost) or the leader (TencentBoost).
ROOT_SCANS = ("mllib", "xgboost", "tencentboost")


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=400, n_features=24, avg_nnz=6.0)
    return make_sparse_classification(spec, seed=3)


@pytest.fixture()
def fixed_step_clock(monkeypatch):
    """Every worker-timer read advances a counter by 2**-10 s, so each
    measured interval is an exact, machine-independent float."""
    counter = itertools.count()
    monkeypatch.setattr(phases, "wall_clock", lambda: next(counter) * 2.0**-10)


def aggregated(system, data, cluster, nodes=(0, 1)):
    """A backend holding the merged histograms of ``nodes``."""
    candidates = propose_candidates(data.X, max_bins=8)
    config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
    backend = make_backend(system, cluster, config, candidates)
    backend.begin_tree(0)
    rng = np.random.default_rng(0)
    shape = (candidates.n_features, candidates.max_bins)
    for node in nodes:
        flats = []
        for _ in range(cluster.n_workers):
            grad, hess = rng.normal(size=shape), rng.random(shape)
            # Node invariant: every feature row carries the same totals.
            grad[:, -1] += grad[0].sum() - grad.sum(axis=1)
            hess[:, -1] += hess[0].sum() - hess.sum(axis=1)
            flats.append(np.stack([grad, hess], axis=1).ravel())
        backend.aggregate_node(node, flats, SimClock())
    return backend


class TestStalenessSeesEveryPhase:
    @pytest.fixture()
    def deferred(self, monkeypatch):
        phases_seen: set[str] = set()
        defer = StalenessLanes.defer

        def record(lanes, per_worker_seconds, phase, clock):
            phases_seen.add(phase)
            return defer(lanes, per_worker_seconds, phase, clock)

        monkeypatch.setattr(StalenessLanes, "defer", record)
        return phases_seen

    @pytest.mark.parametrize("system", BACKEND_NAMES)
    def test_find_split_is_deferred(self, data, deferred, system):
        config = TrainConfig(
            n_trees=1, max_depth=3, n_split_candidates=8, staleness=1
        )
        train_distributed(system, data, ClusterConfig(4, 2), config)
        assert {"NEW_TREE", "BUILD_HISTOGRAM", "FIND_SPLIT", "SPLIT_TREE"} <= deferred

    def test_server_merged_sketch_is_deferred(self, data, deferred):
        config = TrainConfig(
            n_trees=1, max_depth=3, n_split_candidates=8, staleness=1
        )
        train_distributed(
            "dimboost", data, ClusterConfig(4, 2), config, sketch_mode="distributed"
        )
        assert "CREATE_SKETCH" in deferred


class TestRootScansRideTheTimer:
    @pytest.mark.parametrize("system", ROOT_SCANS)
    def test_scan_is_recorded_on_worker_zero(self, data, system):
        backend = aggregated(system, data, ClusterConfig(4, 2))
        clock = SimClock()
        timer = WorkerTimer(4)
        backend.find_splits([0, 1], None, clock, timer)
        assert timer.seconds[0] > 0.0
        assert timer.seconds[1:] == [0.0, 0.0, 0.0]
        # The backend charged communication only; compute waits for the
        # stage barrier.
        assert clock.computation == 0.0

    @pytest.mark.parametrize("system", ROOT_SCANS)
    def test_half_speed_root_doubles_the_charge(
        self, data, fixed_step_clock, system
    ):
        charged = {}
        for speeds in ((1.0, 1.0, 1.0, 1.0), (0.5, 1.0, 1.0, 1.0)):
            cluster = ClusterConfig(4, 2, worker_speeds=speeds)
            backend = aggregated(system, data, cluster)
            clock = SimClock()
            find_splits(backend, [0, 1], clock)
            charged[speeds[0]] = clock.computation
        assert charged[1.0] > 0.0
        assert charged[0.5] == 2.0 * charged[1.0]


class TestBarrierStraggler:
    def test_delay_lands_in_find_split(self, data):
        """A straggler at the FIND_SPLIT barrier is split-finding time,
        not fault recovery: it rides the worker's lane into the barrier."""
        config = TrainConfig(n_trees=1, max_depth=3, n_split_candidates=8)
        cluster = ClusterConfig(4, 2)
        plain = train_distributed("dimboost", data, cluster, config)
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="delay",
                    point="barrier",
                    worker=1,
                    delay_seconds=0.5,
                    times=None,
                ),
            ),
            name="straggler",
        )
        delayed = train_distributed(
            "dimboost", data, cluster, config, fault_plan=plan
        )
        assert "FAULT_RECOVERY" not in delayed.phases
        # Two split layers (depth 3), each waiting 0.5 s for worker 1.
        assert delayed.phases["FIND_SPLIT"] - plain.phases["FIND_SPLIT"] > 0.9
        assert delayed.faults["totals"]["injected"] > 0


def _calls(path: Path):
    """``(enclosing function qualname, call node)`` for every call."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, (*scope, child.name))
            else:
                if isinstance(child, ast.Call):
                    yield ".".join(scope), child
                yield from walk(child, scope)

    yield from walk(tree, ())


def _names(path: Path):
    """Every attribute and bare name ``path`` reads."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def _sources():
    return sorted(SRC.rglob("*.py"))


class TestOneSeam:
    SEAM = {"runtime/phases.py", "cluster/simclock.py"}

    def test_compute_is_charged_only_by_the_seam(self):
        offenders = []
        for path in _sources():
            rel = path.relative_to(SRC).as_posix()
            if rel in self.SEAM:
                continue
            for scope, call in _calls(path):
                func = call.func
                if not isinstance(func, ast.Attribute):
                    continue
                receiver = ast.unparse(func.value)
                if func.attr == "advance_compute" or (
                    func.attr == "barrier" and receiver.endswith("clock")
                ):
                    offenders.append(f"{rel}:{call.lineno} {receiver}.{func.attr}")
        assert offenders == []

    def test_speed_scaling_lives_in_the_phase_runner(self):
        """Worker speeds and per-layer jitter factors are read by the
        barrier's lanes only."""
        reads = {"speed_of", "LayerSpeedJitter", "factors", "factor_of"}
        readers = {
            path.relative_to(SRC).as_posix()
            for path in _sources()
            if reads & set(_names(path))
        }
        assert readers == {"runtime/phases.py"}

    def test_no_stopwatch(self):
        assert [
            path
            for path in _sources()
            if "Stopwatch" in path.read_text(encoding="utf-8")
        ] == []

    def test_distributed_reads_the_wall_clock_at_two_sites(self):
        """The ETL pair (loading is not a barrier) and DimBoost's two-phase
        share (one pull-UDF call runs all ``p`` server scans)."""
        reads = [
            (path.name, scope)
            for path in sorted((SRC / "distributed").glob("*.py"))
            for scope, call in _calls(path)
            if isinstance(call.func, ast.Name) and call.func.id == "wall_clock"
        ]
        assert sorted(reads) == [
            ("backends.py", "DimBoostBackend.find_splits"),
            ("backends.py", "DimBoostBackend.find_splits"),
            ("engine.py", "_GridFit.bin"),
            ("engine.py", "_GridFit.bin"),
        ]
