"""Bounded-staleness determinism battery.

Asynchrony must not cost reproducibility: at every staleness level the
trained model is a pure function of (seed, config, fault plan).  The
battery proves it the only way that holds up — double runs compared by
model hash, fault-injected runs compared against fault-free runs of the
same configuration, and the fault accountant's report compared entry by
entry.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import FaultEvent, FaultPlan
from repro.cluster.simclock import SimClock
from repro.config import ClusterConfig, TrainConfig
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.distributed.engine import DistributedGBDT
from repro.runtime.phases import StalenessLanes

CLUSTER = ClusterConfig(n_workers=3, n_servers=2)

#: Named chaos plans the async mode must recover from, bit-identically.
PLANS = {
    "drop": FaultPlan(
        events=(FaultEvent(kind="drop", point="push", round_=1, worker=1),),
        name="drop",
    ),
    "duplicate": FaultPlan(
        events=(FaultEvent(kind="duplicate", point="push", round_=0),),
        name="duplicate",
    ),
    "crash": FaultPlan(
        events=(
            FaultEvent(
                kind="crash", point="histogram_build", round_=2, worker=2
            ),
        ),
        name="crash",
    ),
    "mixed": FaultPlan(
        events=(
            FaultEvent(kind="drop", point="push", round_=1, worker=0),
            FaultEvent(kind="duplicate", point="push", round_=0),
            FaultEvent(
                kind="crash", point="histogram_build", round_=2, worker=1
            ),
        ),
        name="mixed",
    ),
}


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=300, n_features=30, avg_nnz=8.0)
    return make_sparse_classification(spec, seed=13)


def stale_config(staleness, window=2, **overrides):
    base = dict(
        n_trees=3,
        max_depth=4,
        n_split_candidates=8,
        learning_rate=0.3,
        compression_bits=0,
        staleness=staleness,
        agg_window=window,
    )
    base.update(overrides)
    return TrainConfig(**base)


def run(data, config, fault_plan=None):
    return DistributedGBDT(
        "dimboost", CLUSTER, config, fault_plan=fault_plan
    ).fit(data)


def model_hash(result):
    payload = json.dumps(result.model.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestDoubleRunDeterminism:
    @pytest.mark.parametrize("staleness", [0, 1, 2])
    def test_same_seed_same_model(self, data, staleness):
        """Two runs of the identical async configuration are bit-equal."""
        first = run(data, stale_config(staleness))
        second = run(data, stale_config(staleness))
        assert model_hash(first) == model_hash(second)

    @pytest.mark.parametrize("staleness", [0, 1, 2])
    @pytest.mark.parametrize("plan", ["drop", "mixed"])
    def test_same_fault_plan_same_model_and_report(
        self, data, staleness, plan
    ):
        """Same seed + same fault plan ⇒ identical model *and* identical
        fault-accountant report, at every staleness level."""
        first = run(data, stale_config(staleness), fault_plan=PLANS[plan])
        second = run(data, stale_config(staleness), fault_plan=PLANS[plan])
        assert model_hash(first) == model_hash(second)
        assert first.faults == second.faults
        assert first.faults["totals"]


class TestChaosRecoveryUnderStaleness:
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("staleness", [1, 2])
    def test_async_recovers_bit_identical(self, data, plan, staleness):
        """Every named chaos plan recovers to the fault-free async model:
        retry + windowed seq dedupe + rollback-replay survive relaxed
        barriers."""
        clean = run(data, stale_config(staleness))
        faulted = run(data, stale_config(staleness), fault_plan=PLANS[plan])
        assert model_hash(faulted) == model_hash(clean)
        assert faulted.faults["totals"]


class TestSynchronousEquivalence:
    def test_staleness_zero_is_todays_barrier(self, data):
        """S=0 is arithmetically the synchronous path — windowed or not,
        the model matches the no-knobs baseline bit for bit."""
        baseline = run(data, stale_config(0, window=1))
        for window in (1, 4):
            result = run(data, stale_config(0, window=window))
            assert model_hash(result) == model_hash(baseline)

    def test_sync_every_s_plus_one_layers(self, data):
        """S>=1 defers barrier seconds into lanes; the sim clock still
        advances and the model stays deterministic (covered above), and
        the run completes with a finite positive simulated time."""
        result = run(data, stale_config(1))
        assert result.breakdown.total > 0.0


class TestAccuracyBound:
    def test_staleness_accuracy_delta_is_bounded(self, data):
        """Delayed score application perturbs the gradients, not the
        algorithm: over 6 rounds the train loss at S in {1, 2} stays
        within 0.1 absolute of the synchronous loss, and the gap shrinks
        as rounds accumulate (measured values recorded in
        EXPERIMENTS.md: 0.389 sync, 0.406 at S=1, 0.442 at S=2)."""
        sync = run(data, stale_config(0, n_trees=6)).rounds[-1].train_loss
        for staleness in (1, 2):
            async_loss = run(
                data, stale_config(staleness, n_trees=6)
            ).rounds[-1].train_loss
            assert abs(async_loss - sync) < 0.1, (
                f"S={staleness}: train loss {async_loss:.4f} drifted more "
                f"than 0.1 from synchronous {sync:.4f}"
            )


class TestStalenessLanes:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            StalenessLanes(CLUSTER, -1)
        # S=0 is the synchronous barrier: the lanes settle at every stage.
        assert StalenessLanes(CLUSTER, 0).staleness == 0

    def test_defer_accumulates_per_worker(self):
        lanes = StalenessLanes(CLUSTER, 1)
        clock = SimClock()
        assert lanes.defer([1.0, 3.0, 2.0], "BUILD_HISTOGRAM", clock) == 0.0
        lanes.defer([0.5, 0.0, 1.0], "FIND_SPLIT", clock)
        assert lanes.lane_seconds == [1.5, 3.0, 3.0]
        assert clock.time == 0.0

    def test_layer_boundary_syncs_after_s_plus_one_layers(self):
        lanes = StalenessLanes(ClusterConfig(n_workers=2, n_servers=2), 1)
        clock = SimClock()
        lanes.defer([2.0, 5.0], "BUILD_HISTOGRAM", clock)
        assert lanes.layer_boundary(clock) == 0.0  # 1 layer <= S
        lanes.defer([1.0, 1.0], "BUILD_HISTOGRAM", clock)
        charged = lanes.layer_boundary(clock)  # 2 layers > S: sync
        assert charged == pytest.approx(6.0)  # slowest lane: 5 + 1
        assert lanes.lane_seconds == [0.0, 0.0]
        assert lanes.syncs == 1
        assert clock.computation == pytest.approx(6.0)

    def test_sync_with_no_lane_time_charges_nothing(self):
        lanes = StalenessLanes(ClusterConfig(n_workers=2, n_servers=2), 2)
        clock = SimClock()
        assert lanes.sync(clock) == 0.0
        assert lanes.syncs == 0
