"""Unit tests for the chaos building blocks.

Covers the pieces in isolation: plan validation + serialization, the
injector's deterministic occasion counting (including the rollback
rewind), the fabric's bounded retry loop and its simulated-time charges,
the servers' idempotent sequence numbers, and the checkpoint/rollback
driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import (
    COUNTER_KEYS,
    FAULT_RECOVERY_PHASE,
    Checkpoint,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultyFabric,
    InjectedCrash,
    RetryPolicy,
    RoundRecovery,
)
from repro.cluster.costmodel import CostParams
from repro.cluster.simclock import SimClock
from repro.errors import ClusterFaultError, ConfigError, ReproError
from repro.ps import Master, ParameterServerGroup, WorkerPhase
from repro.ps.partitioner import Partition
from repro.ps.server import PSServer
from repro.runtime.hooks import FaultAccountant


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="fault kind"):
            FaultEvent(kind="explode", point="push")

    def test_unknown_point(self):
        with pytest.raises(ConfigError, match="fault point"):
            FaultEvent(kind="drop", point="teleport")

    @pytest.mark.parametrize("kind", ["drop", "duplicate", "server_down"])
    def test_message_kinds_need_message_points(self, kind):
        with pytest.raises(ConfigError, match="message points"):
            FaultEvent(kind=kind, point="barrier")

    def test_crash_must_name_worker(self):
        with pytest.raises(ConfigError, match="name the worker"):
            FaultEvent(kind="crash", point="barrier")

    def test_delay_needs_positive_seconds(self):
        with pytest.raises(ConfigError, match="delay_seconds"):
            FaultEvent(kind="delay", point="barrier")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"round_": -1},
            {"worker": -1},
            {"server": -2},
            {"every": 0},
            {"times": 0},
            {"attempts": 0},
        ],
    )
    def test_range_checks(self, kwargs):
        with pytest.raises(ConfigError):
            FaultEvent(kind="drop", point="push", **kwargs)

    def test_fails_delivery(self):
        assert FaultEvent(kind="drop", point="push").fails_delivery
        assert FaultEvent(kind="server_down", point="pull").fails_delivery
        assert not FaultEvent(kind="duplicate", point="push").fails_delivery


class TestFaultPlanSerialization:
    def plan(self) -> FaultPlan:
        return FaultPlan(
            events=(
                FaultEvent(kind="crash", point="barrier", worker=1, round_=2),
                FaultEvent(kind="drop", point="push", every=3, attempts=2),
                FaultEvent(
                    kind="delay", point="histogram_build", delay_seconds=0.5
                ),
            ),
            seed=13,
            name="golden",
        )

    def test_dict_roundtrip(self):
        plan = self.plan()
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_file_roundtrip(self, tmp_path):
        plan = self.plan()
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            FaultPlan.load(path)

    def test_load_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="JSON object"):
            FaultPlan.load(path)

    def test_malformed_event_field(self):
        payload = {"events": [{"kind": "drop", "point": "push", "bogus": 1}]}
        with pytest.raises(ConfigError, match="malformed fault plan"):
            FaultPlan.from_dict(payload)

    def test_events_must_be_fault_events(self):
        with pytest.raises(ConfigError, match="must be FaultEvent"):
            FaultPlan(events=("not an event",))


class TestRandomPlans:
    def test_same_seed_same_plan(self):
        kwargs = dict(n_workers=4, n_servers=2, n_rounds=5)
        assert FaultPlan.random(3, **kwargs) == FaultPlan.random(3, **kwargs)
        assert FaultPlan.random(3, **kwargs) != FaultPlan.random(4, **kwargs)

    @pytest.mark.parametrize("seed", range(20))
    def test_generated_events_stay_within_budget(self, seed):
        plan = FaultPlan.random(
            seed, n_workers=3, n_servers=2, n_rounds=3, max_fail_attempts=2
        )
        assert plan.seed == seed
        for event in plan.events:
            assert 0 <= event.round_ < 3
            assert 0 <= event.worker < 3
            if event.fails_delivery:
                assert event.attempts <= 2
            if event.kind == "crash":
                assert event.times == 1
            if event.kind == "delay":
                assert event.delay_seconds > 0.0

    def test_invalid_budget(self):
        with pytest.raises(ConfigError, match="max_fail_attempts"):
            FaultPlan.random(0, n_workers=2, n_servers=2, n_rounds=2,
                             max_fail_attempts=0)


class TestFaultInjector:
    def test_every_and_times(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="drop", point="push", every=2, times=2),)
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        fails = [
            injector.op_plan("push", worker=0, server=0).fail_attempts
            for _ in range(6)
        ]
        # Occasions 0 and 2 fire; times=2 keeps occasion 4 clean.
        assert fails == [1, 0, 1, 0, 0, 0]
        assert injector.counters["drops"] == 2
        assert injector.counters["injected"] == 2

    def test_round_scoping(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="drop", point="push", round_=1),)
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 0
        injector.begin_round(1)
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 1

    def test_worker_and_server_filters(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", point="push", worker=1),
                FaultEvent(kind="server_down", point="pull", server=0,
                           times=None),
            )
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 0
        assert injector.op_plan("push", worker=1, server=0).fail_attempts == 1
        assert not injector.op_plan("pull", worker=0, server=1).server_down
        assert injector.op_plan("pull", worker=0, server=0).server_down

    def test_site_faults_combine(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", point="histogram_build", worker=2),
                FaultEvent(
                    kind="delay",
                    point="histogram_build",
                    delay_seconds=0.25,
                    times=None,
                ),
            )
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        fault = injector.site_fault("histogram_build", worker=2)
        assert fault.crash_worker == 2
        assert fault.delay_seconds == 0.25

    def test_replay_rewinds_occasions_but_keeps_consumed_crash(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="crash", point="push", worker=0, round_=0),
                FaultEvent(kind="drop", point="push", times=2),
            )
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        first = injector.op_plan("push", worker=0, server=0)
        assert first.crash_worker == 0
        assert first.fail_attempts == 1
        # Rollback-replay of the same round: occasion counters rewind, so
        # the drop (times=2) fires again on the same occasion; the
        # single-shot crash stays consumed, letting the replay complete.
        injector.begin_round(0)
        replay = injector.op_plan("push", worker=0, server=0)
        assert replay.crash_worker is None
        assert replay.fail_attempts == 1
        # Global totals keep both attempts: those faults really happened.
        assert injector.counters["crashes"] == 1
        assert injector.counters["drops"] == 2

    def test_new_round_takes_new_snapshot(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="drop", point="push", every=2,
                               times=None),)
        )
        injector = FaultInjector(plan)
        injector.begin_round(0)
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 1
        injector.begin_round(1)  # occasion counter now at 1 (odd)
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 0
        injector.begin_round(1)  # replay of round 1 rewinds to its entry
        assert injector.op_plan("push", worker=0, server=0).fail_attempts == 0

    def test_counter_keys_complete(self):
        injector = FaultInjector(FaultPlan())
        assert tuple(injector.counters) == COUNTER_KEYS
        injector.note_retry(2)
        injector.note_recovered()
        assert injector.counters["retried"] == 2
        assert injector.counters["recovered"] == 1


class TestRetryPolicy:
    def test_backoff_schedule(self):
        policy = RetryPolicy(max_retries=3, base_backoff=0.1, multiplier=2.0)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_backoff": -0.1},
            {"multiplier": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)


def make_fabric(plan: FaultPlan, max_retries: int = 3):
    clock = SimClock()
    injector = FaultInjector(plan)
    injector.begin_round(0)
    policy = RetryPolicy(
        max_retries=max_retries, base_backoff=0.1, multiplier=2.0
    )
    fabric = FaultyFabric(
        injector, clock, policy, CostParams(alpha=0.001, beta=0.0)
    )
    return fabric, clock, injector


class TestFaultyFabric:
    def test_clean_delivery_is_free(self):
        fabric, clock, injector = make_fabric(FaultPlan())
        calls = []
        result = fabric.deliver(
            "push", lambda: calls.append(1) or "ok", server=0, worker=0
        )
        assert result == "ok"
        assert calls == [1]
        assert clock.time == 0.0
        assert injector.counters["retried"] == 0

    def test_drop_retries_and_charges_recovery_time(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="drop", point="push", attempts=2),)
        )
        fabric, clock, injector = make_fabric(plan)
        calls = []
        fabric.deliver(
            "push", lambda: calls.append(1), server=0, worker=0,
            payload_bytes=100,
        )
        assert calls == [1]  # delivered exactly once after the retries
        # Two failed attempts: wasted wire (alpha, beta=0) plus backoff.
        expected = (0.001 + 0.1) + (0.001 + 0.2)
        assert clock.by_phase()[FAULT_RECOVERY_PHASE] == pytest.approx(expected)
        assert clock.communication == pytest.approx(expected)
        assert injector.counters["retried"] == 2
        assert injector.counters["recovered"] == 1

    def test_failure_past_budget_raises_immediately(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="drop", point="push", attempts=5),)
        )
        fabric, clock, _ = make_fabric(plan, max_retries=3)
        calls = []
        with pytest.raises(ClusterFaultError, match="message loss"):
            fabric.deliver("push", lambda: calls.append(1), server=0, worker=0)
        assert calls == []  # fail fast: no delivery, no retry grinding
        assert clock.time == 0.0

    def test_server_down_names_the_server(self):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="server_down", point="pull", server=1,
                           attempts=9),
            )
        )
        fabric, _, _ = make_fabric(plan, max_retries=3)
        with pytest.raises(ClusterFaultError, match="server unavailable"):
            fabric.deliver("pull", lambda: None, server=1, worker=0)

    def test_duplicate_delivers_twice_and_burns_wire(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="duplicate", point="push"),)
        )
        fabric, clock, injector = make_fabric(plan)
        calls = []
        fabric.deliver("push", lambda: calls.append(1), server=0, worker=0)
        assert calls == [1, 1]
        assert clock.by_phase()[FAULT_RECOVERY_PHASE] == pytest.approx(0.001)
        assert injector.counters["recovered"] == 1

    def test_duplicate_push_burns_its_payload_bytes(self):
        """A duplicated push through the group: the servers apply it once,
        the group bills the one logical message, and the fabric charges
        the copy's wire, ``alpha + bytes * beta``, as recovery."""
        plan = FaultPlan(events=(FaultEvent(kind="duplicate", point="push"),))
        clock = SimClock()
        injector = FaultInjector(plan)
        injector.begin_round(0)
        cost = CostParams(alpha=0.001, beta=1e-6)
        fabric = FaultyFabric(injector, clock, RetryPolicy(), cost)
        group = ParameterServerGroup(n_servers=1, fabric=fabric)
        group.register("grad_hist", 4)
        values = np.arange(4, dtype=np.float64)
        stats = group.push_row("grad_hist", 0, values, seq=(0, 1), worker=0)
        assert (stats.bytes_up, stats.messages) == (16, 1)
        assert group.servers[0].duplicate_pushes == 1
        np.testing.assert_array_equal(group.pull_row("grad_hist", 0)[0], values)
        assert clock.by_phase()[FAULT_RECOVERY_PHASE] == cost.alpha + 16 * cost.beta

    def test_message_delay_charged_to_clock(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="delay", point="push",
                               delay_seconds=0.7),)
        )
        fabric, clock, _ = make_fabric(plan)
        fabric.deliver("push", lambda: None, server=0, worker=0)
        assert clock.by_phase()[FAULT_RECOVERY_PHASE] == pytest.approx(0.7)

    def test_crash_raises_injected_crash(self):
        plan = FaultPlan(
            events=(FaultEvent(kind="crash", point="push", worker=1),)
        )
        fabric, _, _ = make_fabric(plan)
        calls = []
        with pytest.raises(InjectedCrash) as excinfo:
            fabric.deliver("push", lambda: calls.append(1), server=0, worker=1)
        assert calls == []
        assert excinfo.value.worker == 1
        assert excinfo.value.point == "push"
        assert excinfo.value.round_index == 0

    def test_typed_error_is_a_repro_error(self):
        # The CLI catches ReproError; injected faults must exit cleanly.
        assert issubclass(ClusterFaultError, ReproError)
        assert issubclass(InjectedCrash, ClusterFaultError)


def make_server() -> PSServer:
    server = PSServer(0)
    server.register(
        "grad_hist", [Partition(partition_id=0, lo=0, hi=4, server_id=0)]
    )
    return server


class TestServerIdempotence:
    def test_duplicate_seq_applied_once(self):
        server = make_server()
        values = np.arange(4, dtype=np.float64)
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 1))
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 1))
        np.testing.assert_array_equal(
            server.handle_pull("grad_hist", 0, 0), values
        )
        assert server.duplicate_pushes == 1

    def test_distinct_seqs_accumulate(self):
        server = make_server()
        values = np.ones(4)
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 0))
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 1))
        np.testing.assert_array_equal(
            server.handle_pull("grad_hist", 0, 0), 2 * values
        )
        assert server.duplicate_pushes == 0

    def test_unsequenced_push_keeps_additive_semantics(self):
        server = make_server()
        values = np.ones(4)
        server.handle_push("grad_hist", 0, 0, values)
        server.handle_push("grad_hist", 0, 0, values)
        np.testing.assert_array_equal(
            server.handle_pull("grad_hist", 0, 0), 2 * values
        )

    def test_clear_row_frees_applied_tokens(self):
        server = make_server()
        values = np.ones(4)
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 1))
        server.clear_row("grad_hist", 0)
        # Same token on a fresh row applies again: tokens are scoped to
        # the row's lifetime, which is what makes them "per round".
        server.handle_push("grad_hist", 0, 0, values, seq=(0, 1))
        np.testing.assert_array_equal(
            server.handle_pull("grad_hist", 0, 0), values
        )

    def test_clear_parameter_frees_applied_tokens(self):
        server = make_server()
        values = np.ones(4)
        server.handle_push("grad_hist", 2, 0, values, seq=(1, 0))
        server.clear_parameter("grad_hist")
        server.handle_push("grad_hist", 2, 0, values, seq=(1, 0))
        np.testing.assert_array_equal(
            server.handle_pull("grad_hist", 2, 0), values
        )


def make_recovery(
    max_retries: int = 2, checkpoint_every: int = 1, records=None
):
    master = Master()
    master.enter(WorkerPhase.CREATE_SKETCH)
    master.enter(WorkerPhase.PULL_SKETCH)
    master.enter(WorkerPhase.NEW_TREE)
    clock = SimClock()
    state = {"value": 0}
    recovery = RoundRecovery(
        capture=lambda: state["value"],
        restore=lambda saved: state.__setitem__("value", saved),
        master=master,
        clock=clock,
        injector=FaultInjector(FaultPlan()),
        policy=RetryPolicy(max_retries=max_retries),
        checkpoint_every=checkpoint_every,
        records=records,
    )
    return recovery, master, clock, state


class TestRoundRecovery:
    def test_initial_checkpoint_at_round_zero(self):
        recovery, _, _, _ = make_recovery()
        assert recovery.last_checkpoint == Checkpoint(
            round_index=0, n_units=0, state=0
        )

    def test_checkpoint_cadence(self):
        recovery, _, _, state = make_recovery(checkpoint_every=2)
        units = ["t0"]
        state["value"] = 1
        recovery.checkpoint(1, units)  # off-cadence boundary: skipped
        assert recovery.last_checkpoint.round_index == 0
        units.append("t1")
        state["value"] = 2
        recovery.checkpoint(2, units)
        assert recovery.last_checkpoint == Checkpoint(
            round_index=2, n_units=2, state=2
        )

    def test_recover_rolls_back_to_checkpoint(self):
        records = ["r0"]
        recovery, master, clock, state = make_recovery(records=records)
        units = ["t0"]
        state["value"] = 1
        recovery.checkpoint(1, units)
        # Round 1 goes wrong mid-flight: a partial tree and record exist.
        master.enter(WorkerPhase.BUILD_HISTOGRAM)
        units.append("t1-partial")
        records.append("r1-partial")
        state["value"] = 99
        fault = InjectedCrash(worker=1, point="push", round_index=1)
        resume = recovery.recover(1, fault, units)
        assert resume == 1  # the checkpoint's round
        assert units == ["t0"]
        assert records == ["r0"]
        assert state["value"] == 1
        assert clock.by_phase()[FAULT_RECOVERY_PHASE] > 0.0
        # The master rewound to the round's NEW_TREE barrier.
        assert master.phase is WorkerPhase.NEW_TREE

    def test_budget_exhaustion_raises_typed_error(self):
        recovery, master, _, _ = make_recovery(max_retries=1)
        fault = InjectedCrash(worker=0, point="barrier", round_index=0)
        recovery.recover(0, fault, [])
        master.enter(WorkerPhase.BUILD_HISTOGRAM)  # replay goes again
        with pytest.raises(ClusterFaultError, match="recovery budget"):
            recovery.recover(0, fault, [])

    def test_chained_cause_names_the_crash(self):
        recovery, _, _, _ = make_recovery(max_retries=0)
        fault = InjectedCrash(worker=1, point="push", round_index=2)
        with pytest.raises(ClusterFaultError) as excinfo:
            recovery.recover(2, fault, [])
        assert excinfo.value.__cause__ is fault

    def test_invalid_cadence(self):
        with pytest.raises(ClusterFaultError, match="checkpoint_every"):
            make_recovery(checkpoint_every=0)


class TestFaultAccountant:
    class Source:
        def __init__(self):
            self.counters = {key: 0 for key in COUNTER_KEYS}

    def test_report_attributes_deltas_per_round(self):
        source = self.Source()
        accountant = FaultAccountant(source)
        source.counters["drops"] += 2
        source.counters["injected"] += 2
        accountant.on_tree_end(0, None)
        accountant.on_tree_end(1, None)  # clean round: no bucket
        source.counters["crashes"] += 1
        source.counters["injected"] += 1
        accountant.on_tree_end(2, None)
        report = accountant.report()
        assert report["per_round"] == {
            0: {"injected": 2, "drops": 2},
            2: {"injected": 1, "crashes": 1},
        }
        assert report["totals"] == {"injected": 3, "drops": 2, "crashes": 1}

    def test_replayed_round_accumulates(self):
        source = self.Source()
        accountant = FaultAccountant(source)
        source.counters["drops"] += 1
        accountant.on_tree_end(0, None)
        source.counters["drops"] += 1
        accountant.on_tree_end(0, None)  # rollback-replay of round 0
        assert accountant.report()["per_round"] == {0: {"drops": 2}}
