"""The chaos scenarios: inject, recover, and match the fault-free model.

Four named scenarios from the issue — kill-worker-mid-round,
drop-every-Nth-push, straggler-on-leader, server-down-during-pull-UDF.
Every scenario asserts the headline determinism contract: recovery
completes and the final model is **bit-identical** to the fault-free
baseline of the same configuration, while the injected faults show up in
simulated time and in the fault report.
"""

from __future__ import annotations

from repro.chaos import FAULT_RECOVERY_PHASE, FaultEvent, FaultPlan

from tests.chaos.conftest import model_hash, run


class TestKillWorkerMidRound:
    def test_crash_recovers_bit_identical(self, tiny_dataset, baseline):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="crash", point="histogram_build", worker=1, round_=1
                ),
            ),
            name="kill-worker-mid-round",
        )
        result = run(tiny_dataset, fault_plan=plan)
        reference = baseline(tiny_dataset)
        assert model_hash(result) == model_hash(reference)
        totals = result.faults["totals"]
        assert totals["crashes"] == 1
        assert totals["recovered"] >= 1
        # The crash is attributed to the round whose completion absorbed it.
        assert result.faults["per_round"][1]["crashes"] == 1
        # Detection + rollback cost simulated time under its own label.
        assert result.sim_seconds > reference.sim_seconds
        assert result.phases[FAULT_RECOVERY_PHASE] > 0.0
        # The replayed round leaves no duplicate telemetry behind.
        assert len(result.rounds) == len(reference.rounds)


class TestDropEveryNthPush:
    def test_sustained_drops_recover_bit_identical(self, tiny_dataset, baseline):
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", point="push", every=3, times=None),
            ),
            name="drop-every-3rd-push",
        )
        result = run(tiny_dataset, fault_plan=plan)
        reference = baseline(tiny_dataset)
        assert model_hash(result) == model_hash(reference)
        totals = result.faults["totals"]
        assert totals["drops"] > 0
        # attempts=1 per drop: one retry redelivers each lost message.
        assert totals["retried"] == totals["drops"]
        assert totals["recovered"] == totals["drops"]
        assert result.phases[FAULT_RECOVERY_PHASE] > 0.0


class TestStragglerOnLeader:
    def test_delays_slow_the_cluster_but_not_the_model(
        self, tiny_dataset, baseline
    ):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="delay",
                    point="histogram_build",
                    worker=0,
                    delay_seconds=0.25,
                    times=None,
                ),
            ),
            name="straggler-on-leader",
        )
        result = run(tiny_dataset, fault_plan=plan)
        reference = baseline(tiny_dataset)
        assert model_hash(result) == model_hash(reference)
        totals = result.faults["totals"]
        assert totals["delays"] > 0
        # The leader's lane slows every synchronous barrier: the injected
        # delay lands on the critical path of simulated time.
        assert result.sim_seconds - reference.sim_seconds >= 0.25


class TestServerDownDuringPullUDF:
    def test_outage_recovers_bit_identical(self, tiny_dataset, baseline):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind="server_down",
                    point="pull_udf",
                    server=1,
                    attempts=2,
                    times=3,
                ),
            ),
            name="server-down-during-pull-udf",
        )
        # DimBoost's default two-phase split finding sends the split UDF
        # to every server — including the one that is down.
        result = run(tiny_dataset, fault_plan=plan)
        reference = baseline(tiny_dataset)
        assert model_hash(result) == model_hash(reference)
        totals = result.faults["totals"]
        assert totals["server_down"] == 3
        assert totals["retried"] == 6  # two failed attempts per outage
        assert totals["recovered"] == 3
        assert result.phases[FAULT_RECOVERY_PHASE] > 0.0


def mixed_plan() -> FaultPlan:
    """One plan exercising every fault kind in a single run."""
    return FaultPlan(
        events=(
            FaultEvent(kind="crash", point="barrier", worker=2, round_=1),
            FaultEvent(kind="drop", point="push", every=4, times=3),
            FaultEvent(kind="duplicate", point="push", every=5, times=2),
            FaultEvent(
                kind="server_down", point="pull_udf", server=0, attempts=1
            ),
            FaultEvent(
                kind="delay",
                point="histogram_build",
                worker=1,
                delay_seconds=0.1,
                times=2,
            ),
        ),
        name="mixed",
    )


class TestDeterminism:
    def test_same_seed_same_plan_replays_identically(self, tiny_dataset):
        first = run(tiny_dataset, fault_plan=mixed_plan())
        second = run(tiny_dataset, fault_plan=mixed_plan())
        assert model_hash(first) == model_hash(second)
        assert first.faults == second.faults
        # Simulated compute is measured from real kernel wall time, so
        # total sim seconds wobble; the fault-attributable charges are a
        # pure function of the plan and must replay exactly.
        assert (
            first.phases[FAULT_RECOVERY_PHASE]
            == second.phases[FAULT_RECOVERY_PHASE]
        )

    def test_mixed_plan_recovers_bit_identical(self, tiny_dataset, baseline):
        result = run(tiny_dataset, fault_plan=mixed_plan())
        reference = baseline(tiny_dataset)
        assert model_hash(result) == model_hash(reference)
        totals = result.faults["totals"]
        for key in ("crashes", "drops", "duplicates", "server_down", "delays"):
            assert totals[key] > 0, key

    def test_tencentboost_backend_recovers_too(self, tiny_dataset, baseline):
        # The other PS-style backend shares the faulty fabric wiring.
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", point="push", every=2, times=4),
            ),
            name="tencentboost-drops",
        )
        result = run(tiny_dataset, system="tencentboost", fault_plan=plan)
        reference = baseline(tiny_dataset, system="tencentboost")
        assert model_hash(result) == model_hash(reference)
        assert result.faults["totals"]["drops"] == 4

    def test_fault_report_shape(self, tiny_dataset):
        result = run(tiny_dataset, fault_plan=mixed_plan())
        assert set(result.faults) == {"per_round", "totals"}
        for round_index, counters in result.faults["per_round"].items():
            assert 0 <= round_index < 3
            assert all(count > 0 for count in counters.values())

    def test_fault_free_run_has_no_report(self, tiny_dataset, baseline):
        assert baseline(tiny_dataset).faults is None
