"""The stage barrier against its frozen two-path reference.

Until ``8b1af73`` a synchronous stage charged ``SimClock.barrier`` (with
the jitter inside the clock) and a stale one deferred jittered seconds
into :class:`StalenessLanes`.  Now the lanes are the only barrier, at
every ``S >= 0``.  This property draws clusters (speeds, jitter),
staleness bounds and stage / layer sequences, exact zeros included, and
holds the lanes to the reference bit for bit: the clock's time,
computation and per-phase ledger, every barrier's and every layer
boundary's return value, and the sync count.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import LayerSpeedJitter, SimClock
from repro.config import ClusterConfig
from repro.ps.master import WorkerPhase
from repro.runtime.hooks import CallbackList
from repro.runtime.phases import PhaseRunner
from tests import _reference_barrier as ref

PHASES = (
    "CREATE_SKETCH", "NEW_TREE", "BUILD_HISTOGRAM", "FIND_SPLIT", "SPLIT_TREE"
)

#: ``None`` marks a layer boundary; a stage is ``(phase, per-worker seconds)``.
LAYER = None


@st.composite
def scenarios(draw):
    n_workers = draw(st.integers(1, 5))
    speeds = draw(
        st.none()
        | st.tuples(*[st.sampled_from((0.25, 0.5, 0.8, 1.0, 1.5))] * n_workers)
    )
    jitter = draw(st.sampled_from((0.0, 0.2)) | st.floats(0.01, 0.95))
    cluster = ClusterConfig(
        n_workers, 1, worker_speeds=speeds, speed_jitter=jitter
    )
    seconds = st.sampled_from((0.0, 2.0**-10, 0.5)) | st.floats(0.0, 2.0)
    stage = st.tuples(
        st.sampled_from(PHASES),
        st.lists(seconds, min_size=n_workers, max_size=n_workers),
    )
    steps = draw(st.lists(st.none() | stage, max_size=24))
    return cluster, draw(st.integers(0, 3)), draw(st.integers(0, 2**16)), steps


def run_reference(cluster, staleness, seed, steps):
    """``PhaseStage.barrier`` and the engine's lane calls as ``8b1af73``
    made them."""
    jitter = (
        LayerSpeedJitter(cluster.n_workers, cluster.speed_jitter, seed=seed)
        if cluster.speed_jitter > 0.0
        else None
    )
    clock = ref.SimClock(jitter=jitter)
    lanes = ref.StalenessLanes(cluster.n_workers, staleness) if staleness else None
    returns = []
    for step in steps:
        if step is LAYER:
            returns.append(lanes.layer_boundary(clock) if lanes is not None else 0.0)
            clock.next_layer()
            continue
        phase, seconds = step
        scaled = ref.scale_by_speeds(seconds, cluster)
        if lanes is not None:
            lanes.defer(clock.jittered(scaled), phase)
            returns.append(0.0)
        else:
            returns.append(clock.barrier(scaled, phase=phase))
    returns.append(lanes.sync(clock) if lanes is not None else 0.0)
    return clock, returns, lanes.syncs if lanes is not None else None


def run_lanes(cluster, staleness, seed, steps):
    """The same sequence through a stage runner and its lanes."""
    clock = SimClock()
    runner = PhaseRunner(
        CallbackList(), clock=clock, cluster=cluster, staleness=staleness, seed=seed
    )
    returns = []
    for step in steps:
        if step is LAYER:
            returns.append(runner.lanes.layer_boundary(clock))
            continue
        phase, seconds = step
        with runner.stage(WorkerPhase(phase)) as stage:
            timer = stage.worker_timer()
            for wid, value in enumerate(seconds):
                timer.add(wid, value)
            returns.append(stage.barrier(timer))
    returns.append(runner.lanes.sync(clock))
    return clock, returns, runner.lanes.syncs


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_lanes_match_the_two_path_reference(scenario):
    expected_clock, expected_returns, expected_syncs = run_reference(*scenario)
    clock, returns, syncs = run_lanes(*scenario)
    assert clock.time == expected_clock.time
    assert clock.computation == expected_clock.computation
    assert list(clock.by_phase().items()) == list(expected_clock.by_phase().items())
    assert returns == expected_returns
    if expected_syncs is not None:  # S = 0 had no lanes to count syncs
        assert syncs == expected_syncs
