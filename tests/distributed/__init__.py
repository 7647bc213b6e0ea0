"""Distributed-engine tests, and the FIND_SPLIT stage they drive a backend in."""

from __future__ import annotations

from repro.ps.master import WorkerPhase
from repro.runtime.hooks import CallbackList
from repro.runtime.phases import PhaseRunner


def find_splits(backend, nodes, clock, feature_valid=None):
    """``backend.find_splits`` as the engine runs it: inside a FIND_SPLIT
    stage whose barrier charges the recorded scan seconds to ``clock``."""
    runner = PhaseRunner(CallbackList(), clock=clock, cluster=backend.cluster)
    with runner.stage(WorkerPhase.FIND_SPLIT) as stage:
        timer = stage.worker_timer()
        decisions = backend.find_splits(nodes, feature_valid, clock, timer)
        stage.barrier(timer)
    return decisions
