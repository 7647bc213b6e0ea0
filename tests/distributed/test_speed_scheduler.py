"""Tests for the heterogeneity-aware (speed-weighted) scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.distributed import SpeedWeightedScheduler
from repro.errors import TrainingError


class TestAssignment:
    def test_uniform_speeds_balanced(self):
        scheduler = SpeedWeightedScheduler(4)
        assignment = scheduler.assign(list(range(17)))
        sizes = [len(nodes) for nodes in assignment.values()]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 17

    def test_slow_worker_gets_fewer_tasks(self):
        scheduler = SpeedWeightedScheduler(4, speeds=[1.0, 1.0, 1.0, 0.25])
        assignment = scheduler.assign(list(range(26)))
        slow = len(assignment[3])
        fast = min(len(assignment[w]) for w in range(3))
        assert slow < fast
        # Roughly proportional: 0.25 speed -> ~1/4 of a fast worker's load.
        assert slow <= fast // 2

    def test_fast_worker_gets_more(self):
        scheduler = SpeedWeightedScheduler(2, speeds=[3.0, 1.0])
        assignment = scheduler.assign(list(range(12)))
        assert len(assignment[0]) > len(assignment[1])
        assert len(assignment[0]) == pytest.approx(9, abs=1)

    def test_every_node_assigned_once(self):
        scheduler = SpeedWeightedScheduler(3, speeds=[1.0, 2.0, 0.5])
        nodes = list(range(31))
        assignment = scheduler.assign(nodes)
        combined = sorted(n for lst in assignment.values() for n in lst)
        assert combined == nodes

    def test_deterministic(self):
        a = SpeedWeightedScheduler(3, speeds=[1.0, 2.0, 0.5]).assign(list(range(9)))
        b = SpeedWeightedScheduler(3, speeds=[1.0, 2.0, 0.5]).assign(list(range(9)))
        assert a == b

    def test_validation(self):
        with pytest.raises(TrainingError):
            SpeedWeightedScheduler(0)
        with pytest.raises(TrainingError):
            SpeedWeightedScheduler(2, speeds=[1.0])
        with pytest.raises(TrainingError):
            SpeedWeightedScheduler(2, speeds=[1.0, -1.0])

    def test_update_speeds_shifts_assignment(self):
        """Refreshed per-layer speeds re-aim the next assignment — the
        hook the backend uses to track the rotating (jittered)
        straggler."""
        scheduler = SpeedWeightedScheduler(2, speeds=[1.0, 1.0])
        balanced = scheduler.assign(list(range(12)))
        assert len(balanced[0]) == len(balanced[1])
        scheduler.update_speeds([3.0, 1.0])
        skewed = scheduler.assign(list(range(12)))
        assert len(skewed[0]) > len(skewed[1])

    def test_update_speeds_validation(self):
        scheduler = SpeedWeightedScheduler(2)
        with pytest.raises(TrainingError):
            scheduler.update_speeds([1.0])
        with pytest.raises(TrainingError):
            scheduler.update_speeds([1.0, 0.0])


class TestEndToEnd:
    def test_mitigates_straggler_find_split(self, small_dataset):
        """With a straggler, the speed-aware scheduler spends less
        FIND_SPLIT time than round-robin (it shifts pulls off the slow
        machine); the model is unchanged."""
        config = TrainConfig(
            n_trees=3, max_depth=5, n_split_candidates=8, seed=2
        )
        cluster = ClusterConfig(
            n_workers=4,
            n_servers=4,
            worker_speeds=(1.0, 1.0, 1.0, 0.2),
        )
        exact = config.with_overrides(compression_bits=0)
        round_robin = train_distributed("dimboost", small_dataset, cluster, exact)
        speed_aware = train_distributed(
            "dimboost", small_dataset, cluster, exact, speed_aware_scheduler=True
        )
        assert (
            speed_aware.phases["FIND_SPLIT"] < round_robin.phases["FIND_SPLIT"]
        )
        np.testing.assert_allclose(
            speed_aware.model.predict_raw(small_dataset.X),
            round_robin.model.predict_raw(small_dataset.X),
            atol=1e-9,
        )
