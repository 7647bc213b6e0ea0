"""Tests for the task schedulers."""

from __future__ import annotations

import pytest

from repro.distributed import RoundRobinScheduler, SingleAgentScheduler
from repro.errors import TrainingError


class TestRoundRobin:
    def test_ith_node_to_i_mod_w(self):
        scheduler = RoundRobinScheduler(3)
        assignment = scheduler.assign([10, 11, 12, 13, 14])
        assert assignment[0] == [10, 13]
        assert assignment[1] == [11, 14]
        assert assignment[2] == [12]

    def test_every_worker_present(self):
        scheduler = RoundRobinScheduler(4)
        assignment = scheduler.assign([7])
        assert set(assignment) == {0, 1, 2, 3}
        assert assignment[3] == []

    def test_balance(self):
        scheduler = RoundRobinScheduler(4)
        assignment = scheduler.assign(list(range(18)))
        sizes = [len(nodes) for nodes in assignment.values()]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_nodes(self):
        assert RoundRobinScheduler(2).assign([]) == {0: [], 1: []}

    def test_invalid_workers(self):
        with pytest.raises(TrainingError):
            RoundRobinScheduler(0)


class TestSingleAgent:
    def test_all_to_agent(self):
        scheduler = SingleAgentScheduler(3, agent=1)
        assignment = scheduler.assign([4, 5, 6])
        assert assignment[1] == [4, 5, 6]
        assert assignment[0] == []
        assert assignment[2] == []

    def test_default_agent_zero(self):
        assignment = SingleAgentScheduler(2).assign([1])
        assert assignment[0] == [1]

    def test_agent_bounds(self):
        with pytest.raises(TrainingError):
            SingleAgentScheduler(2, agent=5)
