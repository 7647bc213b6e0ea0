"""Tests for the tabulated cost-curve analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import CostTable, speedup_table, tabulate_costs
from repro.cluster import CostParams, aggregation_time
from repro.cluster.costmodel import SYSTEM_NAMES

COST = CostParams(alpha=1e-4, beta=8e-9, gamma=1e-9)


class TestTabulate:
    def test_grid_matches_pointwise(self):
        workers = [2, 8, 50]
        sizes = [1e5, 1e7]
        table = tabulate_costs(workers, sizes, COST)
        for i, w in enumerate(workers):
            for j, h in enumerate(sizes):
                for system in SYSTEM_NAMES:
                    assert table.times[system][i, j] == pytest.approx(
                        aggregation_time(system, w, h, COST)
                    )

    def test_winner_dimboost_at_scale(self):
        table = tabulate_costs([50], [1e8], COST)
        assert table.winner(0, 0) == "dimboost"

    def test_rows_flat_format(self):
        table = tabulate_costs([2, 4], [1e5], COST)
        rows = table.rows()
        assert len(rows) == 2
        assert set(rows[0]) == {"workers", "bytes", "winner", *SYSTEM_NAMES}

    def test_speedups_relative_to_baseline(self):
        table = tabulate_costs([8], [1e7], COST)
        speedups = speedup_table(table, baseline="dimboost")
        assert speedups["dimboost"][0, 0] == pytest.approx(1.0)
        assert speedups["mllib"][0, 0] > 1.0

    def test_cost_table_is_dataclass(self):
        table = tabulate_costs([2], [1.0], COST)
        assert isinstance(table, CostTable)
        assert table.workers == (2,)
