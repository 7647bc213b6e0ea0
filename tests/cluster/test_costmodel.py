"""Tests for the Table 1 communication cost model."""

from __future__ import annotations

import math

import pytest

from repro.cluster import (
    CostParams,
    aggregation_time,
    crossover_workers,
    dimboost_aggregation_time,
    lightgbm_aggregation_time,
    mllib_aggregation_time,
    xgboost_aggregation_time,
)
from repro.cluster.costmodel import comm_steps, is_power_of_two, log2_steps
from repro.errors import CommunicationError, ConfigError

COST = CostParams(alpha=1e-4, beta=8e-9, gamma=1e-9)


class TestClosedForms:
    """Each formula must literally match its Table 1 row."""

    @pytest.mark.parametrize("w,h", [(2, 1e6), (8, 1e7), (50, 4e6)])
    def test_mllib_row(self, w, h):
        expected = h * COST.beta * w + COST.alpha + h * COST.gamma
        assert mllib_aggregation_time(w, h, COST) == pytest.approx(expected)

    @pytest.mark.parametrize("w,h", [(2, 1e6), (8, 1e7), (64, 4e6)])
    def test_xgboost_row(self, w, h):
        steps = math.ceil(math.log2(w))
        expected = (h * COST.beta + COST.alpha + h * COST.gamma) * steps
        assert xgboost_aggregation_time(w, h, COST) == pytest.approx(expected)

    @pytest.mark.parametrize("w,h", [(2, 1e6), (8, 1e7), (64, 4e6)])
    def test_lightgbm_row_power_of_two(self, w, h):
        steps = math.ceil(math.log2(w))
        expected = (w - 1) / w * h * COST.beta + (
            COST.alpha + h * COST.gamma
        ) * steps
        assert lightgbm_aggregation_time(w, h, COST) == pytest.approx(expected)

    @pytest.mark.parametrize("w", [3, 5, 50])
    def test_lightgbm_doubles_off_power_of_two(self, w):
        h = 1e6
        steps = math.ceil(math.log2(w))
        base = (w - 1) / w * h * COST.beta + (COST.alpha + h * COST.gamma) * steps
        assert lightgbm_aggregation_time(w, h, COST) == pytest.approx(2 * base)

    @pytest.mark.parametrize("w,h", [(2, 1e6), (8, 1e7), (50, 4e6)])
    def test_dimboost_row(self, w, h):
        expected = (w - 1) / w * h * COST.beta + (w - 1) * COST.alpha + (
            h * COST.gamma
        )
        assert dimboost_aggregation_time(w, h, COST) == pytest.approx(expected)

    def test_single_worker_is_merge_only(self):
        h = 1e6
        assert mllib_aggregation_time(1, h, COST) == pytest.approx(h * COST.gamma)
        assert dimboost_aggregation_time(1, h, COST) == pytest.approx(h * COST.gamma)


class TestPaperRemarks:
    """Section 3 Remarks: who wins where."""

    def test_dimboost_beats_all_on_large_messages(self):
        h = 1e8  # large histogram
        for w in (4, 8, 16, 50):
            t_dim = dimboost_aggregation_time(w, h, COST)
            assert t_dim < mllib_aggregation_time(w, h, COST)
            assert t_dim < xgboost_aggregation_time(w, h, COST)
            assert t_dim <= lightgbm_aggregation_time(w, h, COST) * 1.001

    def test_lightgbm_comparable_at_power_of_two(self):
        """'If w is a power of two, they consume comparable time.'

        The remark concerns the transfer-dominated regime, so gamma (the
        merge constant, 'often less than the transmission time') is tiny.
        """
        cost = CostParams(alpha=1e-4, beta=8e-9, gamma=1e-11)
        h, w = 1e8, 16
        ratio = lightgbm_aggregation_time(w, h, cost) / dimboost_aggregation_time(
            w, h, cost
        )
        assert 0.9 < ratio < 1.1

    def test_lightgbm_twice_dimboost_off_power_of_two(self):
        """'Otherwise, LightGBM consumes about twice the time of DimBoost.'"""
        cost = CostParams(alpha=1e-4, beta=8e-9, gamma=1e-11)
        h, w = 1e8, 50
        ratio = lightgbm_aggregation_time(w, h, cost) / dimboost_aggregation_time(
            w, h, cost
        )
        assert 1.8 < ratio < 2.2

    def test_mllib_scales_worst_with_workers(self):
        h = 1e7
        t8 = mllib_aggregation_time(8, h, COST)
        t64 = mllib_aggregation_time(64, h, COST)
        assert t64 / t8 > 6  # linear in w

    def test_crossover_exists_vs_mllib(self):
        w = crossover_workers("mllib", "dimboost", h=1e7, cost=COST)
        assert w is not None and w >= 2

    def test_no_crossover_for_identity(self):
        assert crossover_workers("dimboost", "dimboost", h=1e7, cost=COST) is None


class TestHelpers:
    def test_comm_steps_column(self):
        assert comm_steps("mllib", 8) == 1
        assert comm_steps("dimboost", 8) == 1
        assert comm_steps("xgboost", 8) == 3
        assert comm_steps("lightgbm", 8) == 3
        assert comm_steps("xgboost", 50) == 6

    def test_is_power_of_two(self):
        assert is_power_of_two(1) and is_power_of_two(64)
        assert not is_power_of_two(0) and not is_power_of_two(50)

    def test_log2_steps(self):
        assert log2_steps(1) == 0
        assert log2_steps(2) == 1
        assert log2_steps(5) == 3

    def test_dispatch(self):
        assert aggregation_time("mllib", 4, 100, COST) == mllib_aggregation_time(
            4, 100, COST
        )
        with pytest.raises(CommunicationError):
            aggregation_time("spark", 4, 100, COST)

    def test_validation(self):
        with pytest.raises(CommunicationError):
            mllib_aggregation_time(0, 100, COST)
        with pytest.raises(CommunicationError):
            mllib_aggregation_time(4, -1, COST)
        with pytest.raises(ConfigError):
            CostParams(alpha=-1)
