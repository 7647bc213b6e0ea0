"""Tests for the real collective implementations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CostParams,
    allreduce_binomial,
    dimboost_aggregation_time,
    lightgbm_aggregation_time,
    mllib_aggregation_time,
    point_to_point_time,
    ps_aggregate,
    reduce_scatter_halving,
    reduce_to_coordinator,
    xgboost_aggregation_time,
)
from repro.cluster.collectives import WIRE_BYTES_PER_VALUE
from repro.cluster.costmodel import is_power_of_two, log2_steps
from repro.errors import CommunicationError

COST = CostParams(alpha=1e-4, beta=8e-9, gamma=1e-9)


def expected_halving_bytes(w: int, n_values: int) -> int:
    """Closed-form bytes moved by recursive halving.

    At recursion level ``l`` the groups partition the ``n_values`` range
    exactly and each group's ``w / 2**l`` pairs exchange the full group
    range, so level ``l`` moves ``n * w / 2**l`` values; summing the
    geometric series gives exactly ``(w - 1) * n`` values — independent of
    how odd ranges split.
    """
    assert is_power_of_two(w)
    return (w - 1) * n_values * WIRE_BYTES_PER_VALUE


def make_contributions(w: int, n: int, seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n) for _ in range(w)]


def worker_counts():
    return st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16])


class TestReduceToCoordinator:
    @settings(max_examples=20, deadline=None)
    @given(worker_counts(), st.integers(1, 64))
    def test_sum_correct(self, w, n):
        contribs = make_contributions(w, n)
        result, stats = reduce_to_coordinator(contribs, COST)
        np.testing.assert_allclose(result, np.sum(contribs, axis=0), atol=1e-9)

    def test_accounting(self):
        contribs = make_contributions(4, 100)
        _, stats = reduce_to_coordinator(contribs, COST)
        h = 100 * WIRE_BYTES_PER_VALUE
        assert stats.total_bytes == 3 * h
        assert stats.messages == 3
        assert stats.steps == 1
        assert stats.sim_seconds == pytest.approx(
            mllib_aggregation_time(4, h, COST)
        )


class TestAllReduceBinomial:
    @settings(max_examples=20, deadline=None)
    @given(worker_counts(), st.integers(1, 64))
    def test_sum_correct(self, w, n):
        contribs = make_contributions(w, n)
        result, _ = allreduce_binomial(contribs, COST)
        np.testing.assert_allclose(result, np.sum(contribs, axis=0), atol=1e-9)

    def test_steps_are_log(self):
        for w, expected in [(2, 1), (4, 2), (5, 3), (8, 3)]:
            _, stats = allreduce_binomial(make_contributions(w, 8), COST)
            assert stats.steps == expected

    def test_messages_are_w_minus_1(self):
        # A tree reduce sends exactly w - 1 messages in total.
        for w in (2, 3, 5, 8):
            _, stats = allreduce_binomial(make_contributions(w, 8), COST)
            assert stats.messages == w - 1

    def test_sim_matches_formula(self):
        h = 64 * WIRE_BYTES_PER_VALUE
        _, stats = allreduce_binomial(make_contributions(8, 64), COST)
        assert stats.sim_seconds == pytest.approx(
            xgboost_aggregation_time(8, h, COST)
        )


class TestReduceScatterHalving:
    @settings(max_examples=20, deadline=None)
    @given(worker_counts(), st.integers(2, 64))
    def test_segments_hold_global_sums(self, w, n):
        contribs = make_contributions(w, n)
        owned, stats = reduce_scatter_halving(contribs, COST)
        total = np.sum(contribs, axis=0)
        covered = np.zeros(n, dtype=bool)
        for i, (lo, hi) in stats.segments.items():
            np.testing.assert_allclose(owned[i], total[lo:hi], atol=1e-9)
            assert not covered[lo:hi].any()  # disjoint
            covered[lo:hi] = True
        assert covered.all()  # complete

    def test_power_of_two_bytes(self):
        w, n = 8, 64
        _, stats = reduce_scatter_halving(make_contributions(w, n), COST)
        assert stats.total_bytes == expected_halving_bytes(w, n)

    def test_non_power_of_two_has_prestep(self):
        _, stats = reduce_scatter_halving(make_contributions(5, 16), COST)
        assert stats.steps == 1 + log2_steps(4)
        # Folded-away worker owns nothing.
        owned, stats = reduce_scatter_halving(make_contributions(5, 16), COST)
        assert sum(seg is None for seg in owned) == 1

    def test_sim_matches_formula(self):
        for w in (4, 8, 5, 50):
            n = 128
            _, stats = reduce_scatter_halving(make_contributions(w, n), COST)
            h = n * WIRE_BYTES_PER_VALUE
            assert stats.sim_seconds == pytest.approx(
                lightgbm_aggregation_time(w, h, COST)
            )

    def test_alignment_respected(self):
        w, n, align = 4, 64, 8
        _, stats = reduce_scatter_halving(
            make_contributions(w, n), COST, align=align
        )
        for lo, hi in stats.segments.values():
            assert lo % align == 0
            assert hi % align == 0 or hi == n

    def test_alignment_validation(self):
        with pytest.raises(CommunicationError):
            reduce_scatter_halving(make_contributions(2, 10), COST, align=3)


class TestPSAggregate:
    @settings(max_examples=20, deadline=None)
    @given(worker_counts(), st.integers(1, 64), st.integers(1, 6))
    def test_server_slices_sum(self, w, n, p):
        contribs = make_contributions(w, n)
        slices, stats = ps_aggregate(contribs, COST, n_servers=p)
        total = np.sum(contribs, axis=0)
        rebuilt = np.concatenate(slices)
        np.testing.assert_allclose(rebuilt, total, atol=1e-9)

    def test_one_step(self):
        _, stats = ps_aggregate(make_contributions(4, 32), COST)
        assert stats.steps == 1

    def test_sim_matches_table1_when_colocated(self):
        w, n = 8, 64
        _, stats = ps_aggregate(make_contributions(w, n), COST)
        h = n * WIRE_BYTES_PER_VALUE
        assert stats.sim_seconds == pytest.approx(
            dimboost_aggregation_time(w, h, COST)
        )

    def test_colocation_saves_messages(self):
        contribs = make_contributions(4, 32)
        _, co = ps_aggregate(contribs, COST, colocated=True)
        _, remote = ps_aggregate(contribs, COST, colocated=False)
        assert co.messages < remote.messages
        assert co.sim_seconds < remote.sim_seconds

    def test_fewer_servers_slower(self):
        """Table 4's trend: shrinking p inflates per-server transfer.

        Holds in the transfer-dominated regime (large histograms, the
        Table 4 setting); with tiny messages latency dominates instead.
        """
        contribs = make_contributions(16, 500_000)
        times = []
        for p in (16, 4, 1):
            _, stats = ps_aggregate(contribs, COST, n_servers=p)
            times.append(stats.sim_seconds)
        assert times[0] < times[1] < times[2]

    def test_invalid_servers(self):
        with pytest.raises(CommunicationError):
            ps_aggregate(make_contributions(2, 8), COST, n_servers=0)


class TestValidation:
    def test_empty_contributions(self):
        with pytest.raises(CommunicationError):
            reduce_to_coordinator([], COST)

    def test_shape_mismatch(self):
        with pytest.raises(CommunicationError):
            reduce_to_coordinator([np.zeros(3), np.zeros(4)], COST)

    def test_requires_1d(self):
        with pytest.raises(CommunicationError):
            reduce_to_coordinator([np.zeros((2, 2))], COST)

    def test_point_to_point(self):
        assert point_to_point_time(100, COST) == pytest.approx(
            COST.alpha + 100 * COST.beta
        )
        with pytest.raises(CommunicationError):
            point_to_point_time(-1, COST)
