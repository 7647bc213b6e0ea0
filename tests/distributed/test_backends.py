"""Tests for the aggregation backends in isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig
from repro.cluster import SimClock
from repro.distributed import BACKEND_NAMES, make_backend
from repro.cluster.collectives import point_to_point_time
from repro.distributed.backends import DECISION_BYTES, GRAD_HIST, DimBoostBackend
from repro.errors import CommunicationError, TrainingError
from repro.cluster.costmodel import CostParams, general_ps_push_time
from tests.distributed import find_splits


@pytest.fixture(scope="module")
def setup(small_dataset):
    from repro.sketch import propose_candidates

    candidates = propose_candidates(small_dataset.X, max_bins=8)
    cluster = ClusterConfig(n_workers=4, n_servers=4)
    config = TrainConfig(
        n_trees=1, max_depth=3, n_split_candidates=8, compression_bits=0
    )
    return candidates, cluster, config


def hold_wall_clock(monkeypatch):
    """Stop the wall clock where the simulated clock reads it, so
    measured scan seconds are zero and ``clock.time`` is billed wire."""
    for module in ("repro.runtime.phases", "repro.distributed.backends"):
        monkeypatch.setattr(f"{module}.wall_clock", lambda: 0.0)


def local_flats(candidates, w=4, seed=0):
    rng = np.random.default_rng(seed)
    flat_len = 2 * candidates.n_features * candidates.max_bins
    flats = []
    for _ in range(w):
        grad = rng.normal(size=(candidates.n_features, candidates.max_bins))
        hess = rng.random((candidates.n_features, candidates.max_bins))
        # Node invariant: every feature row carries the same totals.
        grad[:, -1] += grad[0].sum() - grad.sum(axis=1)
        hess[:, -1] += hess[0].sum() - hess.sum(axis=1)
        flat = np.stack([grad, hess], axis=1).ravel()
        flats.append(flat)
    del flat_len
    return flats


def node_sums(flats, n_bins):
    """Each flat's exact node sums ``(sum_g, sum_h)``: by the node
    invariant, feature 0's g- and h-histogram totals."""
    return [
        (float(flat[:n_bins].sum()), float(flat[n_bins : 2 * n_bins].sum()))
        for flat in flats
    ]


class TestAllBackendsAgree:
    def test_same_split_decisions(self, setup):
        """With exact aggregation, every system finds the same split."""
        candidates, cluster, config = setup
        flats = local_flats(candidates)
        decisions = {}
        for name in BACKEND_NAMES:
            backend = make_backend(name, cluster, config, candidates)
            backend.begin_tree(0)
            clock = SimClock()
            backend.aggregate_node(0, [f.copy() for f in flats], clock)
            result = find_splits(backend, [0], clock)
            decisions[name] = result[0]
        features = {d.feature for d in decisions.values() if d is not None}
        buckets = {d.bucket for d in decisions.values() if d is not None}
        assert len(features) == 1
        assert len(buckets) == 1
        gains = [d.gain for d in decisions.values()]
        np.testing.assert_allclose(gains, gains[0], rtol=1e-9)

    def test_all_charge_time(self, setup):
        candidates, cluster, config = setup
        flats = local_flats(candidates)
        for name in BACKEND_NAMES:
            backend = make_backend(name, cluster, config, candidates)
            backend.begin_tree(0)
            clock = SimClock()
            backend.aggregate_node(0, [f.copy() for f in flats], clock)
            find_splits(backend, [0], clock)
            assert clock.time > 0, name

    def test_unknown_backend(self, setup):
        candidates, cluster, config = setup
        with pytest.raises(TrainingError, match="unknown system"):
            make_backend("catboost", cluster, config, candidates)


class TestDimBoostOptions:
    def test_two_phase_equals_full_pull(self, setup):
        candidates, cluster, config = setup
        flats = local_flats(candidates, seed=1)
        decisions = []
        for two_phase in (True, False):
            backend = make_backend(
                "dimboost",
                cluster,
                config,
                candidates,
                two_phase=two_phase,
            )
            backend.begin_tree(0)
            clock = SimClock()
            backend.aggregate_node(0, [f.copy() for f in flats], clock)
            decisions.append(find_splits(backend, [0], clock)[0])
        assert decisions[0].feature == decisions[1].feature
        assert decisions[0].bucket == decisions[1].bucket
        assert decisions[0].gain == pytest.approx(decisions[1].gain, rel=1e-12)

    def test_two_phase_cheaper_on_wire(self, setup, monkeypatch):
        """With the wall clock held still, ``clock.time`` holds only
        billed wire: 28-byte replies against the full histogram."""
        hold_wall_clock(monkeypatch)
        candidates, cluster, config = setup
        flats = local_flats(candidates, seed=2)
        times = {}
        for two_phase in (True, False):
            backend = make_backend(
                "dimboost",
                cluster,
                config,
                candidates,
                two_phase=two_phase,
            )
            backend.begin_tree(0)
            clock = SimClock()
            backend.aggregate_node(0, [f.copy() for f in flats], clock)
            find_splits(backend, [0], clock)
            times[two_phase] = clock.time
        assert times[True] < times[False]

    def test_compression_shrinks_comm(self, setup):
        candidates, cluster, config = setup
        flats = local_flats(candidates, seed=3)
        comm = {}
        for bits in (0, 8):
            backend = make_backend(
                "dimboost",
                cluster,
                config.with_overrides(compression_bits=bits),
                candidates,
            )
            backend.begin_tree(0)
            clock = SimClock()
            backend.aggregate_node(
                0,
                [f.copy() for f in flats],
                clock,
                node_sums(flats, candidates.max_bins),
            )
            comm[bits] = clock.communication
        assert comm[8] < comm[0]

    def test_scheduler_balances_workers(self, setup):
        """Round-robin splits a many-node layer faster than one agent."""
        candidates, cluster, config = setup
        times = {}
        for use_scheduler in (True, False):
            backend = make_backend(
                "dimboost",
                cluster,
                config,
                candidates,
                use_scheduler=use_scheduler,
            )
            backend.begin_tree(0)
            clock = SimClock()
            for node in range(8):
                backend.aggregate_node(
                    node, local_flats(candidates, seed=10 + node), clock
                )
            before = clock.time
            find_splits(backend, list(range(8)), clock)
            times[use_scheduler] = clock.time - before
        assert times[True] < times[False]

    def test_backend_is_dimboost_class(self, setup):
        candidates, cluster, config = setup
        backend = make_backend("dimboost", cluster, config, candidates)
        assert isinstance(backend, DimBoostBackend)
        assert backend.build_mode == "sparse"


class TestPullBills:
    """A FIND_SPLIT full pull is billed from the pull's own
    ``TransferStats``: one alpha per ``grad_hist`` partition that exists.
    Three features on four servers make three partitions."""

    @pytest.mark.parametrize(
        "system, options, decision_messages",
        [("tencentboost", {}, 3), ("dimboost", {"two_phase": False}, 4)],
        ids=["tencentboost", "dimboost-one-phase"],
    )
    def test_full_pull_bills_the_partitions_that_exist(
        self, setup, monkeypatch, system, options, decision_messages
    ):
        hold_wall_clock(monkeypatch)
        candidates, cluster, config = setup
        candidates = candidates.feature_range(0, 3)
        backend = make_backend(system, cluster, config, candidates, **options)
        assert backend.group.partitioner(GRAD_HIST).n_partitions == 3
        pulls = []
        pull_row = backend.group.pull_row

        def record(*args, **kwargs):
            flat, stats = pull_row(*args, **kwargs)
            pulls.append(stats)
            return flat, stats

        monkeypatch.setattr(backend.group, "pull_row", record)
        backend.begin_tree(0)
        clock = SimClock()
        backend.aggregate_node(0, local_flats(candidates), clock)
        before = clock.time
        find_splits(backend, [0], clock)
        cost = cluster.network
        full = 2 * 3 * candidates.max_bins * 4
        pull_seconds = 3 * cost.alpha + full * cost.beta
        assert [(s.messages, s.bytes_down) for s in pulls] == [(3, full)]
        assert pulls[0].seconds(cost) == pull_seconds
        decisions = decision_messages * point_to_point_time(DECISION_BYTES, cost)
        assert clock.time - before == pytest.approx(pull_seconds + decisions, rel=1e-12)


class TestGeneralPSPushTime:
    def test_reduces_to_table1(self):
        from repro.cluster import dimboost_aggregation_time

        cost = CostParams(1e-4, 8e-9, 1e-9)
        w, h = 8, 1e6
        assert general_ps_push_time(w, w, h, cost, colocated=True) == pytest.approx(
            dimboost_aggregation_time(w, h, cost)
        )

    def test_validation(self):
        cost = CostParams()
        with pytest.raises(CommunicationError):
            general_ps_push_time(0, 1, 100, cost)


class TestMakeBackendValidation:
    def test_unknown_option_raises_config_error(self, setup):
        from repro.errors import ConfigError

        candidates, cluster, config = setup
        with pytest.raises(ConfigError) as excinfo:
            make_backend(
                "dimboost", cluster, config, candidates, two_phse=False
            )
        message = str(excinfo.value)
        assert "two_phse" in message
        assert "dimboost" in message
        # The error teaches the accepted spelling.
        assert "two_phase" in message

    def test_backend_without_options_says_so(self, setup):
        from repro.errors import ConfigError

        candidates, cluster, config = setup
        with pytest.raises(ConfigError) as excinfo:
            make_backend("mllib", cluster, config, candidates, bogus=1)
        message = str(excinfo.value)
        assert "mllib" in message
        assert "no extra options" in message

    def test_unknown_system_still_training_error(self, setup):
        candidates, cluster, config = setup
        with pytest.raises(TrainingError):
            make_backend("catboost", cluster, config, candidates)

    def test_backend_options_lists_ablation_flags(self):
        from repro.distributed.backends import backend_options

        options = backend_options("dimboost")
        assert "two_phase" in options
        assert "use_scheduler" in options
        # The codec width is TrainConfig.compression_bits, not an option.
        assert "compression_bits" not in options
        # The chaos fabric is the run's wiring (RunPlan.make_backend).
        assert "fabric" not in options
        assert backend_options("tencentboost") == ()
        assert backend_options("xgboost") == ()

    def test_valid_options_still_accepted(self, setup):
        candidates, cluster, config = setup
        backend = make_backend(
            "dimboost", cluster, config, candidates, two_phase=False
        )
        assert isinstance(backend, DimBoostBackend)
