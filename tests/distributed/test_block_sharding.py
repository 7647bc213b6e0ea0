"""Bit-identity and guard tests for 2-D block-sharded training.

The grid-layout parity sweeps (grid=(R,1) vs row sharding, windowed vs
unwindowed, compressed vs raw) live in ``test_parity_matrix.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chaos import FaultEvent, FaultPlan
from repro.config import ClusterConfig, TrainConfig
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.distributed import DistributedGBDT, engine, train_distributed
from repro.errors import ConfigError
from repro.histogram.binned import BinnedShard


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=300, n_features=32, avg_nnz=8.0)
    return make_sparse_classification(spec, seed=11)


@pytest.fixture(scope="module")
def config():
    return TrainConfig(
        n_trees=3, max_depth=4, compression_bits=0, sketch_eps=0.05
    )


def trees_of(result):
    return [tree.to_dict() for tree in result.model.trees]


class TestBitIdentity:
    @pytest.mark.parametrize("system", ["tencentboost", "dimboost"])
    def test_block_equals_row_sharded(self, data, config, system):
        """A (R, C) grid grows the exact trees of the R-worker row shard:
        same rows per band, feature-axis reduction on the servers."""
        row = train_distributed(
            system, data, ClusterConfig(n_workers=2, n_servers=4), config
        )
        blk = train_distributed(
            system,
            data,
            ClusterConfig(n_workers=8, n_servers=4, grid=(2, 4)),
            config,
        )
        assert trees_of(row) == trees_of(blk)
        np.testing.assert_array_equal(
            row.model.predict(data.X), blk.model.predict(data.X)
        )

    def test_distributed_sketch_path(self, data, config):
        """Per-stripe GK sketches merged down grid rows propose the same
        candidates as per-shard full-width sketches."""
        cluster_row = ClusterConfig(n_workers=2, n_servers=2)
        cluster_blk = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
        row = DistributedGBDT(
            "dimboost", cluster_row, config, sketch_mode="distributed"
        ).fit(data)
        blk = DistributedGBDT(
            "dimboost", cluster_blk, config, sketch_mode="distributed"
        ).fit(data)
        assert trees_of(row) == trees_of(blk)


class TestRowShardingIsTheOneColumnGrid:
    def test_row_sharded_blocks_are_zero_copy_bands(self, data, config, monkeypatch):
        """Row sharding runs as the C = 1 grid: one full-width block per
        worker, viewing the input's column ids, binned against the
        run's own candidate set (no per-block stripe copy)."""
        binned_against = []

        def recording(X, candidates):
            binned_against.append(candidates)
            return BinnedShard(X, candidates)

        monkeypatch.setattr(engine, "BinnedShard", recording)
        trainer = DistributedGBDT("dimboost", ClusterConfig(n_workers=3), config)
        fit = engine._GridFit(trainer.plan, (), data)
        candidates = fit.sketch()
        fit.bin(candidates)
        assert len(fit.blocks) == 3
        for block in fit.blocks:
            assert (block.col_lo, block.col_hi) == (0, data.n_features)
            assert np.shares_memory(block.data.X.indices, data.X.indices)
        assert len(binned_against) == 3
        assert all(c is candidates for c in binned_against)
        assert fit.backend.candidates is candidates


class TestChaosRecovery:
    def test_faulted_block_run_recovers_bit_identical(self, data, config):
        """Drops, duplicates, and a crash on the block grid all recover to
        the fault-free trees (retry + seq dedupe + rollback)."""
        cluster = ClusterConfig(n_workers=6, n_servers=2, grid=(3, 2))
        clean = DistributedGBDT("dimboost", cluster, config).fit(data)
        plan = FaultPlan(
            events=(
                FaultEvent(kind="drop", point="push", round_=1, worker=3),
                FaultEvent(kind="duplicate", point="push", round_=0),
                FaultEvent(
                    kind="crash", point="histogram_build", round_=2, worker=4
                ),
            ),
            name="block-chaos",
        )
        faulted = DistributedGBDT(
            "dimboost", cluster, config, fault_plan=plan
        ).fit(data)
        assert trees_of(clean) == trees_of(faulted)
        assert faulted.faults is not None


class TestGuards:
    def test_non_ps_backend_rejected(self, data, config):
        """Feature stripes need server-side reduce; AllReduce backends
        cannot host a striped histogram."""
        with pytest.raises(ConfigError, match="PS backend"):
            train_distributed(
                "xgboost",
                data,
                ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2)),
                config,
            )

    @pytest.mark.parametrize(
        "system,cluster,overrides,match",
        [
            (
                "xgboost",
                ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2)),
                {},
                "grid 2x2 needs a backend with sparse slab aggregation",
            ),
            (
                "mllib",
                ClusterConfig(n_workers=4, n_servers=2),
                {"agg_window": 4},
                "agg_window 4 needs a backend with windowed pushes",
            ),
        ],
        ids=["grid-on-allreduce", "window-on-reduce"],
    )
    def test_unsupported_combination_fails_before_any_work(
        self, data, config, system, cluster, overrides, match
    ):
        """The capability checks fire at construction: no stage has
        started (so CREATE_SKETCH never ran) when ConfigError surfaces."""
        from repro.runtime.hooks import TrainerCallback

        class Recorder(TrainerCallback):
            started: list = []

            def on_fit_start(self, n_trees):
                self.started.append("fit")

            def on_phase_start(self, phase, tree_index):
                self.started.append(phase)

        recorder = Recorder()
        with pytest.raises(ConfigError, match=match):
            DistributedGBDT(
                system,
                cluster,
                config.with_overrides(**overrides),
                callbacks=[recorder],
            ).fit(data)
        assert recorder.started == []

    def test_unknown_system_and_option_fail_at_construction(self):
        from repro.errors import TrainingError

        with pytest.raises(TrainingError, match="unknown system 'catboost'"):
            DistributedGBDT("catboost")
        with pytest.raises(ConfigError, match="unknown option.*'two_fase'"):
            DistributedGBDT("dimboost", two_fase=False)

    def test_compressed_grid_trains(self, data):
        """The former compression_bits=0 grid guard is lifted: slab value
        payloads ride the stochastic-rounding codec end to end.  The
        compressed run trains (losing bit-identity with bits=0, which is
        the point of quantization) and remains deterministic."""
        cluster = ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2))
        config = TrainConfig(n_trees=2, compression_bits=8)
        first = train_distributed("dimboost", data, cluster, config)
        second = train_distributed("dimboost", data, cluster, config)
        assert len(first.model.trees) == 2
        assert trees_of(first) == trees_of(second)

    def test_grid_must_match_workers(self):
        with pytest.raises(ConfigError, match="grid"):
            ClusterConfig(n_workers=5, n_servers=2, grid=(2, 2))

    def test_grid_shape_default(self):
        assert ClusterConfig(n_workers=3, n_servers=2).grid_shape == (3, 1)
        cfg = ClusterConfig(n_workers=6, n_servers=2, grid=(2, 3))
        assert cfg.grid_shape == (2, 3)


class TestTelemetry:
    def test_block_run_reports_all_workers(self, data, config):
        result = train_distributed(
            "dimboost",
            data,
            ClusterConfig(n_workers=4, n_servers=2, grid=(2, 2)),
            config,
        )
        assert result.sim_seconds > 0
        breakdown = result.breakdown.as_dict()
        assert breakdown["communication"] > 0
        assert breakdown["computation"] > 0
