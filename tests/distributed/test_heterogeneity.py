"""Tests for heterogeneous worker speeds (straggler modelling)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig, train_distributed
from repro.errors import ConfigError


class TestConfig:
    def test_speeds_length_validated(self):
        with pytest.raises(ConfigError, match="worker_speeds"):
            ClusterConfig(n_workers=3, worker_speeds=(1.0, 1.0))

    def test_speeds_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            ClusterConfig(n_workers=2, worker_speeds=(1.0, 0.0))

    def test_speed_of_default(self):
        cluster = ClusterConfig(n_workers=2)
        assert cluster.speed_of(0) == 1.0

    def test_speed_of_explicit(self):
        cluster = ClusterConfig(n_workers=2, worker_speeds=(1.0, 0.25))
        assert cluster.speed_of(1) == 0.25


class TestStragglerEffect:
    def test_one_straggler_slows_the_cluster(self, small_dataset):
        """A half-speed worker inflates every barrier: synchronous
        training pays the slowest machine (the heterogeneity problem)."""
        config = TrainConfig(n_trees=3, max_depth=4, n_split_candidates=8)
        uniform = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(n_workers=4, n_servers=4),
            config,
        )
        straggler = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(
                n_workers=4, n_servers=4, worker_speeds=(1.0, 1.0, 1.0, 0.25)
            ),
            config,
        )
        assert straggler.breakdown.computation > uniform.breakdown.computation
        # Communication is unaffected by compute speeds.
        assert straggler.breakdown.communication == pytest.approx(
            uniform.breakdown.communication, rel=0.2
        )

    def test_model_unaffected_by_speeds(self, small_dataset):
        """Speeds change time, never results."""
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        a = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(n_workers=3, n_servers=3),
            config.with_overrides(compression_bits=0),
        )
        b = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(
                n_workers=3, n_servers=3, worker_speeds=(1.0, 0.1, 2.0)
            ),
            config.with_overrides(compression_bits=0),
        )
        np.testing.assert_array_equal(
            a.model.predict_raw(small_dataset.X),
            b.model.predict_raw(small_dataset.X),
        )

    def test_jitter_amplitude_validated(self):
        with pytest.raises(ConfigError, match="speed_jitter"):
            ClusterConfig(n_workers=2, speed_jitter=1.0)
        with pytest.raises(ConfigError, match="speed_jitter"):
            ClusterConfig(n_workers=2, speed_jitter=-0.1)

    def test_jitter_never_changes_model(self, small_dataset):
        """Per-layer speed jitter is pure clock accounting: trained
        model bits are unchanged, with and without the knob, across
        replays.  (Simulated seconds are built from *measured* compute,
        so only the model — not the clock — is replayable.)"""
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        plain = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(n_workers=3, n_servers=3),
            config.with_overrides(compression_bits=0),
        )
        reference = plain.model.predict_raw(small_dataset.X)
        for amplitude in (0.2, 0.3):
            jittered = train_distributed(
                "dimboost",
                small_dataset,
                ClusterConfig(
                    n_workers=3, n_servers=3, speed_jitter=amplitude
                ),
                config.with_overrides(compression_bits=0),
            )
            np.testing.assert_array_equal(
                reference, jittered.model.predict_raw(small_dataset.X)
            )

    def test_uniformly_fast_cluster_is_faster(self, small_dataset):
        config = TrainConfig(n_trees=2, max_depth=4, n_split_candidates=8)
        nominal = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(n_workers=2, n_servers=2),
            config,
        )
        fast = train_distributed(
            "dimboost",
            small_dataset,
            ClusterConfig(n_workers=2, n_servers=2, worker_speeds=(4.0, 4.0)),
            config,
        )
        assert fast.breakdown.computation < nominal.breakdown.computation
