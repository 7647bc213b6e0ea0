"""Public API surface tests."""

from __future__ import annotations

import pytest

import repro
from repro import ClusterConfig, TrainConfig
from repro.cluster import CostParams
from repro.errors import ConfigError


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_names(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_backend_names(self):
        assert repro.BACKEND_NAMES == (
            "mllib",
            "xgboost",
            "lightgbm",
            "tencentboost",
            "dimboost",
        )

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.ps", "fold_slabs"),
            ("repro.distributed", "SpeedWeightedScheduler"),
            ("repro.runtime", "PhaseAccountant"),
        ],
    )
    def test_removed_names_are_not_importable(self, module, name):
        """Deleted, not deprecated: no run reached them outside tests."""
        with pytest.raises(ImportError):
            exec(f"from {module} import {name}", {})


class TestTrainConfig:
    def test_paper_defaults(self):
        """Section 7.1 protocol values are the defaults."""
        config = TrainConfig()
        assert config.n_trees == 20
        assert config.max_depth == 7
        assert config.n_split_candidates == 20
        assert config.learning_rate == 0.01
        assert config.feature_sample_ratio == 1.0
        assert config.compression_bits == 8

    def test_max_nodes(self):
        assert TrainConfig(max_depth=7).max_nodes == 127

    def test_with_overrides(self):
        config = TrainConfig().with_overrides(n_trees=5)
        assert config.n_trees == 5
        assert TrainConfig().n_trees == 20  # original untouched

    def test_overrides_revalidate(self):
        with pytest.raises(ConfigError):
            TrainConfig().with_overrides(n_trees=0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_trees", 0),
            ("max_depth", 0),
            ("learning_rate", 0.0),
            ("feature_sample_ratio", 1.5),
            ("reg_lambda", -1.0),
            ("loss", "hinge"),
            ("compression_bits", 7),
            ("sketch_eps", 0.6),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize(
        "removed", [{"parallel_backend": "process"}, {"n_processes": 2}]
    )
    def test_removed_executor_fields_are_refused(self, removed):
        """The histogram executors are gone, not deprecated: their fields
        are unknown keywords, through the constructor and ``with_overrides``."""
        with pytest.raises(TypeError):
            TrainConfig(**removed)
        with pytest.raises(TypeError):
            TrainConfig().with_overrides(**removed)

    @pytest.mark.parametrize(
        "removed",
        [{"batch_size": 500}, {"n_threads": 20}, {"compression_block": 10}],
    )
    def test_removed_single_value_knobs_are_refused(self, removed):
        """The batched-build span knobs and the codec block size had one
        value in use; they are gone from the config, not ignored."""
        with pytest.raises(TypeError):
            TrainConfig(**removed)
        with pytest.raises(TypeError):
            TrainConfig().with_overrides(**removed)


class TestClusterConfig:
    def test_defaults(self):
        cluster = ClusterConfig()
        assert cluster.n_workers == 4
        assert cluster.n_servers == 4

    def test_validation(self):
        with pytest.raises(ConfigError):
            ClusterConfig(n_workers=0)
        with pytest.raises(ConfigError):
            ClusterConfig(n_servers=0)

    def test_network_cost_validation(self):
        with pytest.raises(ConfigError):
            CostParams(alpha=-1.0)

    def test_sketch_entry_bytes_is_a_constant(self):
        """The sketch entry weight is a module constant, not a cost knob."""
        from repro.distributed.engine import SKETCH_ENTRY_BYTES

        assert SKETCH_ENTRY_BYTES == 16.0
        with pytest.raises(TypeError):
            CostParams(sketch_entry_bytes=8.0)

    def test_with_overrides(self):
        cluster = ClusterConfig().with_overrides(n_workers=50)
        assert cluster.n_workers == 50


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        from repro import (
            CommunicationError,
            DataError,
            NotFittedError,
            PSError,
            ReproError,
            SketchError,
            TrainingError,
        )

        for exc in (
            ConfigError,
            DataError,
            SketchError,
            CommunicationError,
            PSError,
            TrainingError,
            NotFittedError,
        ):
            assert issubclass(exc, ReproError)

    def test_not_fitted_is_training_error(self):
        from repro import NotFittedError, TrainingError

        assert issubclass(NotFittedError, TrainingError)
