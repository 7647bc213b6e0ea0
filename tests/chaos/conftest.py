"""Shared chaos-suite helpers: tiny cluster runs and model hashing.

Every scenario here compares a faulted run against a fault-free run of
the *same* configuration.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import ClusterConfig, TrainConfig
from repro.distributed.engine import DistributedGBDT, DistributedResult

#: The cluster shape every chaos scenario runs on.
CLUSTER = ClusterConfig(n_workers=3, n_servers=2)


def chaos_config(**overrides) -> TrainConfig:
    """The suite's quick-training config (3 small uncompressed trees)."""
    base = dict(
        n_trees=3,
        max_depth=4,
        n_split_candidates=8,
        learning_rate=0.3,
        compression_bits=0,
    )
    base.update(overrides)
    return TrainConfig(**base)


def run(
    dataset,
    *,
    system: str = "dimboost",
    config: TrainConfig | None = None,
    fault_plan=None,
    **trainer_kwargs,
) -> DistributedResult:
    """Train once on the suite's cluster and return the result."""
    trainer = DistributedGBDT(
        system,
        CLUSTER,
        config if config is not None else chaos_config(),
        fault_plan=fault_plan,
        **trainer_kwargs,
    )
    return trainer.fit(dataset)


def model_hash(result: DistributedResult) -> str:
    """Canonical digest of the trained ensemble (bit-identity oracle)."""
    payload = json.dumps(result.model.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="session")
def baseline():
    """Memoized fault-free reference runs, keyed by system."""
    cache: dict[str, DistributedResult] = {}

    def get(dataset, system: str = "dimboost"):
        if system not in cache:
            cache[system] = run(dataset, system=system)
        return cache[system]

    return get
