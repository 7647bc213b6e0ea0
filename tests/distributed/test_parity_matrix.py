"""The synchronous parity matrix: windowed pushes change nothing at S=0.

One parametrized sweep replaces the scattered one-off parity tests:
every cell of {sketch mode} x {shard grid} x {compression} trains
twice — aggregation window 1 (today's per-node pushes) and window 3
(local aggregation) — and the two models must be **bit-identical**.
Window size is pure communication scheduling; at staleness 0 it may not
move a single bit.

The exact/row/uncompressed cell is additionally anchored to the
single-machine reference trees.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import ClusterConfig, GBDT, TrainConfig
from repro.datasets import SyntheticSpec, make_sparse_classification
from repro.distributed import DistributedGBDT

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(n_instances=240, n_features=24, avg_nnz=6.0)
    return make_sparse_classification(spec, seed=5)


def model_hash(result):
    payload = json.dumps(result.model.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def cluster_for(grid):
    if grid is None:
        return ClusterConfig(n_workers=4, n_servers=2)
    return ClusterConfig(n_workers=4, n_servers=2, grid=grid)


def train(sketch_mode, grid, compressed, window):
    return TrainConfig(
        n_trees=2,
        max_depth=3,
        n_split_candidates=8,
        learning_rate=0.3,
        sketch_eps=0.05,
        compression_bits=8 if compressed else 0,
        agg_window=window,
    )


GRIDS = {"row": None, "grid2x2": (2, 2)}

MATRIX = [
    pytest.param(sketch_mode, grid_name, compressed,
                 id=f"{sketch_mode}-{grid_name}-"
                    f"{'packed' if compressed else 'raw'}")
    for sketch_mode in ("exact", "distributed")
    for grid_name in GRIDS
    for compressed in (False, True)
]


class TestParityMatrix:
    @pytest.mark.parametrize("sketch_mode, grid_name, compressed", MATRIX)
    def test_windowed_cell_is_bit_identical(
        self, data, sketch_mode, grid_name, compressed
    ):
        grid = GRIDS[grid_name]
        cluster = cluster_for(grid)
        hashes = {}
        for window in (1, 3):
            config = train(sketch_mode, grid, compressed, window)
            result = DistributedGBDT(
                "dimboost", cluster, config, sketch_mode=sketch_mode
            ).fit(data)
            hashes[window] = model_hash(result)
        assert hashes[1] == hashes[3], (
            f"agg_window changed the model bits in cell "
            f"{sketch_mode}/{grid_name}/"
            f"{'packed' if compressed else 'raw'}"
        )


class TestCrossBackendAnchors:
    def test_reference_cell_matches_single_machine(self, data):
        """exact/row/raw at window 3 reaches the single-machine
        objective — the matrix is anchored to the sequential algorithm,
        not just internally consistent.  Tree structure can diverge on
        float-order gain ties (workers sum gradients in band order), so
        the established objective-equivalence check is used."""
        config = train("exact", None, False, 3)
        result = DistributedGBDT(
            "dimboost", cluster_for(None), config
        ).fit(data)
        trainer = GBDT(config)
        reference = trainer.fit(data)
        assert result.model.n_trees == reference.n_trees
        assert result.rounds[-1].train_loss == pytest.approx(
            trainer.history[-1].train_loss, rel=5e-3
        )
