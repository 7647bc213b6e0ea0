"""Serving test helpers: small deterministic model artifacts + rows."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.boosting.model import GBDTModel
from repro.datasets.sparse import CSRMatrix
from repro.tree.tree import RegressionTree

N_FEATURES = 24
MAX_DEPTH = 4


def _full_tree(rng: np.random.Generator, n_features: int) -> RegressionTree:
    tree = RegressionTree(max_depth=MAX_DEPTH)
    internal = (1 << (MAX_DEPTH - 1)) - 1
    for node in range(internal):
        tree.set_split(
            node, int(rng.integers(0, n_features)), float(rng.normal())
        )
    for node in range(internal, tree.max_nodes):
        tree.set_leaf(node, float(rng.normal()))
    return tree


def make_model(
    seed: int, n_trees: int = 4, n_features: int = N_FEATURES
) -> GBDTModel:
    rng = np.random.default_rng(seed)
    return GBDTModel(
        trees=[_full_tree(rng, n_features) for _ in range(n_trees)],
        base_score=0.0,
        loss_name="logistic",
        n_features=n_features,
    )


def make_rows(
    seed: int, n_rows: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Sparse request rows: sorted unique indices + float32 values."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_rows):
        nnz = int(rng.integers(0, 8))
        indices = np.sort(
            rng.choice(N_FEATURES, size=nnz, replace=False)
        ).astype(np.int32)
        values = rng.normal(size=nnz).astype(np.float32)
        rows.append((indices, values))
    return rows


async def until_in_flight(runtime) -> None:
    """Yield until a first request is in and the batch loop has picked
    the queue up (no sleeping: with a slow or gated scorer that batch is
    then in the scorer)."""
    while runtime.metrics.submitted < 1 or runtime.queue_depth():
        await asyncio.sleep(0)


def rows_to_csr(rows: list[tuple[np.ndarray, np.ndarray]]) -> CSRMatrix:
    return CSRMatrix.from_rows(
        [list(zip(r[0].tolist(), r[1].tolist())) for r in rows],
        n_cols=N_FEATURES,
    )


@pytest.fixture()
def model_a():
    return make_model(1)


@pytest.fixture()
def artifact_a(tmp_path, model_a):
    path = tmp_path / "model-a.json"
    model_a.save(path)
    return str(path)


@pytest.fixture()
def model_b():
    return make_model(2)


@pytest.fixture()
def artifact_b(tmp_path, model_b):
    path = tmp_path / "model-b.json"
    model_b.save(path)
    return str(path)
