"""Seeded inputs: datasets, synthetic ensembles, arrival traces.

``--seed`` reaches nothing but this module; the program under test only
ever receives what these functions return.
"""

from __future__ import annotations

import numpy as np

from repro.boosting.model import GBDTModel
from repro.datasets import gender_like, rcv1_like
from repro.datasets.sparse import CSRMatrix
from repro.tree.tree import RegressionTree

#: Smoke mode shrinks every dataset by this factor.
SMOKE_SCALE = 0.05


def rcv1_rows(seed: int, smoke: bool):
    """RCV1-like 20k x 4.7k (smoke: 1k x 235)."""
    return rcv1_like(scale=SMOKE_SCALE if smoke else 1.0, seed=seed)


def gender_rows(seed: int, smoke: bool):
    """Gender-like 8k x 6.6k (smoke: 400 x 330)."""
    return gender_like(scale=0.2 * (SMOKE_SCALE if smoke else 1.0), seed=seed)


def full_tree_model(
    seed: int, X: CSRMatrix, n_trees: int, max_depth: int = 7
) -> GBDTModel:
    """``n_trees`` full depth-``max_depth`` trees with data-range thresholds.

    Every row descends ``max_depth - 1`` levels in every tree whatever the
    seed, so scoring work does not depend on the draw.
    """
    rng = np.random.default_rng([seed, 1])
    lo = float(X.data.min()) if len(X.data) else 0.0
    hi = float(X.data.max()) if len(X.data) else 1.0
    trees = []
    internal = (1 << (max_depth - 1)) - 1
    for _ in range(n_trees):
        tree = RegressionTree(max_depth=max_depth)
        features = rng.integers(0, X.n_cols, size=internal)
        thresholds = rng.uniform(lo, hi, size=internal)
        for node in range(internal):
            tree.set_split(node, int(features[node]), float(thresholds[node]))
        weights = rng.normal(size=tree.max_nodes - internal)
        for node in range(internal, tree.max_nodes):
            tree.set_leaf(node, float(weights[node - internal]))
        trees.append(tree)
    return GBDTModel(
        trees=trees, base_score=0.0, loss_name="logistic", n_features=X.n_cols
    )


def fresh_matrix(X: CSRMatrix) -> CSRMatrix:
    """A new matrix object over the same arrays: every derived cache cold."""
    return CSRMatrix(X.indptr, X.indices, X.data, (X.n_rows, X.n_cols))


def poisson_bursts(
    rng: np.random.Generator, rate: float, seconds: float, burst: int
) -> np.ndarray:
    """Due offsets (seconds, first at 0) of bursts of ``burst`` requests.

    Gaps are exponential with mean ``burst / rate``: the long-run offered
    rate is ``rate`` requests per second, arriving in clusters.  The burst
    count is fixed by ``rate * seconds``, so every seed sends the same
    number of requests over a trace about ``seconds`` long.
    """
    n = max(1, round(rate * seconds / burst))
    gaps = rng.exponential(burst / rate, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)
