"""Tests for weighted (WOS-style) candidate proposal: cuts at weighted
quantiles of hessian-weighted column summaries, the ``sketch_mode=
"weighted"`` path of the distributed trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import CSRMatrix
from repro.errors import SketchError
from repro.sketch import (
    propose_candidates,
    propose_candidates_from_sketches,
    sketch_columns_weighted,
)


def column_matrix(values: list[float]) -> CSRMatrix:
    return CSRMatrix.from_rows([[(0, v)] for v in values], n_cols=1)


def propose_weighted(X: CSRMatrix, max_bins: int, weights, eps: float = 0.005):
    """Cuts from one weighted summary per column, each instance weighing
    ``weights[row]`` in the rank space."""
    summaries = sketch_columns_weighted(
        X.indptr, X.indices, X.data, X.n_cols, np.asarray(weights), eps
    )
    return propose_candidates_from_sketches(summaries, max_bins)


class TestWeightedProposal:
    def test_uniform_weights_match_unweighted(self, tiny_dataset):
        X = tiny_dataset.X
        weighted = propose_weighted(X, max_bins=8, weights=np.ones(X.n_rows))
        plain = propose_candidates(X, max_bins=8)
        # Same weighted rank space -> near-identical cuts.  Positions may
        # shift by one order statistic because the rank rounding differs;
        # check that most cuts coincide exactly.
        matches = 0
        total = 0
        for f in range(X.n_cols):
            wc, pc = weighted.feature_cuts(f), plain.feature_cuts(f)
            total += max(len(wc), len(pc))
            matches += len(np.intersect1d(wc, pc))
        assert total == 0 or matches / total > 0.6

    def test_heavy_instances_pull_cuts(self):
        """All the weight on large values pushes the cuts right."""
        values = list(np.linspace(1.0, 100.0, 50))
        X = column_matrix(values)
        weights = np.ones(50)
        weights[40:] = 100.0  # the top decile dominates the rank space
        weighted = propose_weighted(X, 4, weights)
        plain = propose_candidates(X, 4)
        assert weighted.feature_cuts(0).min() > plain.feature_cuts(0).min()

    def test_zero_weight_instances_ignored(self):
        values = [1.0, 2.0, 3.0, 1000.0, 2000.0]
        X = column_matrix(values)
        weights = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        cand = propose_weighted(X, 4, weights)
        # The zero-weight outliers cannot place cuts beyond the weighted
        # support's upper order statistics.
        assert cand.feature_cuts(0).max() <= 3.0

    def test_weighted_buckets_balance_weight(self):
        """Each bucket receives roughly equal total weight."""
        rng = np.random.default_rng(0)
        values = rng.random(2000)
        weights = rng.uniform(0.1, 5.0, size=2000)
        X = column_matrix(list(values))
        cand = propose_weighted(X, 5, weights)
        cuts = cand.feature_cuts(0)
        edges = np.concatenate([[-np.inf], cuts, [np.inf]])
        masses = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (values >= lo) & (values < hi)
            masses.append(weights[sel].sum())
        total = sum(masses)
        for mass in masses:
            assert mass / total == pytest.approx(1.0 / len(masses), abs=0.05)

    def test_all_zero_weights_no_cuts(self):
        X = column_matrix([1.0, 2.0, 3.0])
        cand = propose_weighted(X, 4, np.zeros(3))
        assert cand.n_cuts(0) == 0

    def test_validation(self):
        X = column_matrix([1.0, 2.0])
        with pytest.raises(SketchError):
            propose_weighted(X, 1, np.ones(2))
        with pytest.raises(SketchError):
            propose_weighted(X, 4, np.ones(5))
        with pytest.raises(SketchError):
            propose_weighted(X, 4, np.ones(2), eps=0.5)

    def test_usable_for_training(self, tiny_dataset):
        """Hessian-weighted candidates plug into the normal trainer."""
        from repro import GBDT, TrainConfig
        from repro.boosting.losses import get_loss

        loss = get_loss("logistic")
        base = loss.base_score(tiny_dataset.y)
        _, hess = loss.gradients(
            tiny_dataset.y, np.full(tiny_dataset.n_instances, base)
        )
        cand = propose_weighted(tiny_dataset.X, 8, hess)
        config = TrainConfig(n_trees=2, max_depth=3, n_split_candidates=8)
        model = GBDT(config).fit(tiny_dataset, candidates=cand)
        assert model.n_trees == 2
