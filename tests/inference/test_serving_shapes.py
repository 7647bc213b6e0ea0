"""Flat/parallel scoring on serving-shaped inputs.

The serving runtime feeds the compiled engine matrices the training
benches never make: single-row blocks, 0-row flushes, ragged final
blocks (``n_rows % batch_rows != 0``), ``batch_rows=1``.  Rows are
independent in :meth:`FlatEnsemble.score_into`, so every chunking must
be bit-identical (``np.array_equal``) to the per-tree oracle
``GBDTModel.predict_raw_per_tree`` — the contract the runtime's
micro-batcher relies on to never change bits.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.datasets.sparse import CSRMatrix
from repro.inference import ParallelScorer
from tests.test_arena import leaked_segments

from .conftest import random_matrix, random_model


@pytest.fixture(scope="module")
def model():
    return random_model(
        np.random.default_rng(29), n_trees=7, n_features=23, max_depth=5
    )


@pytest.fixture(scope="module")
def X(model):
    return random_matrix(np.random.default_rng(31), 37, model.n_features)


class TestServingShapedBlocks:
    def test_single_row_blocks_match_oracle(self, model, X):
        """One flush per request (the sequential baseline's shape)."""
        oracle = model.predict_raw_per_tree(X)
        for i in range(X.n_rows):
            row = X.slice_rows(i, i + 1)
            got = model.predict_raw(row)
            assert got.shape == (1,)
            assert np.array_equal(got, oracle[i : i + 1])

    def test_empty_flush(self, model, X):
        """A flush whose every request was shed scores zero rows."""
        empty = X.slice_rows(0, 0)
        got = model.predict_raw(empty)
        assert got.shape == (0,)

    def test_zero_nnz_batch(self, model):
        """A batch of entirely-empty rows (all-default features)."""
        X = CSRMatrix(
            np.zeros(4, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.float32),
            (3, model.n_features),
        )
        got = model.predict_raw(X)
        dense_zero = model.predict_raw_per_tree(X)
        assert np.array_equal(got, dense_zero)
        assert len(set(got.tolist())) == 1  # identical rows, identical bits

    @pytest.mark.parametrize("batch_rows", [1, 2, 5, 8, 16, 64])
    def test_ragged_final_block(self, model, X, batch_rows):
        """37 rows over every block size — the last block is ragged for
        each of these except 1."""
        oracle = model.predict_raw_per_tree(X)
        got = model.predict_raw(X, batch_rows=batch_rows)
        assert np.array_equal(got, oracle)

    def test_micro_batch_composition_is_bitfree(self, model, X):
        """Scoring rows in any batch grouping equals scoring them
        together: the exact property the micro-batcher leans on."""
        oracle = model.predict_raw_per_tree(X)
        rng = np.random.default_rng(3)
        cuts = np.sort(rng.choice(np.arange(1, X.n_rows), 5, replace=False))
        pieces = []
        lo = 0
        for hi in [*cuts.tolist(), X.n_rows]:
            pieces.append(model.predict_raw(X.slice_rows(lo, hi)))
            lo = hi
        assert np.array_equal(np.concatenate(pieces), oracle)


class TestParallelScorerServingShapes:
    @pytest.mark.parametrize("n_rows", [1, 3, 37])
    def test_parity_on_serving_blocks(self, model, n_rows):
        X = random_matrix(np.random.default_rng(41), n_rows, model.n_features)
        oracle = model.predict_raw_per_tree(X)
        with warnings.catch_warnings():
            # Single-core CI: the pool falls back and warns; parity holds.
            warnings.simplefilter("ignore", RuntimeWarning)
            with ParallelScorer(model.compiled(), n_processes=2) as scorer:
                got = scorer.predict_raw(X, base_score=model.base_score)
        assert np.array_equal(got, oracle)

    def test_release_frees_context_and_rescoring_works(self, model, X):
        """A fresh matrix per flush must not pin a segment set each: the
        scorer keeps one context, for the last matrix, and re-scoring
        that matrix still matches.  On a box where the pool fell back,
        scoring pins nothing."""
        before = leaked_segments()
        oracle = model.predict_raw_per_tree(X)
        rng = np.random.default_rng(43)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with ParallelScorer(
                model.compiled(), n_processes=2, batch_rows=8
            ) as scorer:
                for _ in range(3):
                    other = random_matrix(rng, 37, model.n_features)
                    scorer.predict_raw(other, base_score=model.base_score)
                first = scorer.predict_raw(X, base_score=model.base_score)
                second = scorer.predict_raw(X, base_score=model.base_score)
                held = leaked_segments() - before
                if scorer.fallback_reason is None:
                    _, manifest, _ = scorer._context
                    assert len(held) == len(manifest["arrays"])
                    assert all(manifest["token"] in path for path in held)
                else:
                    assert held == set()
        assert leaked_segments() == before
        assert np.array_equal(first, oracle)
        assert np.array_equal(second, oracle)
