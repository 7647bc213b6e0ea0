"""Tests for the Greenwald-Khanna quantile summary."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import CSRMatrix
from repro.errors import SketchError
from repro.sketch import GKSketch, sketch_columns, sketch_columns_weighted

from . import frame_of


def assert_rank_error_bounded(
    sketch: GKSketch, values: np.ndarray, eps: float
) -> None:
    """Every interior quantile query lands within eps * n of its rank.

    Tied values occupy a rank *interval* [#{< v}, #{<= v}]; the GK
    guarantee is that this interval comes within eps * n of the target.
    """
    n = len(values)
    for q in np.linspace(0.05, 0.95, 13):
        answer = sketch.query(q)
        rank_lo = int(np.sum(values < answer))
        rank_hi = int(np.sum(values <= answer))
        target = q * n
        distance = max(0.0, rank_lo - target, target - rank_hi)
        assert distance <= eps * n + 1.5, (
            f"q={q}: rank interval [{rank_lo}, {rank_hi}] vs target "
            f"{target} (n={n})"
        )


class TestBatchConstruction:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=400
        ),
        st.sampled_from([0.01, 0.05, 0.1]),
    )
    def test_rank_error_bound(self, values, eps):
        arr = np.asarray(values)
        sketch = GKSketch.from_values(arr, eps)
        assert sketch.count == len(arr)
        assert_rank_error_bounded(sketch, arr, eps)

    def test_min_max_exact(self):
        arr = np.array([5.0, -3.0, 8.0, 1.0])
        sketch = GKSketch.from_values(arr, 0.1)
        assert sketch.min_value == -3.0
        assert sketch.max_value == 8.0

    def test_summary_size_bounded(self):
        arr = np.random.default_rng(0).random(10_000)
        sketch = GKSketch.from_values(arr, eps=0.01)
        assert len(sketch) <= int(1 / (2 * 0.01)) + 2

    def test_empty_batch(self):
        sketch = GKSketch.from_values([], 0.1)
        assert sketch.count == 0
        with pytest.raises(SketchError):
            sketch.query(0.5)


class TestMerge:
    def test_merge_counts(self):
        a = GKSketch.from_values(np.arange(100.0), 0.05)
        b = GKSketch.from_values(np.arange(100.0, 200.0), 0.05)
        merged = a.merge(b)
        assert merged.count == 200

    def test_merge_rank_error_adds(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=1000)
        y = rng.normal(loc=2.0, size=1500)
        a = GKSketch.from_values(x, 0.02)
        b = GKSketch.from_values(y, 0.02)
        merged = a.merge(b)
        combined = np.concatenate([x, y])
        # Errors add across one merge: 2 * eps bound.
        assert_rank_error_bounded(merged, combined, 0.05)

    def test_merge_with_empty(self):
        a = GKSketch.from_values(np.arange(50.0), 0.05)
        empty = GKSketch(0.05)
        assert a.merge(empty).count == 50
        assert empty.merge(a).count == 50

    def test_merge_many_workers(self):
        rng = np.random.default_rng(4)
        parts = [rng.normal(size=500) for _ in range(8)]
        merged = GKSketch.from_values(parts[0], 0.01)
        for part in parts[1:]:
            merged = merged.merge(GKSketch.from_values(part, 0.01))
        combined = np.concatenate(parts)
        assert merged.count == 4000
        # Worst case errors add linearly with merges; check a loose band.
        assert_rank_error_bounded(merged, combined, 0.10)

    def test_merge_extremes(self):
        a = GKSketch.from_values([1.0, 2.0], 0.1)
        b = GKSketch.from_values([-5.0, 10.0], 0.1)
        merged = a.merge(b)
        assert merged.min_value == -5.0
        assert merged.max_value == 10.0


class TestQueries:
    def test_query_bounds_validation(self):
        sketch = GKSketch.from_values([1.0, 2.0], 0.1)
        with pytest.raises(SketchError):
            sketch.query(1.5)

    def test_quantiles_monotone(self):
        rng = np.random.default_rng(5)
        sketch = GKSketch.from_values(rng.random(3000), 0.01)
        qs = sketch.quantiles(10)
        assert np.all(np.diff(qs) >= 0)

    def test_quantiles_count_validation(self):
        sketch = GKSketch.from_values([1.0], 0.1)
        with pytest.raises(SketchError):
            sketch.quantiles(0)

    def test_invalid_eps(self):
        with pytest.raises(SketchError):
            GKSketch(eps=0.7)


class TestColumnSketches:
    def test_sketch_columns_per_feature(self, tiny_dataset):
        X = tiny_dataset.X
        sketches = sketch_columns(X.indptr, X.indices, X.data, X.n_cols, eps=0.05)
        assert len(sketches) == X.n_cols
        col_nnz = X.column_nnz()
        for f, sketch in enumerate(sketches):
            assert sketch.count == col_nnz[f]

    def test_sketch_columns_values_match(self, tiny_dataset):
        X = tiny_dataset.X
        sketches = sketch_columns(X.indptr, X.indices, X.data, X.n_cols, eps=0.01)
        # Pick the densest feature and verify its quantiles.
        f = int(np.argmax(X.column_nnz()))
        vals = np.sort(X.column_values(f)).astype(np.float64)
        sketch = sketches[f]
        assert sketch.min_value == pytest.approx(vals[0], rel=1e-6)
        assert sketch.max_value == pytest.approx(vals[-1], rel=1e-6)
        assert_rank_error_bounded(sketch, vals, 0.05)

    def test_empty_columns_get_empty_sketches(self):
        X = CSRMatrix.from_rows([[(0, 1.0)], [(0, 2.0)]], n_cols=3)
        sketches = sketch_columns(X.indptr, X.indices, X.data, X.n_cols)
        assert sketches[1].count == 0
        assert sketches[2].count == 0


@pytest.mark.parametrize("weighted", [False, True], ids=["gk", "weighted"])
def test_negative_index_counts_from_the_end(weighted):
    """``batch[-k]`` is ``batch[len - k]``, field for field: the slice of
    entries must follow the normalised index, not ``bounds[-k]``."""
    rng = np.random.default_rng(11)
    dense = rng.normal(size=(200, 4)) * (rng.random((200, 4)) < [0.9, 0.5, 0.2, 0.7])
    X = CSRMatrix.from_dense(dense.astype(np.float32))
    csr = (X.indptr, X.indices, X.data, X.n_cols)
    batch = (
        sketch_columns_weighted(*csr, rng.uniform(0.1, 2.0, size=200), eps=0.05)
        if weighted
        else sketch_columns(*csr, eps=0.05)
    )
    n = len(batch)
    assert len({frame_of(summary) for summary in batch}) == n  # all differ
    for k in range(1, n + 1):
        back, front = batch[-k], batch[n - k]
        assert frame_of(back) == frame_of(front)
        assert (back.eps, back.count, len(back)) == (front.eps, front.count, len(front))
        assert back.quantiles(5).tobytes() == front.quantiles(5).tobytes()
    for outside in (n, -n - 1):
        with pytest.raises(IndexError):
            batch[outside]
