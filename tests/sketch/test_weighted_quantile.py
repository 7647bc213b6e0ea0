"""Unit tests for the hessian-weighted GK summary.

The weighted summary (Huang & Yi, arXiv:1909.07633) generalizes the GK
entries to carry weight mass in ``g``/``delta``: a query at fraction
``q`` must land within ``eps * total_weight`` of the true weighted rank.
These tests pin the error bound through construction, merging at
``eps / 2`` (merge errors add), frames of one summary, the column batch
builder, and the tagged wire frame the PS transport uses for both sketch
kinds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch import (
    GKSketch,
    WeightedGKSketch,
    sketch_columns_weighted,
    SketchBatch,
)

from . import frame_of


def weighted_rank_error(sketch, values, weights, qs):
    """Max |true weighted rank - q * W| over queried fractions."""
    order = np.argsort(values, kind="stable")
    sv, sw = values[order], weights[order]
    cum = np.cumsum(sw)
    total = cum[-1]
    worst = 0.0
    for q in qs:
        got = sketch.query(q)
        # Weighted rank of the returned value: mass at or below it.
        rank = cum[np.searchsorted(sv, got, side="right") - 1] if got >= sv[0] else 0.0
        worst = max(worst, abs(rank - q * total))
    return worst, total


@pytest.fixture()
def batch():
    rng = np.random.default_rng(42)
    values = rng.normal(size=800)
    weights = rng.uniform(0.05, 3.0, size=800)
    return values, weights


class TestConstruction:
    def test_rank_error_bound(self, batch):
        values, weights = batch
        eps = 0.05
        sk = WeightedGKSketch.from_values(values, weights, eps=eps)
        worst, total = weighted_rank_error(
            sk, values, weights, np.linspace(0.05, 0.95, 19)
        )
        assert worst <= eps * total

    def test_total_weight_and_count(self, batch):
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.1)
        assert sk.count == len(values)
        assert sk.total_weight == pytest.approx(weights.sum())

    def test_min_max_exact(self, batch):
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.1)
        assert sk.min_value == values.min()
        assert sk.max_value == values.max()

    def test_uniform_weights_rank_like_unweighted(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=500)
        sk_w = WeightedGKSketch.from_values(values, np.ones(500), eps=0.05)
        sk_u = GKSketch.from_values(values, eps=0.05)
        qs = np.linspace(0.1, 0.9, 9)
        # Unit weights make weighted rank == instance rank; both sketches
        # answer within eps * n of the true rank, so within 2 eps n of
        # each other in rank space.
        sorted_vals = np.sort(values)
        for q in qs:
            rw = np.searchsorted(sorted_vals, sk_w.query(q), side="right")
            ru = np.searchsorted(sorted_vals, sk_u.query(q), side="right")
            assert abs(rw - ru) <= 2 * 0.05 * 500

    def test_all_zero_weights_empty(self):
        sk = WeightedGKSketch.from_values([1.0, 2.0], [0.0, 0.0], eps=0.1)
        assert len(sk) == 0

    def test_empty_batch(self):
        sk = WeightedGKSketch.from_values([], [], eps=0.1)
        assert len(sk) == 0 and sk.total_weight == 0.0

    def test_validation(self):
        with pytest.raises(SketchError):
            WeightedGKSketch.from_values([1.0, 2.0], [1.0], eps=0.1)
        with pytest.raises(SketchError):
            WeightedGKSketch.from_values([1.0], [-1.0], eps=0.1)
        with pytest.raises(SketchError):
            WeightedGKSketch(eps=0.0)


class TestMerge:
    def test_merge_rank_error_adds(self):
        """Locals at eps/2 merge to a summary honoring eps overall."""
        rng = np.random.default_rng(9)
        eps = 0.1
        parts, all_v, all_w = [], [], []
        for _ in range(4):
            v = rng.normal(size=300)
            w = rng.uniform(0.1, 2.0, size=300)
            parts.append(WeightedGKSketch.from_values(v, w, eps=eps / 2))
            all_v.append(v)
            all_w.append(w)
        merged = parts[0]
        for p in parts[1:]:
            merged = merged.merge(p)
        values = np.concatenate(all_v)
        weights = np.concatenate(all_w)
        worst, total = weighted_rank_error(
            merged, values, weights, np.linspace(0.1, 0.9, 9)
        )
        assert worst <= eps * total
        assert merged.total_weight == pytest.approx(weights.sum())

    def test_merge_with_empty(self, batch):
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.1)
        empty = WeightedGKSketch(eps=0.1)
        assert frame_of(sk.merge(empty)) == frame_of(sk)
        assert frame_of(empty.merge(sk)) == frame_of(sk)

    def test_merge_takes_coarser_eps(self):
        rng = np.random.default_rng(3)
        fine = WeightedGKSketch.from_values(
            rng.normal(size=200), rng.uniform(0.1, 1.0, 200), eps=0.02
        )
        coarse = WeightedGKSketch.from_values(
            rng.normal(size=200), rng.uniform(0.1, 1.0, 200), eps=0.1
        )
        assert fine.merge(coarse).eps == 0.1
        assert coarse.merge(fine).eps == 0.1

    def test_kind_mismatch_rejected(self, batch):
        values, weights = batch
        wsk = WeightedGKSketch.from_values(values, weights, eps=0.1)
        gsk = GKSketch.from_values(values, eps=0.1)
        with pytest.raises(SketchError):
            wsk.merge(gsk)
        with pytest.raises(SketchError):
            gsk.merge(wsk)


class TestSerialization:
    def test_roundtrip_bit_exact(self, batch):
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.05)
        (back,) = SketchBatch.from_frame(frame_of(sk))
        assert frame_of(back) == frame_of(sk)
        assert back.total_weight == sk.total_weight
        assert back.count == sk.count

    def test_wire_bytes_matches(self, batch):
        """Sent and billed: the 5-byte frame head, then a form byte a
        column — feature id 0, entry count and count 800 in one, one and
        two bytes, eps once, the total weight, then float64 values and
        gaps (neither is exact at float32) and no delta (all zero)."""
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.05)
        head = 5 + (1 + 1) + (1 + 1) + (1 + 8) + (1 + 2) + (1 + 8)
        entries = (1 + 8 * len(sk)) + (1 + 8 * len(sk)) + 1
        assert len(frame_of(sk)) == head + entries == 209

    def test_truncated_payload_rejected(self, batch):
        values, weights = batch
        sk = WeightedGKSketch.from_values(values, weights, eps=0.05)
        with pytest.raises(SketchError):
            SketchBatch.from_frame(frame_of(sk)[:-3])


class TestTaggedWire:
    def test_round_trip_dispatches_on_kind(self, batch):
        values, weights = batch
        wsk = WeightedGKSketch.from_values(values, weights, eps=0.05)
        gsk = GKSketch.from_values(values, eps=0.05)
        for sk, cls in ((wsk, WeightedGKSketch), (gsk, GKSketch)):
            (back,) = SketchBatch.from_frame(frame_of(sk))
            assert isinstance(back, cls)
            assert frame_of(back) == frame_of(sk)

    def test_unknown_tag_rejected(self):
        with pytest.raises(SketchError):
            SketchBatch.from_frame(b"\x7f" + b"\x00" * 20)


class TestColumnBatch:
    def test_matches_per_column_from_values(self):
        rng = np.random.default_rng(17)
        n_rows, n_cols = 60, 5
        dense = rng.normal(size=(n_rows, n_cols))
        dense[rng.random((n_rows, n_cols)) < 0.4] = 0.0
        row_weights = rng.uniform(0.1, 2.0, size=n_rows)

        from scipy.sparse import csr_matrix

        X = csr_matrix(dense)
        sketches = sketch_columns_weighted(
            X.indptr, X.indices, X.data, n_cols, row_weights, eps=0.05
        )
        for col in range(n_cols):
            rows, = np.nonzero(dense[:, col])
            ref = WeightedGKSketch.from_values(
                dense[rows, col], row_weights[rows], eps=0.05
            )
            assert frame_of(sketches[col]) == frame_of(ref)

    def test_empty_column_gets_empty_sketch(self):
        indptr = np.array([0, 1], dtype=np.int64)
        indices = np.array([0], dtype=np.int64)
        data = np.array([2.0])
        sketches = sketch_columns_weighted(
            indptr, indices, data, 3, np.array([1.5]), eps=0.1
        )
        assert len(sketches[0]) == 1
        assert len(sketches[1]) == 0 and len(sketches[2]) == 0
