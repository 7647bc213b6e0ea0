"""Cross-module property-based tests (hypothesis)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterConfig, GBDT, TrainConfig, train_distributed
from repro.cluster import CostParams, ps_aggregate, reduce_scatter_halving
from repro.datasets import CSRMatrix, Dataset
from repro.sketch import GKSketch


def random_dataset(seed: int, n: int, m: int) -> Dataset:
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, m)) < 0.4) * rng.random((n, m))
    logits = dense[:, 0] * 3.0 - dense[:, 1] * 2.0
    y = (logits + rng.normal(0, 0.3, size=n) > np.median(logits)).astype(
        np.float32
    )
    return Dataset(CSRMatrix.from_dense(dense.astype(np.float32)), y, "fuzz")


class TestSketchProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_merge_commutes(self, seed):
        rng = np.random.default_rng(seed)
        a = GKSketch.from_values(rng.normal(size=300), 0.05)
        b = GKSketch.from_values(rng.normal(loc=1, size=200), 0.05)
        ab = a.merge(b)
        ba = b.merge(a)
        assert ab.count == ba.count
        for q in (0.1, 0.5, 0.9):
            # Both orders answer within the merged error band of each
            # other (2 * eps * n apart at most, plus summary granularity).
            assert abs(ab.query(q) - ba.query(q)) <= 4 * 0.05 * ab.count * 0.01 + 0.5

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_merge_tree_vs_chain(self, seed):
        """((a+b)+(c+d)) and (((a+b)+c)+d) agree within error bounds."""
        rng = np.random.default_rng(seed)
        parts = [rng.normal(size=150) for _ in range(4)]
        sketches = [GKSketch.from_values(p, 0.02) for p in parts]
        tree = sketches[0].merge(sketches[1]).merge(
            sketches[2].merge(sketches[3])
        )
        chain = sketches[0].merge(sketches[1]).merge(sketches[2]).merge(
            sketches[3]
        )
        combined = np.sort(np.concatenate(parts))
        n = len(combined)
        for q in (0.25, 0.5, 0.75):
            for merged in (tree, chain):
                answer = merged.query(q)
                rank_lo = int(np.sum(combined < answer))
                rank_hi = int(np.sum(combined <= answer))
                distance = max(0.0, rank_lo - q * n, q * n - rank_hi)
                assert distance <= 0.1 * n + 2  # errors add across merges


class TestCollectiveProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.integers(1, 40),
        st.integers(1, 5),
    )
    def test_ps_equals_halving_sums(self, seed, w, n, p):
        """Different topologies, same mathematics."""
        rng = np.random.default_rng(seed)
        contribs = [rng.normal(size=n) for _ in range(w)]
        cost = CostParams()
        slices, _ = ps_aggregate(contribs, cost, n_servers=p)
        ps_total = np.concatenate(slices)
        owned, stats = reduce_scatter_halving(contribs, cost)
        halving_total = np.empty(n)
        for i, (lo, hi) in stats.segments.items():
            halving_total[lo:hi] = owned[i]
        np.testing.assert_allclose(ps_total, halving_total, atol=1e-8)


class TestTrainingProperties:
    @settings(max_examples=6, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.sampled_from([1, 2, 3]),
        st.sampled_from(["mllib", "lightgbm", "dimboost"]),
    )
    def test_distributed_loss_matches_reference(self, seed, w, system):
        """Random data, random worker counts: every system's final train
        loss tracks the single-machine reference closely."""
        data = random_dataset(seed, n=150, m=12)
        config = TrainConfig(
            n_trees=2, max_depth=3, n_split_candidates=6, learning_rate=0.3
        )
        trainer = GBDT(config)
        trainer.fit(data)
        result = train_distributed(
            system,
            data,
            ClusterConfig(n_workers=w, n_servers=w),
            config.with_overrides(compression_bits=0),
        )
        assert result.rounds[-1].train_loss == pytest.approx(
            trainer.history[-1].train_loss, rel=1e-2
        )

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_loss_never_increases_single_machine(self, seed):
        data = random_dataset(seed, n=200, m=10)
        trainer = GBDT(
            TrainConfig(n_trees=5, max_depth=3, learning_rate=0.2)
        )
        trainer.fit(data)
        losses = [r.train_loss for r in trainer.history]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_model_roundtrip_preserves_predictions(self, seed):
        from repro import GBDTModel

        data = random_dataset(seed, n=100, m=8)
        model = GBDT(TrainConfig(n_trees=2, max_depth=3)).fit(data)
        clone = GBDTModel.from_dict(model.to_dict())
        np.testing.assert_array_equal(
            model.predict_raw(data.X), clone.predict_raw(data.X)
        )
