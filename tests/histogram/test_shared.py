"""Tests for shared-memory shards, the buffer pool, and the process strategy.

(Segment lifecycle — close, partial construction, the worker attach
cache — is the arena's and lives in ``tests/test_arena.py``.)

Cross-strategy bit-identity needs exact arithmetic: the process strategy
merges per-chunk partial histograms, so per-bucket sums happen in a
different order than the serial kernel's.  The gradients here are dyadic
rationals (small integers over a power of two), for which float64
addition is exact in any order — making ``np.array_equal`` a fair
assertion across sequential, threaded, and process-pool builds.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro import ClusterConfig, TrainConfig
from repro.histogram import (
    GradientHistogram,
    HistogramBufferPool,
    SharedShard,
    build_node_histogram_sparse,
)
from repro.histogram.binned import BinnedShard
from repro.histogram.shared import SHM_PREFIX, build_into_slot
from repro.runtime.build import (
    BatchedBuildStrategy,
    DenseBuildStrategy,
    ProcessParallelBuildStrategy,
    SparseBuildStrategy,
)
from tests.conftest import make_matrix


def dyadic_gradients(n_rows: int, seed: int = 3):
    """Gradient/hessian vectors whose sums are exact in any order."""
    rng = np.random.default_rng(seed)
    grad = rng.integers(-512, 512, size=n_rows).astype(np.float64) / 1024.0
    hess = rng.integers(1, 512, size=n_rows).astype(np.float64) / 1024.0
    return grad, hess


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


def assert_identical(a: GradientHistogram, b: GradientHistogram) -> None:
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


@pytest.fixture()
def process_strategy():
    """A 2-process strategy with a small batch size, closed after the test."""
    strategy = ProcessParallelBuildStrategy(batch_size=32, n_processes=2)
    yield strategy
    strategy.close()


class TestSharedShard:
    def test_roundtrip_arrays(self, tiny_shard):
        with SharedShard(tiny_shard, n_slots=2) as shared:
            manifest = shared.manifest
            assert manifest["n_rows"] == tiny_shard.n_rows
            for name in ("indptr", "features", "slots", "row_of", "zero_slots"):
                segment_name, shape, dtype = manifest["arrays"][name]
                assert segment_name.startswith(shared.token)
                original = getattr(tiny_shard, name)
                assert tuple(shape) == original.shape
                assert np.dtype(dtype) == original.dtype

    def test_build_into_slot_matches_kernel(self, tiny_shard):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        reference = build_node_histogram_sparse(tiny_shard, rows, grad, hess)
        with SharedShard(tiny_shard, n_slots=1) as shared:
            shared.set_gradients(grad, hess)
            # In-process call: the worker path attaches via the manifest
            # exactly like a pool worker would.
            seconds = build_into_slot(shared.manifest, 0, rows, sparse=True)
            assert seconds >= 0.0
            assert_identical(shared.reduce(1), reference)

    def test_reduce_sums_slots_in_order(self, tiny_shard):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        reference = build_node_histogram_sparse(tiny_shard, rows, grad, hess)
        with SharedShard(tiny_shard, n_slots=2) as shared:
            shared.set_gradients(grad, hess)
            half = tiny_shard.n_rows // 2
            build_into_slot(shared.manifest, 0, rows[:half], sparse=True)
            build_into_slot(shared.manifest, 1, rows[half:], sparse=True)
            assert_identical(shared.reduce(2), reference)

    def test_invalid_n_slots(self, tiny_shard):
        with pytest.raises(ValueError):
            SharedShard(tiny_shard, n_slots=0)


class TestBufferPool:
    def test_acquire_release_recycles(self):
        pool = HistogramBufferPool()
        first = pool.acquire(4, 3)
        assert pool.misses == 1
        pool.release(first)
        assert pool.n_free == 1
        second = pool.acquire(4, 3)
        assert second is first
        assert pool.hits == 1

    def test_layouts_kept_apart(self):
        pool = HistogramBufferPool()
        pool.release(GradientHistogram.zeros(4, 3))
        other = pool.acquire(5, 3)
        assert other.n_features == 5
        assert pool.hits == 0 and pool.n_free == 1

    def test_clear(self):
        pool = HistogramBufferPool()
        pool.release(GradientHistogram.zeros(2, 2))
        pool.clear()
        assert pool.n_free == 0

    def test_pooled_strategy_overwrites_reused_buffer(self, tiny_shard):
        """A recycled (dirty) buffer must not bleed into the next build."""
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        reference = build_node_histogram_sparse(tiny_shard, rows, grad, hess)
        # The dense scan accumulates into its output, so it is the serial
        # strategy that pools; the sparse one returns bincount's arrays.
        strategy = DenseBuildStrategy(pool=HistogramBufferPool())
        first, _ = strategy.build(tiny_shard, rows, grad, hess)
        first.grad.fill(np.nan)  # poison, then recycle
        strategy.release(first)
        second, _ = strategy.build(tiny_shard, rows, grad, hess)
        assert second is first
        assert_identical(second, reference)

    def test_serial_sparse_strategy_takes_no_pool(self):
        with pytest.raises(TypeError):
            SparseBuildStrategy(pool=HistogramBufferPool())

    def test_small_nodes_do_not_grow_the_process_pool(
        self, tiny_shard, process_strategy
    ):
        """Nodes under two batches build serially and hand back bincount's
        own arrays; releasing them must not pile up pooled buffers."""
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(10, dtype=np.int64)
        for _ in range(5):
            histogram, _ = process_strategy.build(tiny_shard, rows, grad, hess)
            process_strategy.release(histogram)
        assert process_strategy.last_result is None  # never fanned out
        assert process_strategy.pool.n_free == 1


class TestProcessStrategyIdentity:
    def test_identical_across_all_strategies(self, tiny_shard, process_strategy):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        sequential, _ = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        threaded, _ = BatchedBuildStrategy(
            batch_size=32, n_threads=2, sparse=True, real_threads=True
        ).build(tiny_shard, rows, grad, hess)
        pooled, _ = process_strategy.build(tiny_shard, rows, grad, hess)
        assert process_strategy.last_result is not None
        assert process_strategy.last_result.backend == "process"
        assert_identical(threaded, sequential)
        assert_identical(pooled, sequential)

    def test_empty_node(self, tiny_shard, process_strategy):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.array([], dtype=np.int64)
        sequential, _ = SparseBuildStrategy().build(tiny_shard, rows, grad, hess)
        pooled, _ = process_strategy.build(tiny_shard, rows, grad, hess)
        assert_identical(pooled, sequential)

    def test_all_zero_rows_node(self, process_strategy):
        """Rows whose CSR slices are empty still settle the zero buckets."""
        rows_spec = [[(0, 1.0)], [], [], [], [], [], [], []]
        matrix = make_matrix(rows_spec, n_cols=3)
        from repro.sketch.candidates import propose_candidates

        shard = BinnedShard(matrix, propose_candidates(matrix, max_bins=4))
        grad, hess = dyadic_gradients(shard.n_rows)
        rows = np.arange(1, shard.n_rows, dtype=np.int64)  # all-zero rows only
        sequential, _ = SparseBuildStrategy().build(shard, rows, grad, hess)
        strategy = ProcessParallelBuildStrategy(batch_size=2, n_processes=2)
        try:
            pooled, _ = strategy.build(shard, rows, grad, hess)
            assert_identical(pooled, sequential)
        finally:
            strategy.close()

    def test_single_feature_shard(self):
        rows_spec = [[(0, float(i % 5))] if i % 2 else [] for i in range(40)]
        matrix = make_matrix(rows_spec, n_cols=1)
        from repro.sketch.candidates import propose_candidates

        shard = BinnedShard(matrix, propose_candidates(matrix, max_bins=4))
        grad, hess = dyadic_gradients(shard.n_rows)
        rows = np.arange(shard.n_rows, dtype=np.int64)
        sequential, _ = SparseBuildStrategy().build(shard, rows, grad, hess)
        strategy = ProcessParallelBuildStrategy(batch_size=8, n_processes=2)
        try:
            pooled, _ = strategy.build(shard, rows, grad, hess)
            assert_identical(pooled, sequential)
        finally:
            strategy.close()

    def test_gradient_refresh_between_rounds(self, tiny_shard, process_strategy):
        """New gradient arrays must be recopied into shared memory."""
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        process_strategy.build(tiny_shard, rows, grad, hess)
        grad2, hess2 = dyadic_gradients(tiny_shard.n_rows, seed=9)
        sequential, _ = SparseBuildStrategy().build(
            tiny_shard, rows, grad2, hess2
        )
        pooled, _ = process_strategy.build(tiny_shard, rows, grad2, hess2)
        assert_identical(pooled, sequential)


class TestProcessStrategyLifecycle:
    def test_small_node_stays_sequential(self, tiny_shard):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        strategy = ProcessParallelBuildStrategy(batch_size=10_000, n_processes=4)
        try:
            rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
            histogram, _ = strategy.build(tiny_shard, rows, grad, hess)
            # One batch: no pool was started, no telemetry recorded.
            assert strategy.last_result is None
            assert strategy._executor is None
            sequential, _ = SparseBuildStrategy().build(
                tiny_shard, rows, grad, hess
            )
            assert_identical(histogram, sequential)
        finally:
            strategy.close()

    def test_close_releases_everything(self, tiny_shard):
        before = set(leaked_segments())
        strategy = ProcessParallelBuildStrategy(batch_size=32, n_processes=2)
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        strategy.build(tiny_shard, rows, grad, hess)
        assert set(leaked_segments()) != before  # segments live while open
        strategy.close()
        assert set(leaked_segments()) == before
        assert strategy._executor is None

    def test_worker_exception_propagates_and_segments_release(self, tiny_shard):
        before = set(leaked_segments())
        strategy = ProcessParallelBuildStrategy(batch_size=32, n_processes=2)
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        bad_rows = np.full(80, tiny_shard.n_rows + 5, dtype=np.int64)
        try:
            with pytest.raises(IndexError):
                strategy.build(tiny_shard, bad_rows, grad, hess)
        finally:
            strategy.close()
        assert set(leaked_segments()) == before

    def test_invalid_n_processes(self):
        with pytest.raises(ValueError):
            ProcessParallelBuildStrategy(batch_size=32, n_processes=0)

    def test_release_feeds_buffer_pool(self, tiny_shard, process_strategy):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        histogram, _ = process_strategy.build(tiny_shard, rows, grad, hess)
        process_strategy.release(histogram)
        assert process_strategy.pool.n_free == 1

    def test_telemetry_fields(self, tiny_shard, process_strategy):
        grad, hess = dyadic_gradients(tiny_shard.n_rows)
        rows = np.arange(tiny_shard.n_rows, dtype=np.int64)
        process_strategy.build(tiny_shard, rows, grad, hess)
        result = process_strategy.last_result
        assert result.n_batches == 2
        assert len(result.batch_seconds) == 2
        assert result.serial_seconds == pytest.approx(sum(result.batch_seconds))
        assert result.wall_seconds > 0.0
        assert result.real_speedup > 0.0


class TestEngineIntegration:
    def test_distributed_fit_with_process_backend(self, tiny_dataset):
        """A full distributed fit on the process backend grows the same
        trees as the simulated backend and leaks no shared memory.

        Real logistic gradients are not dyadic, so the chunked merge may
        drift by a few ULPs — structure must match exactly, leaf weights
        and predictions to float tolerance.
        """
        from repro.distributed.engine import DistributedGBDT

        before = set(leaked_segments())
        base_config = TrainConfig(
            n_trees=2,
            max_depth=3,
            n_split_candidates=8,
            compression_bits=0,
            batch_size=32,
        )
        cluster = ClusterConfig(2, 2)
        reference = DistributedGBDT("dimboost", cluster, base_config).fit(
            tiny_dataset
        )
        process_config = base_config.with_overrides(
            parallel_backend="process", n_processes=2
        )
        result = DistributedGBDT("dimboost", cluster, process_config).fit(
            tiny_dataset
        )
        assert set(leaked_segments()) == before
        for ref_tree, tree in zip(reference.model.trees, result.model.trees):
            ref_nodes = ref_tree.to_dict()["nodes"]
            nodes = tree.to_dict()["nodes"]
            assert [n["id"] for n in ref_nodes] == [n["id"] for n in nodes]
            assert [n.get("feature") for n in ref_nodes] == [
                n.get("feature") for n in nodes
            ]
        np.testing.assert_allclose(
            reference.model.predict(tiny_dataset.X),
            result.model.predict(tiny_dataset.X),
            rtol=1e-9,
        )
