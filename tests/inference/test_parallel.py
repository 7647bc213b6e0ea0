"""Process-parallel scoring: parity, fallback, and no shared-memory leaks.

Every path through :class:`ParallelScorer` — clean close, broken pool,
context-manager exit — must leave ``/dev/shm`` exactly as it found it,
and every configuration must return bits identical to the serial flat
path.  (The shared-memory context's own lifecycle is in
``tests/test_arena.py``.)
"""

from __future__ import annotations

import glob
import multiprocessing

import numpy as np
import pytest

from repro.inference import ParallelScorer, parallel
from repro.inference.parallel import SHM_PREFIX

from .conftest import random_matrix


def leaked_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SHM_PREFIX}*")


@pytest.fixture(autouse=True)
def no_pool_outlives_a_test():
    """Every test here closes its scorer: no worker survives it."""
    yield
    assert multiprocessing.active_children() == []


class TestParity:
    def test_two_process_bitwise(self, trained_model, tiny_dataset):
        oracle = trained_model.predict_raw_per_tree(tiny_dataset.X)
        got = trained_model.predict_raw(tiny_dataset.X, n_processes=2)
        np.testing.assert_array_equal(got, oracle)

    def test_scorer_reuse_and_span_chunking(self, trained_model, tiny_dataset):
        oracle = trained_model.predict_raw_per_tree(tiny_dataset.X)
        before = set(leaked_segments())
        with ParallelScorer(
            trained_model.compiled(), n_processes=2, batch_rows=37
        ) as scorer:
            for _ in range(2):  # second call reuses the cached context
                got = scorer.predict_raw(
                    tiny_dataset.X, base_score=trained_model.base_score
                )
                np.testing.assert_array_equal(got, oracle)
        assert set(leaked_segments()) == before

    def test_truncation_through_pool(self, trained_model, tiny_dataset):
        oracle = trained_model.predict_raw_per_tree(tiny_dataset.X, n_trees=4)
        with ParallelScorer(
            trained_model.compiled(), n_processes=2, batch_rows=50
        ) as scorer:
            got = scorer.predict_raw(
                tiny_dataset.X,
                base_score=trained_model.base_score,
                n_trees=4,
            )
        np.testing.assert_array_equal(got, oracle)

    def test_tiny_input_stays_sequential(self, trained_model, tiny_dataset):
        # One block's worth of rows -> no fan-out, no segments created.
        before = set(leaked_segments())
        with ParallelScorer(trained_model.compiled(), n_processes=2) as scorer:
            got = scorer.predict_raw(
                tiny_dataset.X, base_score=trained_model.base_score
            )
            assert scorer._context is None
        np.testing.assert_array_equal(
            got, trained_model.predict_raw_per_tree(tiny_dataset.X)
        )
        assert set(leaked_segments()) == before


class TestSegmentLifetime:
    def test_predict_raw_transient_pool_releases(
        self, trained_model, tiny_dataset
    ):
        before = set(leaked_segments())
        trained_model.predict_raw(
            tiny_dataset.X, n_processes=2, batch_rows=40
        )
        assert set(leaked_segments()) == before

    def test_workers_hold_at_most_one_context(self, trained_model):
        rng = np.random.default_rng(17)
        with ParallelScorer(
            trained_model.compiled(), n_processes=2, batch_rows=40
        ) as scorer:
            for _ in range(4):
                X = random_matrix(rng, 200, trained_model.n_features)
                got = scorer.predict_raw(X, base_score=trained_model.base_score)
                assert np.array_equal(got, trained_model.predict_raw_per_tree(X))
            if scorer.fallback_reason is not None:
                pytest.skip(f"pool fell back: {scorer.fallback_reason}")
            sizes = [scorer._executor.submit(_worker_cache_size) for _ in range(8)]
            assert max(future.result() for future in sizes) <= 1


def _worker_cache_size() -> int:
    return len(parallel._WORKER_VIEW)


class _BreakingExecutor:
    """Stand-in executor whose submissions always report a dead pool."""

    def submit(self, *args, **kwargs):
        from concurrent.futures.process import BrokenProcessPool

        raise BrokenProcessPool("worker died")

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestPoolBreakage:
    def test_broken_pool_warns_falls_back_and_releases(
        self, trained_model, tiny_dataset
    ):
        oracle = trained_model.predict_raw_per_tree(tiny_dataset.X)
        before = set(leaked_segments())
        scorer = ParallelScorer(
            trained_model.compiled(), n_processes=2, batch_rows=40
        )
        scorer._executor = _BreakingExecutor()
        try:
            with pytest.warns(RuntimeWarning, match="process pool broke"):
                got = scorer.predict_raw(
                    tiny_dataset.X, base_score=trained_model.base_score
                )
        finally:
            scorer.close()
        assert scorer.fallback_reason == "process pool broke"
        np.testing.assert_array_equal(got, oracle)
        assert set(leaked_segments()) == before

    def test_disabled_scorer_stays_sequential(
        self, trained_model, tiny_dataset
    ):
        scorer = ParallelScorer(
            trained_model.compiled(), n_processes=2, batch_rows=40
        )
        scorer._executor = _BreakingExecutor()
        with pytest.warns(RuntimeWarning):
            scorer.predict_raw(tiny_dataset.X)
        before = set(leaked_segments())
        got = scorer.predict_raw(
            tiny_dataset.X, base_score=trained_model.base_score
        )
        np.testing.assert_array_equal(
            got, trained_model.predict_raw_per_tree(tiny_dataset.X)
        )
        assert set(leaked_segments()) == before
        scorer.close()
