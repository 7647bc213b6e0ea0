"""Lifecycle of the one shared-memory arena and of the pool that reads it.

Segment creation, release and the worker attach cache are
:class:`~repro.utils.arena.SharedArena`'s, so every lifecycle guarantee
is asserted here on a bare arena and on its one client,
:class:`~repro.inference.parallel.SharedScoreContext`.  The fallback
ladder of :class:`~repro.utils.arena.ForkPoolHost` is driven through
:class:`~repro.inference.parallel.ParallelScorer` (its "process pool
broke" rung is in ``tests/inference/test_parallel.py``).
"""

from __future__ import annotations

import glob
import multiprocessing
import warnings

import numpy as np
import pytest

from repro.inference import parallel as score_client
from repro.utils import arena
from tests.inference.conftest import random_model


def leaked_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{arena.SHM_PREFIX}*"))


def _bare_view(manifest, arrays):
    return arrays


@pytest.fixture(params=["bare", "score"])
def client(request, tiny_dataset):
    """``(make_arena, worker_view_builder)`` of one arena client."""
    if request.param == "bare":
        X = tiny_dataset.X
        arrays = {"indptr": X.indptr, "indices": X.indices, "data": X.data}
        return (lambda: arena.SharedArena(arrays, n_rows=X.n_rows), _bare_view)
    model = random_model(np.random.default_rng(3), 4, tiny_dataset.n_features, 3)
    ensemble = model.compiled()
    return (
        lambda: score_client.SharedScoreContext(ensemble, tiny_dataset.X),
        score_client._worker_view,
    )


def test_close_unlinks_every_segment_and_is_idempotent(client):
    make_arena, _ = client
    before = leaked_segments()
    shared = make_arena()
    created = leaked_segments() - before
    assert len(created) == len(shared.manifest["arrays"])  # one per array
    assert all(shared.token in path for path in created)
    assert shared.nbytes > 0
    shared.close()
    shared.close()
    assert shared.arrays == {} and shared.nbytes == 0
    assert leaked_segments() == before


def test_context_manager_releases(client):
    make_arena, _ = client
    before = leaked_segments()
    with make_arena() as shared:
        assert leaked_segments() - before
        assert shared.manifest["token"] == shared.token
    assert leaked_segments() == before


def test_failure_mid_construction_unlinks_created_segments(client, monkeypatch):
    """The third segment fails to allocate: the first two must not leak."""
    make_arena, _ = client
    real = arena.shared_memory.SharedMemory
    created = []

    def flaky(*args, **kwargs):
        if kwargs.get("create") and len(created) == 2:
            raise OSError("no space left on /dev/shm")
        segment = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(segment.name)
        return segment

    monkeypatch.setattr(arena.shared_memory, "SharedMemory", flaky)
    before = leaked_segments()
    with pytest.raises(OSError, match="no space left"):
        make_arena()
    assert len(created) == 2
    assert leaked_segments() == before


def test_worker_attach_cache_is_keyed_by_token(client):
    make_arena, build_view = client
    before = leaked_segments()
    with make_arena() as first, make_arena() as second:
        assert first.token != second.token
        view = other = None
        try:
            view = arena.attach(first.manifest, build_view)
            assert arena.attach(first.manifest, build_view) is view
            other = arena.attach(second.manifest, build_view)
            assert other is not view
            assert {first.token, second.token} <= set(arena._WORKER_VIEWS)
            # The cached view maps the owner's segments, not a copy.
            _, segments = arena._WORKER_VIEWS[first.token]
            assert [seg.name for seg in segments] == [
                entry[0] for entry in first.manifest["arrays"].values()
            ]
        finally:
            del view, other
            for token in (first.token, second.token):
                arena._WORKER_VIEWS.pop(token, None)
    assert leaked_segments() == before


# ----------------------------------------------------------------------
# ForkPoolHost's ladder, through ParallelScorer
# ----------------------------------------------------------------------


@pytest.fixture()
def scorer(tiny_dataset):
    """A 2-process scorer over blocks small enough to fan out."""
    model = random_model(np.random.default_rng(5), 6, tiny_dataset.n_features, 4)
    scorer = score_client.ParallelScorer(
        model.compiled(), n_processes=2, batch_rows=40
    )
    yield scorer
    scorer.close()


def _failing_span(*args):
    raise IndexError("row span out of range")


def test_worker_exception_propagates_and_segments_release(
    scorer, tiny_dataset, monkeypatch
):
    # Pickled by import path, so the forked worker runs this module's
    # function in place of score_span.
    monkeypatch.setattr(score_client, "score_span", _failing_span)
    before = leaked_segments()
    try:
        with pytest.raises(IndexError, match="row span out of range"):
            scorer.predict_raw(tiny_dataset.X)
        assert scorer.fallback_reason is None  # a task's error is not a broken pool
    finally:
        scorer.close()
    assert leaked_segments() == before
    assert multiprocessing.active_children() == []


def _no_fork(monkeypatch):
    monkeypatch.setattr(
        arena.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


def _no_shared_memory(monkeypatch):
    def refuse(ensemble, X):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(score_client, "SharedScoreContext", refuse)


@pytest.mark.parametrize(
    "break_rung, reason",
    [
        (_no_fork, "fork start method unavailable"),
        (_no_shared_memory, "shared memory unavailable (no space left on /dev/shm)"),
    ],
    ids=["no-fork", "no-shared-memory"],
)
def test_unusable_pool_warns_once_and_scores_serially(
    scorer, tiny_dataset, monkeypatch, break_rung, reason
):
    break_rung(monkeypatch)
    serial = scorer.ensemble.predict_raw(tiny_dataset.X, base_score=0.5)
    before = leaked_segments()
    with pytest.warns(RuntimeWarning, match="scoring disabled") as caught:
        first = scorer.predict_raw(tiny_dataset.X, base_score=0.5)
    assert len(caught) == 1
    assert scorer.fallback_reason == reason
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the second call must stay silent
        second = scorer.predict_raw(tiny_dataset.X, base_score=0.5)
    assert np.array_equal(first, serial) and np.array_equal(second, serial)
    assert leaked_segments() == before
    assert multiprocessing.active_children() == []
