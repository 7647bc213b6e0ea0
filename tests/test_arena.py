"""Lifecycle of process-parallel scoring's shared memory and its pool.

:class:`~repro.inference.parallel.ParallelScorer` owns the segments of
one shared context and the fork pool that reads them, and workers keep
one attached context each; every lifecycle guarantee and every rung of
the fallback ladder is asserted here (the "process pool broke" rung is
in ``tests/inference/test_parallel.py``).
"""

from __future__ import annotations

import glob
import multiprocessing
import warnings

import numpy as np
import pytest

from repro.inference import parallel as score_client
from tests.inference.conftest import random_model


def leaked_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{score_client.SHM_PREFIX}*"))


@pytest.fixture(params=["score"])
def client(request, tiny_dataset):
    """``make_context()`` -> a scorer holding a fresh shared context."""
    model = random_model(np.random.default_rng(3), 4, tiny_dataset.n_features, 3)
    ensemble = model.compiled()
    scorers = []

    def make_context():
        scorer = score_client.ParallelScorer(ensemble, n_processes=2)
        scorers.append(scorer)
        scorer._share(tiny_dataset.X)
        return scorer

    yield make_context
    for scorer in scorers:
        scorer.close()


def test_close_unlinks_every_segment_and_is_idempotent(client):
    before = leaked_segments()
    shared = client()
    _, manifest, _ = shared._context
    created = leaked_segments() - before
    assert len(created) == len(manifest["arrays"])  # one per array
    assert all(manifest["token"] in path for path in created)
    shared.close()
    shared.close()
    assert shared._context is None and shared._segments == []
    assert leaked_segments() == before


def test_context_manager_releases(client):
    before = leaked_segments()
    with client() as shared:
        assert leaked_segments() - before
        assert shared._context[1]["token"].startswith(score_client.SHM_PREFIX)
    assert leaked_segments() == before


def test_failure_mid_construction_unlinks_created_segments(client, monkeypatch):
    """The third segment fails to allocate: the first two must not leak."""
    real = score_client.shared_memory.SharedMemory
    created = []

    def flaky(*args, **kwargs):
        if kwargs.get("create") and len(created) == 2:
            raise OSError("no space left on /dev/shm")
        segment = real(*args, **kwargs)
        if kwargs.get("create"):
            created.append(segment.name)
        return segment

    monkeypatch.setattr(score_client.shared_memory, "SharedMemory", flaky)
    before = leaked_segments()
    with pytest.raises(OSError, match="no space left"):
        client()
    assert len(created) == 2
    assert leaked_segments() == before


def test_worker_attach_cache_is_keyed_by_token(client):
    first, second = client()._context[1], client()._context[1]
    assert first["token"] != second["token"]
    cache = score_client._WORKER_VIEW
    try:
        view = score_client._attach(first)
        assert score_client._attach(first) is view
        assert set(cache) == {first["token"]}
        # The cached view maps the owner's segments, not a copy.
        _, segments = cache[first["token"]]
        assert [seg.name for seg in segments] == [
            entry[0] for entry in first["arrays"].values()
        ]
        del view, segments  # a new token closes the old segments
        other = score_client._attach(second)
        assert set(cache) == {second["token"]}
        assert score_client._attach(second) is other
        del other
    finally:
        for token in list(cache):
            for seg in cache.pop(token)[1]:
                seg.close()


# ----------------------------------------------------------------------
# the fallback ladder
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
        score_client.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )


def _no_shared_memory(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no space left on /dev/shm")

    monkeypatch.setattr(score_client.shared_memory, "SharedMemory", refuse)


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
