"""Lifecycle of the one shared-memory arena, through both of its clients.

:class:`~repro.histogram.shared.SharedShard` (histogram builds) and
:class:`~repro.inference.parallel.SharedScoreContext` (flat scoring)
differ only in which arrays they place in a
:class:`~repro.utils.arena.SharedArena`; segment creation, release and
the worker attach cache are the arena's, so every lifecycle guarantee is
asserted once here, for both.
"""

from __future__ import annotations

import glob

import numpy as np
import pytest

from repro.histogram import shared as shard_client
from repro.inference import parallel as score_client
from repro.utils import arena
from tests.inference.conftest import random_model


def leaked_segments() -> set[str]:
    return set(glob.glob(f"/dev/shm/{arena.SHM_PREFIX}*"))


@pytest.fixture(params=["shard", "score"])
def client(request, tiny_shard, tiny_dataset):
    """``(make_arena, worker_view_builder)`` of one arena client."""
    if request.param == "shard":
        return (
            lambda: shard_client.SharedShard(tiny_shard, n_slots=2),
            shard_client._worker_view,
        )
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
