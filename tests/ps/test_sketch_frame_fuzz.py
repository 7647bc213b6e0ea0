"""Hostile ragged sketch frames through ``PSServer.handle_push_sketch``.

The frame parser validates once per frame, vectorised; nothing but a
``ReproError`` may escape the handler, and a push it rejects must leave
the partition's summaries and sequence tokens exactly as they were.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PSError, ReproError, SketchError
from repro.ps import PSServer
from repro.ps.partitioner import Partition
from repro.sketch import GKSketch, SketchBatch, WeightedGKSketch

N_FEATURES = 12


def make_server() -> PSServer:
    server = PSServer(0)
    server.register("sketch", [Partition(0, 0, N_FEATURES, 0)])
    return server


def make_batch(weighted: bool, seed: int, features=(1, 2, 5, 9)) -> SketchBatch:
    rng = np.random.default_rng(seed)
    sketches = []
    for f in features:
        n = int(rng.integers(0, 30)) if f != 2 else 0  # feature 2: an empty summary
        values = rng.normal(size=n)
        sketches.append(
            WeightedGKSketch.from_values(values, rng.uniform(0.1, 2.0, size=n), 0.1)
            if weighted
            else GKSketch.from_values(values, 0.1)
        )
    return SketchBatch.from_sketches(sketches, features)


def relabel(batch: SketchBatch, **fields) -> bytes:
    """``batch``'s frame with some columns replaced — no check on the way out."""
    columns = {name: getattr(batch, name) for name in SketchBatch.__slots__}
    columns.update(fields)
    return SketchBatch(**columns).to_frame()


def at(column: np.ndarray, i: int, value) -> np.ndarray:
    out = np.array(column, dtype=np.float64 if isinstance(value, float) else None)
    out[i] = value
    return out


def field_mutations(batch: SketchBatch) -> dict[str, bytes]:
    """One frame per rule of the validator, each breaking exactly that rule."""
    full = int(np.flatnonzero(np.diff(batch.bounds) >= 3)[0])  # a summary with entries
    a = int(batch.bounds[full])
    frames = {
        "count-negative": relabel(batch, counts=at(batch.counts, full, -5)),
        "count-without-entries": relabel(batch, counts=at(batch.counts, 1, 7)),
        "entries-without-count": relabel(batch, counts=at(batch.counts, full, 0)),
        "eps-zero": relabel(batch, eps=at(batch.eps, 0, 0.0)),
        "eps-nan": relabel(batch, eps=at(batch.eps, 0, float("nan"))),
        "eps-half": relabel(batch, eps=at(batch.eps, 0, 0.5)),
        "value-nan": relabel(batch, values=at(batch.values, a + 1, float("nan"))),
        "values-descend": relabel(batch, values=at(batch.values, a + 1, -1e9)),
        "gap-negative": relabel(batch, g=at(batch.g, a, -3)),
        "delta-negative": relabel(batch, delta=at(batch.delta, a + 1, -1)),
        "gaps-miss-the-mass": relabel(batch, g=at(batch.g, a, batch.g[a] + 2)),
        "features-repeat": relabel(batch, features=np.array([1, 2, 2, 9])),
        "features-descend": relabel(batch, features=np.array([1, 5, 2, 9])),
        "feature-negative": relabel(batch, features=np.array([-1, 2, 5, 9])),
        "feature-outside-partition": relabel(
            batch, features=np.array([1, 2, 5, N_FEATURES])
        ),
    }
    if batch.kind is GKSketch:  # whose count travels as a float64
        frames["count-nan"] = relabel(batch, counts=at(batch.counts, full, float("nan")))
        frames["count-inf"] = relabel(batch, counts=at(batch.counts, full, float("inf")))
    else:
        frames["mass-nan"] = relabel(batch, masses=at(batch.masses, full, float("nan")))
        frames["mass-negative"] = relabel(batch, masses=at(batch.masses, full, -1.0))
    good = batch.to_frame()
    frames["truncated"] = good[:-5]
    frames["over-length"] = good + b"\x00" * 8
    frames["header-only"] = good[:6]
    frames["unknown-kind"] = b"\x07" + good[1:]
    frames["negative-summary-count"] = good[:4] + (-3).to_bytes(4, "little", signed=True) + good[8:]
    frames["summary-count-too-large"] = good[:4] + (10**9).to_bytes(4, "little") + good[8:]
    sizes = np.diff(batch.bounds).astype(np.int32)
    sizes[0] = -1
    frames["negative-entry-count"] = (
        good[: 8 + 4 * len(batch)] + sizes.tobytes() + good[8 + 8 * len(batch) :]
    )
    return frames


def state(server: PSServer):
    return (
        server._sketches["sketch"][0].to_frame(),
        {pid: set(tokens) for pid, tokens in server._sketch_applied["sketch"].items()},
        server.duplicate_pushes,
    )


@pytest.mark.parametrize("weighted", [False, True], ids=["gk", "weighted"])
def test_every_rule_of_the_validator_rejects_and_leaves_no_trace(weighted):
    server = make_server()
    server.handle_push_sketch(
        "sketch", 0, make_batch(weighted, seed=1).to_frame(), seq=("sketch", 0)
    )
    before = state(server)
    good = make_batch(weighted, seed=2)
    for name, frame in field_mutations(good).items():
        with pytest.raises((SketchError, PSError)):
            server.handle_push_sketch("sketch", 0, frame, seq=("sketch", 1))
            pytest.fail(f"{name}: accepted")
        assert state(server) == before, name
    # The corrected retry under the same token is a first delivery.
    server.handle_push_sketch("sketch", 0, good.to_frame(), seq=("sketch", 1))
    assert state(server)[2] == before[2] and state(server)[0] != before[0]


@settings(max_examples=150, deadline=None)
@given(
    weighted=st.booleans(),
    seed=st.integers(0, 50),
    cut=st.one_of(st.none(), st.integers(0, 400)),
    pad=st.binary(max_size=12),
    flips=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4
    ),
)
def test_mutated_frames_never_leak_a_foreign_exception(weighted, seed, cut, pad, flips):
    """Truncation, padding and byte flips anywhere in a valid frame: the
    push is either applied whole or refused with a ``ReproError`` that
    leaves summaries and tokens as they were."""
    server = make_server()
    server.handle_push_sketch(
        "sketch", 0, make_batch(weighted, seed=seed).to_frame(), seq=("sketch", 0)
    )
    before = state(server)
    frame = bytearray(make_batch(weighted, seed=seed + 1).to_frame())
    for where, byte in flips:
        frame[where % len(frame)] = byte
    frame = bytes(frame[:cut] if cut is not None else frame) + pad
    try:
        server.handle_push_sketch("sketch", 0, frame, seq=("sketch", 1))
    except ReproError:
        assert state(server) == before
    else:
        merged = SketchBatch.from_frame(server._sketches["sketch"][0].to_frame())
        assert ("sketch", 1) in server._sketch_applied["sketch"][0]
        # Whatever was accepted can be queried without an exception.
        assert merged.quantiles(4).shape == (int(np.count_nonzero(merged.counts)), 4)
