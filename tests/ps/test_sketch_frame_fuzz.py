"""Ragged sketch frames: drawn batches round trip through their smallest
form, and hostile frames through ``PSServer.handle_push_sketch``.

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
from repro.sketch.wire import (
    ARANGE,
    CONST,
    COUNTS,
    F32,
    F64,
    FLOAT_RANKS,
    FLOATS,
    I64,
    IDS,
    RANKS,
    U8,
    U16,
    U32,
    UNIFORM_FLOATS,
    ZERO,
)

from .. import _reference_gridpath as ref

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
    # Counts travel as integers, so a NaN count has no frame (a float
    # count column is a form no count admits: tests/sketch).
    if batch.kind is not GKSketch:
        frames["mass-nan"] = relabel(batch, masses=at(batch.masses, full, float("nan")))
        frames["mass-negative"] = relabel(batch, masses=at(batch.masses, full, -1.0))
    # One entry count -1, its neighbour one more: the entries add up.
    bounds = batch.bounds.copy()
    bounds[1] = bounds[2] + 1
    frames["negative-entry-count"] = relabel(batch, bounds=bounds)
    good = batch.to_frame()
    frames["truncated"] = good[:-5]
    frames["over-length"] = good + b"\x00" * 8
    frames["header-only"] = good[:6]
    frames["unknown-kind"] = b"\x07" + good[1:]
    frames["negative-summary-count"] = good[:1] + (-3).to_bytes(4, "little", signed=True) + good[5:]
    frames["summary-count-too-large"] = good[:1] + (10**9).to_bytes(4, "little") + good[5:]
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


#: Payload bytes of each column form: fixed, or per element.
_FIXED = {ZERO: 0, CONST: 8, ARANGE: 8}
_ITEM = {U8: 1, U16: 2, U32: 4, I64: 8, F32: 4, F64: 8}
COLUMNS = ("features", "eps", "counts", "masses", "values", "g", "delta")


@st.composite
def sketch_batches(draw):
    """GK or weighted batches of valid summaries: contiguous or gapped
    ids, uniform or mixed eps, values exact at float32 or not, a largest
    GK gap of 255, 256, 65535 or 65536, zero or nonzero deltas."""
    weighted = draw(st.booleans())
    n = draw(st.integers(1, 12))
    start = draw(st.integers(0, 300))
    if draw(st.booleans()):
        features = start + np.arange(n)
    else:
        gaps = draw(st.lists(st.integers(2, 2**20), min_size=n, max_size=n))
        features = start + np.cumsum(gaps)
    epsilons = st.sampled_from([0.01, 0.05, 0.2, 0.3, 0.45])
    if draw(st.booleans()):
        eps = np.full(n, draw(epsilons))
    else:
        eps = np.asarray(draw(st.lists(epsilons, min_size=n, max_size=n)))
    sizes = np.asarray(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    entries = int(sizes.sum())
    width = 32 if draw(st.booleans()) else 64
    finite = st.floats(allow_nan=False, allow_infinity=False, width=width)
    values = np.asarray(draw(st.lists(finite, min_size=entries, max_size=entries)))
    bounds = np.concatenate(([0], np.cumsum(sizes))).astype(np.int64)
    for a, b in zip(bounds[:-1], bounds[1:]):
        values[a:b].sort()
    owner = np.repeat(np.arange(n), sizes)
    zero_delta = draw(st.booleans())
    if weighted:
        ranks = st.floats(0.0, 1e6, width=width)
        g = np.asarray(draw(st.lists(ranks, min_size=entries, max_size=entries)))
        delta = np.zeros(entries) if zero_delta else np.asarray(
            draw(st.lists(ranks, min_size=entries, max_size=entries))
        )
        masses = np.bincount(owner, weights=g, minlength=n).astype(np.float64)
        counts = np.where(sizes > 0, sizes * 3, 0).astype(np.int64)
        kind = WeightedGKSketch
    else:
        top = draw(st.sampled_from([255, 256, 65535, 65536]))
        gs = st.integers(1, top)
        g = np.asarray(draw(st.lists(gs, min_size=entries, max_size=entries)), np.int64)
        g[: min(entries, 1)] = top
        delta = np.zeros(entries, np.int64) if zero_delta else np.asarray(
            draw(st.lists(st.integers(0, 2**33), min_size=entries, max_size=entries)),
            np.int64,
        )
        counts = masses = np.bincount(owner, weights=g, minlength=n).astype(np.int64)
        kind = GKSketch
    return SketchBatch(
        kind, features.astype(np.int64), eps.astype(np.float64), counts, masses,
        bounds, values.astype(np.float64), g, delta,
    )


def form_offsets(frame: bytes, batch: SketchBatch) -> list[int]:
    """Where each column's form byte sits, walking the frame's layout."""
    n, entries = len(batch), int(batch.bounds[-1] - batch.bounds[0])
    lengths = [n] * (4 if batch.kind is GKSketch else 5) + [entries] * 3
    at, found = 5, []
    for length in lengths:
        form = frame[at]
        found.append(at)
        at += 1 + _FIXED.get(form, _ITEM.get(form, 0) * length)
    assert at == len(frame)
    return found


class _ReferenceSummary:
    """Summary ``i`` of a batch, under the attribute names the closed
    form of ``tests/_reference_gridpath`` reads."""

    def __init__(self, batch: SketchBatch, i: int) -> None:
        a, b = batch.bounds[i], batch.bounds[i + 1]
        self.eps, self.count = batch.eps[i], batch.counts[i]
        self.total_weight = batch.masses[i]
        self._values, self._g, self._delta = (
            batch.values[a:b], batch.g[a:b], batch.delta[a:b]
        )

    def __len__(self) -> int:
        return len(self._values)


@settings(max_examples=150, deadline=None)
@given(batch=sketch_batches())
def test_drawn_batches_round_trip_in_their_smallest_form(batch):
    """Every column comes back bit for bit, at the length of the
    element-by-element closed form, in the forms the data calls for.
    A form byte changed to one its column does not admit, a truncated
    and an extended frame are a ``SketchError``; any other form (width
    included) or summary-count mutation raises nothing else."""
    frame = batch.to_frame()
    back = SketchBatch.from_frame(frame)

    def same(other: SketchBatch) -> bool:
        return other.kind is batch.kind and all(
            getattr(other, name).tobytes() == getattr(batch, name).tobytes()
            for name in (*COLUMNS, "bounds")
        )

    assert same(back)
    weighted = batch.kind is WeightedGKSketch
    summaries = [_ReferenceSummary(batch, i) for i in range(len(batch))]
    assert len(frame) == ref.sketch_frame_bytes(
        batch.features.tolist(), summaries, weighted
    )
    offsets = form_offsets(frame, batch)
    forms = [frame[at] for at in offsets]
    values, g, delta = batch.values, batch.g, batch.delta
    top_id = int(batch.features.max())
    id_width = next(w for w in (1, 2, 4, 8) if top_id < 2 ** (8 * w))
    assert (forms[0] == ARANGE) == (
        bool(np.all(np.diff(batch.features) == 1)) and 8 <= len(batch) * id_width
    )
    assert (forms[2] == CONST) == (len(set(batch.eps.tolist())) == 1)
    with np.errstate(over="ignore"):
        exact = np.array_equal(values.astype(np.float32).astype(np.float64), values)
    assert (forms[-3] == F32) == exact
    assert (forms[-1] == ZERO) == (not delta.any())
    if not weighted and len(g):
        assert forms[-2] == {255: U8, 256: U16, 65535: U16, 65536: U32}[int(g.max())]

    rank = FLOAT_RANKS if weighted else RANKS
    admitted = [IDS, COUNTS, UNIFORM_FLOATS, COUNTS]
    admitted += [FLOATS] if weighted else []
    admitted += [FLOATS, rank, rank]
    for at, column in zip(offsets, admitted):
        for code in (*range(12), 255):
            mutated = frame[:at] + bytes((code,)) + frame[at + 1 :]
            if code not in column.forms:
                with pytest.raises(SketchError):
                    SketchBatch.from_frame(mutated)
            elif code != frame[at]:
                parses_or_refuses(mutated)
    for mutated in (frame[:-1], frame + b"\x00"):
        with pytest.raises(SketchError):
            SketchBatch.from_frame(mutated)
    for count in (len(batch) - 1, len(batch) + 1):  # the header's summary count
        parses_or_refuses(frame[:1] + count.to_bytes(4, "little") + frame[5:])


def parses_or_refuses(frame: bytes) -> None:
    """Only a ``SketchError`` escapes; a frame that parses is queryable."""
    try:
        got = SketchBatch.from_frame(frame)
    except SketchError:
        return
    assert got.quantiles(3).shape == (int(np.count_nonzero(got.counts)), 3)
