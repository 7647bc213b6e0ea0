"""Hostile candidate frames through ``CandidateSet.from_frame``, and hostile
candidate pulls through ``PSServer.handle_pull_candidates``.

A PULL_SKETCH reply is parsed once, by one validating parser: whatever
the bytes, nothing but a ``SketchError`` may escape it, and whatever it
accepts is a candidate set every lookup answers.  A pull asking for
features outside the partition is a ``PSError`` on the server.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PSError, SketchError
from repro.ps import PSServer
from repro.ps.partitioner import Partition
from repro.sketch import CandidateSet, GKSketch, SketchBatch
from repro.sketch.candidates import candidate_frame_bytes
from repro.sketch.wire import F32, F64

N_FEATURES = 12
MAX_BINS = 6
#: The partition's features are global ids [PART_LO, PART_LO + N_FEATURES).
PART_LO = 40


def make_server(seed: int) -> PSServer:
    """One server hosting one partition whose features hold summaries:
    some empty, some signed (a zero cut), some constant (one cut)."""
    rng = np.random.default_rng(seed)
    sketches = []
    for f in range(N_FEATURES):
        n = 0 if f % 5 == 2 else int(rng.integers(1, 60))
        values = rng.normal(loc=0.5 * (f % 3), size=n)
        if f % 7 == 4:
            values[:] = 1.5
        sketches.append(GKSketch.from_values(values, 0.05))
    batch = SketchBatch.from_sketches(sketches, range(PART_LO, PART_LO + N_FEATURES))
    server = PSServer(0)
    server.register("sketch", [Partition(0, PART_LO, PART_LO + N_FEATURES, 0)])
    server.handle_push_sketch("sketch", 0, batch.to_frame())
    return server


def pull(server: PSServer, lo: int = PART_LO, hi: int = PART_LO + N_FEATURES) -> bytes:
    return server.handle_pull_candidates("sketch", 0, lo, hi, MAX_BINS)


def parse(frame: bytes, lo: int = PART_LO, hi: int = PART_LO + N_FEATURES):
    return CandidateSet.from_frame(frame, MAX_BINS, lo, hi)


def framed(
    per_feature, first: int = PART_LO, n: int | None = None, counts=None
) -> bytes:
    """A frame of the given per-feature cuts (under other ``counts``, if
    given), the cuts in float64 — no check on the way out.  ``MAX_BINS``
    is 6, so a cut count travels in one byte."""
    if counts is None:
        counts = [len(c) for c in per_feature]
    counts = np.array(counts, dtype=np.uint8)
    cuts = np.concatenate([np.asarray(c, dtype=np.float64) for c in per_feature])
    n = len(per_feature) if n is None else n
    head = struct.pack("=ii", first, n)
    return head + counts.tobytes() + bytes((F64,)) + cuts.tobytes()


def field_mutations(good: CandidateSet) -> dict[str, bytes]:
    """One frame per rule of the parser, each breaking exactly that rule."""
    features = [good.feature_cuts(f).copy() for f in range(good.n_features)]
    full = next(f for f, c in enumerate(features) if len(c) >= 3)

    def changed(f: int, cuts) -> list:
        out = list(features)
        out[f] = np.asarray(cuts, dtype=np.float64)
        return out

    cuts = features[full]
    # Cut counts travel unsigned: a negative count has no frame.
    frame = good.to_frame(PART_LO)
    at = 8 + full  # the cut count of feature ``full``
    form = 8 + good.n_features  # the form byte of the cuts
    return {
        "truncated": frame[:-5],
        "trailing-bytes": frame + b"\x00" * 8,
        "header-only": frame[:8],
        "shorter-than-header": frame[:5],
        "cut-count-byte-over-budget": frame[:at] + bytes((MAX_BINS,)) + frame[at + 1 :],
        "cut-form-not-admitted": frame[:form] + b"\x00" + frame[form + 1 :],
        "cut-form-unknown": frame[:form] + b"\xff" + frame[form + 1 :],
        "cut-form-other-width": (
            frame[:form] + bytes((F32 + F64 - frame[form],)) + frame[form + 1 :]
        ),
        "cut-count-over-budget": framed(
            changed(full, np.arange(MAX_BINS, dtype=np.float64))
        ),
        "cut-nan": framed(changed(full, [cuts[0], float("nan"), *cuts[2:]])),
        "cuts-descend": framed(changed(full, [cuts[1], cuts[0], *cuts[2:]])),
        "cut-repeated": framed(changed(full, [cuts[0], cuts[0], *cuts[2:]])),
        "feature-count-negative": framed(features, n=-3),
        "feature-count-too-large": framed(features, n=10**9),
        "other-first-feature": framed(features, first=PART_LO + 1),
        "range-past-the-partition": framed([*features, np.empty(0)]),
        "range-short-of-the-partition": framed(features[:-1]),
    }


def test_frame_round_trip_and_billed_length():
    server = make_server(seed=1)
    frame = pull(server)
    got = parse(frame)
    assert got.to_frame(PART_LO) == frame
    assert len(frame) == candidate_frame_bytes(N_FEATURES, got.cuts, MAX_BINS)
    # Zero buckets do not travel: they follow from the cuts.
    zeros = got.bins_for(np.arange(N_FEATURES), np.zeros(N_FEATURES))
    assert np.array_equal(got.zero_bins, zeros)


def test_every_rule_of_the_parser_rejects():
    good = parse(pull(make_server(seed=2)))
    for name, frame in field_mutations(good).items():
        with pytest.raises(SketchError):
            parse(frame)
            pytest.fail(f"{name}: accepted")


@pytest.mark.parametrize(
    "lo, hi",
    [
        (PART_LO - 1, PART_LO + 3),
        (PART_LO + 3, PART_LO + N_FEATURES + 1),
        (0, 5),
        (PART_LO + 5, PART_LO + 4),
    ],
    ids=["before", "past", "elsewhere", "reversed"],
)
def test_pull_outside_the_partition_rejected(lo, hi):
    server = make_server(seed=3)
    with pytest.raises(PSError, match="candidate pull"):
        pull(server, lo, hi)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 50),
    cut=st.one_of(st.none(), st.integers(0, 400)),
    pad=st.binary(max_size=12),
    flips=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=4
    ),
)
def test_mutated_frames_never_leak_a_foreign_exception(seed, cut, pad, flips):
    """Truncation, padding and byte flips anywhere in a valid frame: the
    parser either accepts a candidate set every lookup answers, or raises
    ``SketchError``."""
    frame = bytearray(pull(make_server(seed)))
    for where, byte in flips:
        frame[where % len(frame)] = byte
    frame = bytes(frame[:cut] if cut is not None else frame) + pad
    try:
        got = parse(frame)
    except SketchError:
        return
    assert got.n_features == N_FEATURES
    assert np.all(np.diff(got.offsets) <= MAX_BINS - 1)
    values = np.linspace(-3.0, 3.0, 7)
    for f in range(N_FEATURES):
        bins = got.bins_for(np.full(len(values), f), values)
        assert np.all((0 <= bins) & (bins <= got.n_cuts(f)))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 20),
    lo=st.integers(PART_LO - 4, PART_LO + N_FEATURES + 4),
    hi=st.integers(PART_LO - 4, PART_LO + N_FEATURES + 4),
)
def test_drawn_pull_ranges_answer_or_refuse(seed, lo, hi):
    """Any requested range: a ``PSError`` when it leaves the partition,
    else the frame of exactly those features, which parses back to the
    partition proposal's slice."""
    server = make_server(seed)
    try:
        frame = pull(server, lo, hi)
    except PSError:
        assert not PART_LO <= lo <= hi <= PART_LO + N_FEATURES
        return
    whole = parse(pull(server))
    got = parse(frame, lo, hi)
    sliced = whole.feature_range(lo - PART_LO, hi - PART_LO)
    assert got.offsets.tobytes() == sliced.offsets.tobytes()
    assert got.cuts.tobytes() == sliced.cuts.tobytes()


@st.composite
def candidate_sets(draw):
    """Cuts of up to 6 features under a drawn bucket budget whose count
    width is 1, 2 or 4 bytes, all exact at float32 or not."""
    max_bins = draw(st.sampled_from([2, 6, 256, 257, 65536, 65537]))
    exact = draw(st.booleans())
    per_feature = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.integers(0, min(max_bins - 1, 8)))
        floats = st.floats(-1e6, 1e6, width=32 if exact else 64)
        cuts = np.unique(draw(st.lists(floats, min_size=n, max_size=n)))
        per_feature.append(cuts.astype(np.float64))
    counts = [len(c) for c in per_feature]
    offsets = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    cuts = np.concatenate([np.empty(0), *per_feature])
    return CandidateSet(offsets, cuts, max_bins)


def _same(a: CandidateSet, b: CandidateSet) -> bool:
    return a.offsets.tobytes() == b.offsets.tobytes() and a.cuts.tobytes() == b.cuts.tobytes()


@settings(max_examples=150, deadline=None)
@given(candidates=candidate_sets(), first=st.integers(0, 2**31 - 64))
def test_drawn_frames_round_trip_in_their_smallest_form(candidates, first):
    """Offsets and cuts come back bit for bit; the frame is 8 header
    bytes, a count of the narrowest width holding ``max_bins - 1`` per
    feature, a form byte and 4 bytes a cut when every cut is exact at
    float32, else 8.  A form byte the cuts do not admit, a truncated and
    an extended frame are a ``SketchError``; the other width of the
    cuts parses to the very same cuts (no cut) or is refused, and counts
    read at another width raise nothing but a ``SketchError``."""
    n, max_bins = candidates.n_features, candidates.max_bins
    frame = candidates.to_frame(first)
    back = CandidateSet.from_frame(frame, max_bins, first, first + n)
    assert _same(back, candidates)
    width = 1 if max_bins <= 256 else 2 if max_bins <= 65536 else 4
    exact = np.array_equal(candidates.cuts.astype(np.float32), candidates.cuts)
    cut_bytes = (4 if exact else 8) * len(candidates.cuts)
    assert len(frame) == 8 + width * n + 1 + cut_bytes
    assert len(frame) == candidate_frame_bytes(n, candidates.cuts, max_bins)
    form = 8 + width * n
    assert frame[form] == (F32 if exact else F64)

    def refused_or_same(mutated: bytes) -> None:
        try:
            got = CandidateSet.from_frame(mutated, max_bins, first, first + n)
        except SketchError:
            return
        assert _same(got, candidates)

    for code in range(256):
        mutated = frame[:form] + bytes((code,)) + frame[form + 1 :]
        if code not in (F32, F64):
            with pytest.raises(SketchError):
                CandidateSet.from_frame(mutated, max_bins, first, first + n)
        elif code != frame[form]:
            refused_or_same(mutated)
    for bins in (2, 256, 257, 65536, 65537):  # counts read at another width
        try:
            CandidateSet.from_frame(frame, bins, first, first + n)
        except SketchError:
            pass
    for mutated in (frame[:-1], frame + b"\x00", frame[:8], frame[:form]):
        with pytest.raises(SketchError):
            CandidateSet.from_frame(mutated, max_bins, first, first + n)
