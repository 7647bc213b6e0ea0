"""Tests for GK sketch wire serialization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch import GKSketch, WeightedGKSketch


class TestWireFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        sketch = GKSketch.from_values(rng.normal(size=500), eps=0.02)
        clone = GKSketch.from_bytes(sketch.to_bytes())
        assert clone.count == sketch.count
        assert clone.eps == sketch.eps
        for q in (0.1, 0.5, 0.9):
            assert clone.query(q) == sketch.query(q)

    def test_roundtrip_after_merge(self):
        rng = np.random.default_rng(1)
        a = GKSketch.from_values(rng.normal(size=300), 0.05)
        b = GKSketch.from_values(rng.normal(size=200), 0.05)
        merged = a.merge(b)
        clone = GKSketch.from_bytes(merged.to_bytes())
        assert clone.count == 500
        assert clone.query(0.5) == merged.query(0.5)

    def test_empty_sketch(self):
        sketch = GKSketch(0.1)
        clone = GKSketch.from_bytes(sketch.to_bytes())
        assert clone.count == 0
        assert len(clone) == 0

    def test_wire_bytes_matches(self):
        rng = np.random.default_rng(2)
        sketch = GKSketch.from_values(rng.normal(size=400), 0.05)
        assert sketch.wire_bytes == len(sketch.to_bytes())

    def test_wire_size_bounded_by_eps(self):
        """The sketch size, not the data size, bounds the wire bytes."""
        rng = np.random.default_rng(3)
        small = GKSketch.from_values(rng.normal(size=1_000), 0.05)
        large = GKSketch.from_values(rng.normal(size=100_000), 0.05)
        # 100x the data, similar wire footprint.
        assert large.wire_bytes < small.wire_bytes * 3

    def test_truncated_payload_rejected(self):
        sketch = GKSketch.from_values([1.0, 2.0, 3.0], 0.1)
        payload = sketch.to_bytes()
        with pytest.raises(SketchError):
            GKSketch.from_bytes(payload[:-4])
        with pytest.raises(SketchError):
            GKSketch.from_bytes(b"xx")


def _summary(weighted: bool, seed: int, n: int = 400, eps: float = 0.05):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    if weighted:
        return WeightedGKSketch.from_values(values, rng.uniform(0.1, 2.0, size=n), eps)
    return GKSketch.from_values(values, eps)


@pytest.mark.parametrize("weighted", [False, True], ids=["gk", "weighted"])
class TestParsedSummaryIsFullCitizen:
    """``from_bytes`` yields read-only views into the payload; everything a
    built summary can do, a parsed one can too, and nothing it does writes
    through to the payload or to another summary."""

    def parse(self, weighted, sketch):
        cls = WeightedGKSketch if weighted else GKSketch
        payload = sketch.to_bytes()
        return cls.from_bytes(payload), payload, bytes(bytearray(payload))

    def test_arrays_are_views_of_the_payload(self, weighted):
        parsed, payload, _ = self.parse(weighted, _summary(weighted, 0))
        assert not parsed._values.flags.writeable
        assert np.shares_memory(parsed._values, np.frombuffer(payload, np.uint8))

    def test_query_copy_reserialise(self, weighted):
        built = _summary(weighted, 1)
        parsed, payload, snapshot = self.parse(weighted, built)
        assert parsed.quantiles(19).tobytes() == built.quantiles(19).tobytes()
        assert [parsed.query(q) for q in (0.0, 0.3, 1.0)] == [
            built.query(q) for q in (0.0, 0.3, 1.0)
        ]
        assert (parsed.min_value, parsed.max_value) == (built.min_value, built.max_value)
        assert parsed.to_bytes() == payload
        clone = parsed.copy()
        assert clone.to_bytes() == payload
        assert clone._values.flags.writeable and clone._g.flags.writeable
        clone._values[0] = -1e9  # a copy owns its arrays
        clone._delta[-1] = 7
        assert parsed.to_bytes() == payload == snapshot

    def test_merge_on_either_side(self, weighted):
        a, b = _summary(weighted, 2, eps=0.004), _summary(weighted, 3, n=900, eps=0.45)
        pa, payload_a, snap_a = self.parse(weighted, a)
        pb, payload_b, snap_b = self.parse(weighted, b)
        expected = a.merge(b).to_bytes()  # coarse eps: _compress_merged fires
        assert len(a.merge(b)) < len(a) + len(b)
        for left, right in ((pa, b), (a, pb), (pa, pb)):
            merged = left.merge(right)
            assert merged.to_bytes() == expected
            merged._values[:] = 0.0  # the result owns its arrays too
            merged._g[:] = 0
            merged._delta[:] = 0
        empty = type(a)(0.05)
        for merged in (pa.merge(empty), empty.merge(pa)):
            assert merged.to_bytes()[8:] == payload_a[8:]  # all but the eps field
            merged._values[:] = 0.0
        assert (payload_a, payload_b) == (snap_a, snap_b)
        assert pa.to_bytes() == a.to_bytes() and pb.to_bytes() == b.to_bytes()


def test_insert_into_parsed_summary():
    built = _summary(False, 4, n=50, eps=0.2)
    payload = built.to_bytes()
    snapshot = bytes(bytearray(payload))
    parsed = GKSketch.from_bytes(payload)
    for value in (-10.0, 0.0, 10.0, 0.0):
        built.insert(value)
        parsed.insert(value)
    assert parsed.to_bytes() == built.to_bytes() != payload
    assert parsed.count == 54 and parsed.min_value == -10.0
    assert payload == snapshot


def _gk_frame(eps=0.1, count=3.0, values=(1.0, 2.0, 3.0), g=(1, 1, 1), delta=(0, 0, 0)):
    """A GKSketch ``to_bytes`` payload with every field under the caller's hand."""
    return b"".join(
        (
            GKSketch._HEAD.pack(eps, count, len(values)),
            np.asarray(values, dtype=np.float64),
            np.asarray(g, dtype=np.int32),
            np.asarray(delta, dtype=np.int32),
        )
    )


#: Headers and entries the parser used to believe: NaN / inf counts leaked
#: ValueError / OverflowError, the rest parsed — ``count=7`` with no entry
#: became an IndexError inside ``_answer``, mid-fit.
HOSTILE_FRAMES = {
    "count-nan": dict(count=float("nan")),
    "count-inf": dict(count=float("inf")),
    "count-negative": dict(count=-5.0),
    "count-fractional": dict(count=2.5, g=(1, 1, 0)),
    "count-without-entries": dict(count=7.0, values=(), g=(), delta=()),
    "entries-without-count": dict(count=0.0),
    "count-is-not-the-gap-sum": dict(count=4.0),
    "descending-values": dict(values=(1.0, 3.0, 2.0)),
    "nan-value": dict(values=(1.0, float("nan"), 3.0)),
    "negative-gap": dict(g=(-3, 5, 1)),
    "negative-delta": dict(delta=(0, -1, 0)),
    "eps-nan": dict(eps=float("nan")),
    "eps-too-wide": dict(eps=0.5),
}


@pytest.mark.parametrize("fields", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
def test_hostile_frame_is_a_sketch_error(fields):
    assert GKSketch.from_bytes(_gk_frame()).count == 3  # the untouched frame parses
    with pytest.raises(SketchError):
        GKSketch.from_bytes(_gk_frame(**fields))


def test_hostile_weighted_frame_is_a_sketch_error():
    good = WeightedGKSketch.from_values([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], 0.1)
    head = WeightedGKSketch._HEAD
    eps, weight, count, n = head.unpack_from(good.to_bytes())
    body = good.to_bytes()[head.size :]
    assert WeightedGKSketch.from_bytes(head.pack(eps, weight, count, n) + body).count == 3
    for hostile in (
        head.pack(eps, float("nan"), count, n),
        head.pack(eps, -1.0, count, n),
        head.pack(eps, 2.0 * weight, count, n),  # gaps no longer sum to the weight
        head.pack(eps, weight, -3, n),
        head.pack(eps, weight, 0, n),
    ):
        with pytest.raises(SketchError):
            WeightedGKSketch.from_bytes(hostile + body)
