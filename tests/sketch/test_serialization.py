"""Summaries on the wire: frames of one, in the one sketch format."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.errors import SketchError
from repro.sketch import GKSketch, SketchBatch, WeightedGKSketch
from repro.sketch.wire import F64, I64

from . import frame_of


def parse(payload: bytes):
    """The one summary a frame carries."""
    (summary,) = SketchBatch.from_frame(payload)
    return summary


class TestWireFormat:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        sketch = GKSketch.from_values(rng.normal(size=500), eps=0.02)
        clone = parse(frame_of(sketch))
        assert clone.count == sketch.count
        assert clone.eps == sketch.eps
        for q in (0.1, 0.5, 0.9):
            assert clone.query(q) == sketch.query(q)

    def test_roundtrip_after_merge(self):
        rng = np.random.default_rng(1)
        a = GKSketch.from_values(rng.normal(size=300), 0.05)
        b = GKSketch.from_values(rng.normal(size=200), 0.05)
        merged = a.merge(b)
        clone = parse(frame_of(merged))
        assert clone.count == 500
        assert clone.query(0.5) == merged.query(0.5)

    def test_empty_sketch(self):
        sketch = GKSketch(0.1)
        clone = parse(frame_of(sketch))
        assert clone.count == 0
        assert len(clone) == 0

    def test_wire_bytes_matches(self):
        """Sent and billed: the 5-byte frame head, then a form byte a
        column — feature id 0 and entry count 11 in a byte each, eps
        once, count 400 in two bytes, 11 float64 values, 11 gaps of at
        most 40 in a byte each, and no delta (all zero)."""
        rng = np.random.default_rng(2)
        sketch = GKSketch.from_values(rng.normal(size=400), 0.05)
        assert len(sketch) == 11 and sketch._one.g.max() == 40
        head = 5 + (1 + 1) + (1 + 1) + (1 + 8) + (1 + 2)
        assert len(frame_of(sketch)) == head + (1 + 8 * 11) + (1 + 11) + 1 == 123

    def test_wire_size_bounded_by_eps(self):
        """The sketch size, not the data size, bounds the wire bytes."""
        rng = np.random.default_rng(3)
        small = GKSketch.from_values(rng.normal(size=1_000), 0.05)
        large = GKSketch.from_values(rng.normal(size=100_000), 0.05)
        billed = [len(frame_of(s)) for s in (small, large)]
        # 100x the data, similar wire footprint.
        assert billed[1] < billed[0] * 3

    def test_truncated_payload_rejected(self):
        sketch = GKSketch.from_values([1.0, 2.0, 3.0], 0.1)
        payload = frame_of(sketch)
        with pytest.raises(SketchError):
            SketchBatch.from_frame(payload[:-4])
        with pytest.raises(SketchError):
            SketchBatch.from_frame(b"xx")


def _summary(weighted: bool, seed: int, n: int = 400, eps: float = 0.05):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n)
    if weighted:
        return WeightedGKSketch.from_values(values, rng.uniform(0.1, 2.0, size=n), eps)
    return GKSketch.from_values(values, eps)


@pytest.mark.parametrize("weighted", [False, True], ids=["gk", "weighted"])
class TestParsedSummaryIsFullCitizen:
    """A summary out of a parsed frame is a read-only view into the
    payload; everything a built summary can do, a parsed one can too, and
    nothing it does writes through to the payload or to another summary."""

    def parse(self, sketch):
        payload = frame_of(sketch)
        return parse(payload), payload, bytes(bytearray(payload))

    def test_arrays_are_views_of_the_payload(self, weighted):
        parsed, payload, _ = self.parse(_summary(weighted, 0))
        values = parsed._one.values
        assert not values.flags.writeable
        assert np.shares_memory(values, np.frombuffer(payload, np.uint8))

    def test_query_copy_reserialise(self, weighted):
        built = _summary(weighted, 1)
        parsed, payload, snapshot = self.parse(built)
        assert parsed.quantiles(19).tobytes() == built.quantiles(19).tobytes()
        assert [parsed.query(q) for q in (0.0, 0.3, 1.0)] == [
            built.query(q) for q in (0.0, 0.3, 1.0)
        ]
        assert (parsed.min_value, parsed.max_value) == (built.min_value, built.max_value)
        assert frame_of(parsed) == payload
        clone = parsed.copy()
        assert frame_of(clone) == payload
        own = clone._one
        assert own.values.flags.writeable and own.g.flags.writeable
        own.values[0] = -1e9  # a copy owns its arrays
        own.delta[-1] = 7
        assert frame_of(parsed) == payload == snapshot

    def test_merge_on_either_side(self, weighted):
        a, b = _summary(weighted, 2, eps=0.004), _summary(weighted, 3, n=900, eps=0.45)
        pa, payload_a, snap_a = self.parse(a)
        pb, payload_b, snap_b = self.parse(b)
        expected = frame_of(a.merge(b))  # coarse eps: _compress_merged fires
        assert len(a.merge(b)) < len(a) + len(b)
        for left, right in ((pa, b), (a, pb), (pa, pb)):
            merged = left.merge(right)
            assert frame_of(merged) == expected
            merged._one.values[:] = 0.0  # the result owns its arrays too
            merged._one.g[:] = 0
            merged._one.delta[:] = 0
        empty = type(a)(0.05)
        # After the frame head, the one-byte id and entry count columns,
        # and the eps column's form byte.
        eps_column = slice(10, 18)
        for merged in (pa.merge(empty), empty.merge(pa)):
            frame = bytearray(frame_of(merged))
            frame[eps_column] = payload_a[eps_column]
            assert bytes(frame) == payload_a  # all but the eps
            merged._one.values[:] = 0.0
        assert (payload_a, payload_b) == (snap_a, snap_b)
        assert frame_of(pa) == frame_of(a) and frame_of(pb) == frame_of(b)


def _column(xs, form: int) -> bytes:
    """One frame column in its general form: a form byte, then int64 or
    float64 elements."""
    dtype = np.float64 if form == F64 else np.int64
    return bytes((form,)) + np.asarray(xs, dtype=dtype).tobytes()


def _frame(tag: int, eps, count, values, g, delta, mass=None) -> bytes:
    """A frame of one summary with every field under the caller's hand,
    each column in its general form: frame head, feature id and entry
    count, eps, count (float64 when the caller passes a float — a form
    no count admits), the weight of a weighted summary, the entries."""
    rank = F64 if mass is not None else I64
    return b"".join(
        (
            struct.pack("=Bi", tag, 1),
            _column([0], I64),
            _column([len(values)], I64),
            _column([eps], F64),
            _column([count], F64 if isinstance(count, float) else I64),
            b"" if mass is None else _column([mass], F64),
            _column(values, F64),
            _column(g, rank),
            _column(delta, rank),
        )
    )


def _gk_frame(eps=0.1, count=3, values=(1.0, 2.0, 3.0), g=(1, 1, 1), delta=(0, 0, 0)):
    """A GK frame of one summary (see :func:`_frame`)."""
    return _frame(0, eps, count, values, g, delta)


#: Headers and entries the parser used to believe: NaN / inf counts leaked
#: ValueError / OverflowError, the rest parsed — ``count=7`` with no entry
#: became an IndexError inside a quantile query, mid-fit.  A count now
#: travels as an integer: a float one (NaN, inf, 2.5) is a form no count
#: admits.
HOSTILE_FRAMES = {
    "count-nan": dict(count=float("nan")),
    "count-inf": dict(count=float("inf")),
    "count-negative": dict(count=-5),
    "count-fractional": dict(count=2.5, g=(1, 1, 0)),
    "count-without-entries": dict(count=7, values=(), g=(), delta=()),
    "entries-without-count": dict(count=0),
    "count-is-not-the-gap-sum": dict(count=4),
    "descending-values": dict(values=(1.0, 3.0, 2.0)),
    "nan-value": dict(values=(1.0, float("nan"), 3.0)),
    "negative-gap": dict(g=(-3, 5, 1)),
    "negative-delta": dict(delta=(0, -1, 0)),
    "eps-nan": dict(eps=float("nan")),
    "eps-too-wide": dict(eps=0.5),
}


@pytest.mark.parametrize("fields", HOSTILE_FRAMES.values(), ids=HOSTILE_FRAMES.keys())
def test_hostile_frame_is_a_sketch_error(fields):
    assert parse(_gk_frame()).count == 3  # the untouched frame parses
    with pytest.raises(SketchError):
        SketchBatch.from_frame(_gk_frame(**fields))


def test_hostile_weighted_frame_is_a_sketch_error():
    good = WeightedGKSketch.from_values([1.0, 2.0, 3.0], [0.5, 1.0, 1.5], 0.1)
    one = good._one

    def frame(weight, count):
        return _frame(1, good.eps, count, one.values, one.g, one.delta, mass=weight)

    weight, count = good.total_weight, good.count
    (back,) = SketchBatch.from_frame(frame(weight, count))
    assert frame_of(back) == frame_of(good) and back.count == 3
    for hostile in (
        frame(float("nan"), count),
        frame(-1.0, count),
        frame(2.0 * weight, count),  # gaps no longer sum to the weight
        frame(weight, -3),
        frame(weight, 0),
        frame(weight, 3.0),  # a float count
    ):
        with pytest.raises(SketchError):
            SketchBatch.from_frame(hostile)
