"""Property tests for local aggregation and the wire formats it batches.

Hypothesis drives :class:`repro.ps.localagg.LocalAggregator` across
arbitrary stripe grids, feature-presence patterns, window sizes, and
codec bit-widths, asserting the windowed-push contract end to end:
batching deltas worker-side then pushing one window is
**bit-identical** on the servers to pushing every delta individually —
slab → (compressed) → decode round-trips exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simclock import SimClock
from repro.compression.lowprec import SUPPORTED_BITS
from repro.config import ClusterConfig, TrainConfig
from repro.distributed import make_backend
from repro.distributed.backends import GRAD_HIST
from repro.ps import (
    LocalAggregator,
    ParameterServerGroup,
    SlabLayout,
    SparseSlab,
    compress_slab,
)
from repro.sketch import CandidateSet
from repro.utils.rng import spawn_rng

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def layouts(draw):
    """A small histogram layout: M features, K bins, random zero bins."""
    n_features = draw(st.integers(min_value=1, max_value=6))
    n_bins = draw(st.integers(min_value=2, max_value=8))
    zero_bins = np.asarray(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_bins - 1),
                min_size=n_features,
                max_size=n_features,
            )
        ),
        dtype=np.int64,
    )
    return SlabLayout(n_features, n_bins, zero_bins)


@st.composite
def candidate_sets(draw):
    """Cuts for M features, K bins: per-feature cut lists around 0, so
    the zero buckets (a parameter-server backend's slab layout) vary."""
    n_features = draw(st.integers(min_value=1, max_value=6))
    max_bins = draw(st.integers(min_value=2, max_value=8))
    cuts = [
        sorted(
            set(draw(st.lists(st.integers(-4, 4), max_size=max_bins - 1)))
        )
        for _ in range(n_features)
    ]
    offsets = np.cumsum([0] + [len(feature) for feature in cuts])
    flat = np.asarray(
        [c + 0.5 for feature in cuts for c in feature], dtype=np.float64
    )
    return CandidateSet(offsets, flat, max_bins)


@st.composite
def stripes(draw, layout):
    """A feature stripe ``[col_lo, col_hi)`` of the layout's grid."""
    col_lo = draw(st.integers(min_value=0, max_value=layout.n_features - 1))
    col_hi = draw(
        st.integers(min_value=col_lo + 1, max_value=layout.n_features)
    )
    return col_lo, col_hi


@st.composite
def slabs(draw, layout, col_lo, col_hi):
    """An arbitrary slab over the stripe: any presence subset, any mass."""
    width = layout.feature_width
    stripe = list(range(col_lo, col_hi))
    present = sorted(
        draw(st.sets(st.sampled_from(stripe), min_size=0, max_size=len(stripe)))
    )
    values = np.asarray(
        draw(
            st.lists(
                finite_values,
                min_size=len(present) * width,
                max_size=len(present) * width,
            )
        ),
        dtype=np.float64,
    ).reshape(len(present), width)
    return SparseSlab(
        col_lo=col_lo,
        col_hi=col_hi,
        features=np.asarray(present, dtype=np.int64),
        values=values,
        sum_g=draw(finite_values),
        sum_h=draw(finite_values),
    )


def make_group(layout, n_servers=2):
    group = ParameterServerGroup(n_servers)
    group.register(
        "grad_hist",
        layout.row_length,
        align=layout.feature_width,
        layout=layout,
    )
    return group


def stored_row(group, row):
    flat, _stats = group.pull_row("grad_hist", row)
    return flat


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_windowed_pushes_match_per_delta_pushes(data):
    """A whole delta stream through the aggregator + push_window equals
    the same stream pushed delta by delta, for every window size.

    Nodes are distinct per delta, as in the engine: a tree node's
    histogram row receives exactly one delta per worker, so no row ever
    accumulates across two windows (cross-window accumulation would
    re-associate the float additions)."""
    layout = data.draw(layouts())
    col_lo, col_hi = data.draw(stripes(layout))
    n_deltas = data.draw(st.integers(min_value=1, max_value=8))
    deltas = [
        (node, data.draw(slabs(layout, col_lo, col_hi)))
        for node in range(n_deltas)
    ]
    window = data.draw(st.integers(min_value=1, max_value=n_deltas + 2))

    direct = make_group(layout)
    for token, (node, slab) in enumerate(deltas):
        direct.push_slab("grad_hist", node, slab, seq=(0, token))

    windowed = make_group(layout)
    aggregator = LocalAggregator(window)
    for node, slab in deltas:
        if aggregator.add(node, slab):
            index, entries = aggregator.drain()
            windowed.push_window("grad_hist", entries, seq=(0, index, 0))
    index, entries = aggregator.drain()
    if entries:
        windowed.push_window("grad_hist", entries, seq=(0, index, 0))

    for node in {node for node, _slab in deltas}:
        np.testing.assert_array_equal(
            stored_row(direct, node), stored_row(windowed, node)
        )


@given(data=st.data(), bits=st.sampled_from(SUPPORTED_BITS))
@settings(max_examples=60, deadline=None)
def test_compressed_window_decode_is_deterministic(data, bits):
    """compress → decode is a pure function of the wire payload: two
    servers receiving the same compressed window store identical bits,
    whatever the bit-width."""
    layout = data.draw(layouts())
    col_lo, col_hi = data.draw(stripes(layout))
    slab = data.draw(slabs(layout, col_lo, col_hi))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    wire = compress_slab(slab, layout, bits, spawn_rng(seed, "lowprec", 0, 0, 0))

    first = make_group(layout)
    first.push_window("grad_hist", [(0, wire)], seq=(0, 0, 0))
    second = make_group(layout)
    second.push_window("grad_hist", [(0, wire)], seq=(0, 0, 0))
    np.testing.assert_array_equal(stored_row(first, 0), stored_row(second, 0))


@given(data=st.data(), bits=st.sampled_from(SUPPORTED_BITS))
@settings(max_examples=60, deadline=None)
def test_closed_form_mass_survives_compression_exactly(data, bits):
    """A slab whose residual is zero (all mass in the zero-bucket
    closed form) compresses to an exactly-restoring payload: the codec
    moves only residuals, the header sums stay full-precision floats."""
    layout = data.draw(layouts())
    col_lo, col_hi = data.draw(stripes(layout))
    width = layout.feature_width
    sum_g = data.draw(finite_values)
    sum_h = data.draw(finite_values)
    present = np.arange(col_lo, col_hi, dtype=np.int64)
    values = np.zeros((present.size, width), dtype=np.float64)
    rows = np.arange(present.size)
    values[rows, layout.zero_bins[present]] = sum_g
    values[rows, layout.n_bins + layout.zero_bins[present]] = sum_h
    slab = SparseSlab(
        col_lo=col_lo,
        col_hi=col_hi,
        features=present,
        values=values,
        sum_g=sum_g,
        sum_h=sum_h,
    )
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    wire = compress_slab(slab, layout, bits, np.random.default_rng(seed))

    exact = make_group(layout)
    exact.push_slab("grad_hist", 0, slab, seq=(0, 0))
    decoded = make_group(layout)
    decoded.push_window("grad_hist", [(0, wire)], seq=(0, 0, 0))
    np.testing.assert_array_equal(stored_row(exact, 0), stored_row(decoded, 0))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_size_never_changes_stored_bits(data):
    """Any two window sizes store identical bits for the same stream —
    the knob is pure communication scheduling.  Nodes are distinct per
    delta (the engine's shape; see above)."""
    layout = data.draw(layouts())
    col_lo, col_hi = data.draw(stripes(layout))
    n_deltas = data.draw(st.integers(min_value=1, max_value=6))
    deltas = [
        (node, data.draw(slabs(layout, col_lo, col_hi)))
        for node in range(n_deltas)
    ]
    w1 = data.draw(st.integers(min_value=1, max_value=n_deltas))
    w2 = data.draw(st.integers(min_value=1, max_value=n_deltas))

    def run(window):
        group = make_group(layout)
        aggregator = LocalAggregator(window)
        for node, slab in deltas:
            if aggregator.add(node, slab):
                index, entries = aggregator.drain()
                group.push_window("grad_hist", entries, seq=(0, index, 0))
        index, entries = aggregator.drain()
        if entries:
            group.push_window("grad_hist", entries, seq=(0, index, 0))
        return {
            node: stored_row(group, node)
            for node in {node for node, _slab in deltas}
        }

    first, second = run(w1), run(w2)
    assert first.keys() == second.keys()
    for node, flat in first.items():
        np.testing.assert_array_equal(flat, second[node])


def billed_backend(candidates, system, bits, agg_window, n_workers, n_servers):
    """A parameter-server backend at ``agg_window``, opened on tree 0, and
    the bytes its group's push calls bill, by call name."""
    config = TrainConfig(compression_bits=bits, agg_window=agg_window)
    cluster = ClusterConfig(n_workers=n_workers, n_servers=n_servers)
    backend = make_backend(system, cluster, config, candidates)
    group = backend.group
    billed = dict.fromkeys(
        ("push_row", "push_window_rows", "push_slab", "push_window"), 0
    )
    for name in billed:
        push = getattr(group, name)

        def counted(*args, _name=name, _push=push, **kwargs):
            stats = _push(*args, **kwargs)
            billed[_name] += stats.bytes_up
            return stats

        setattr(group, name, counted)
    backend.begin_tree(0)
    return backend, billed


def draw_ps_system(data, bits):
    """DimBoost when the codec is on (only it quantizes), else either."""
    if bits:
        return "dimboost"
    return data.draw(st.sampled_from(("dimboost", "tencentboost")))


@given(
    data=st.data(),
    bits=st.sampled_from((0, *SUPPORTED_BITS)),
    window=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_dense_windows_match_per_delta_row_pushes(data, bits, window):
    """A windowed PS backend's ``aggregate_node`` stores the bits its
    per-delta ``push_row`` deliveries (W=1) store, and bills their bytes
    plus 4 bytes of row id per piece — at every codec width,
    uncompressed included."""
    candidates = data.draw(candidate_sets())
    system = draw_ps_system(data, bits)
    n_servers = data.draw(st.integers(min_value=1, max_value=3))
    n_workers = data.draw(st.integers(min_value=1, max_value=3))
    n_nodes = data.draw(st.integers(min_value=1, max_value=6))
    values = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    scale = 10.0 ** data.draw(st.integers(min_value=-6, max_value=6))
    row_length = 2 * candidates.n_features * candidates.max_bins
    flats = [
        [values.normal(size=row_length) * scale for _w in range(n_workers)]
        for _node in range(n_nodes)
    ]
    # Each delta's exact node sums, the header of a lossy piece.
    sums = [
        [
            (float(values.normal() * scale), float(values.random() * scale))
            for _w in range(n_workers)
        ]
        for _node in range(n_nodes)
    ]

    def run(agg_window):
        backend, billed = billed_backend(
            candidates, system, bits, agg_window, n_workers, n_servers
        )
        clock = SimClock()
        for node, per_worker in enumerate(flats):
            backend.aggregate_node(
                node, [flat.copy() for flat in per_worker], clock, sums[node]
            )
        backend.flush(clock)
        return backend.group, billed

    direct, direct_billed = run(1)
    windowed, windowed_billed = run(window)
    n_pieces = n_nodes * n_workers * direct.partitioner(GRAD_HIST).n_partitions
    row_ids = 4 * n_pieces if window > 1 else 0
    assert sum(windowed_billed.values()) == direct_billed["push_row"] + row_ids
    assert sum(direct_billed.values()) == direct_billed["push_row"]
    for node in range(n_nodes):
        stored = stored_row(windowed, node)
        assert stored_row(direct, node).tobytes() == stored.tobytes()


@given(
    data=st.data(),
    bits=st.sampled_from((0, *SUPPORTED_BITS)),
    window=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_slab_windows_match_per_delta_slab_pushes(data, bits, window):
    """The grid twin: a windowed PS backend's ``aggregate_node_slabs``
    stores the bits of its per-delta ``push_slab`` deliveries (W=1), and
    bills their bytes plus 4 bytes of row id per windowed entry — one
    entry per (slab, partition its stripe overlaps)."""
    candidates = data.draw(candidate_sets())
    system = draw_ps_system(data, bits)
    layout = SlabLayout(
        candidates.n_features, candidates.max_bins, candidates.zero_bins
    )
    n_servers = data.draw(st.integers(min_value=1, max_value=3))
    n_workers = data.draw(st.integers(min_value=1, max_value=3))
    n_nodes = data.draw(st.integers(min_value=1, max_value=6))
    stripe_of = [data.draw(stripes(layout)) for _w in range(n_workers)]
    deltas = [
        [
            (worker, data.draw(slabs(layout, *stripe)))
            for worker, stripe in enumerate(stripe_of)
        ]
        for _node in range(n_nodes)
    ]

    def run(agg_window):
        backend, billed = billed_backend(
            candidates, system, bits, agg_window, n_workers, n_servers
        )
        clock = SimClock()
        for node, per_worker in enumerate(deltas):
            backend.aggregate_node_slabs(node, per_worker, clock)
        backend.flush(clock)
        return backend.group, billed

    direct, direct_billed = run(1)
    windowed, windowed_billed = run(window)
    width = layout.feature_width
    partitioner = direct.partitioner(GRAD_HIST)
    n_entries = n_nodes * sum(
        len(partitioner.partitions_in_range(lo * width, hi * width))
        for lo, hi in stripe_of
    )
    row_ids = 4 * n_entries if window > 1 else 0
    assert sum(windowed_billed.values()) == direct_billed["push_slab"] + row_ids
    assert sum(direct_billed.values()) == direct_billed["push_slab"]
    for node in range(n_nodes):
        stored = stored_row(windowed, node)
        assert stored_row(direct, node).tobytes() == stored.tobytes()


@given(
    window=st.integers(min_value=1, max_value=5),
    n_deltas=st.integers(min_value=0, max_value=12),
)
def test_aggregator_window_accounting(window, n_deltas):
    """``add`` reports fullness exactly at multiples of the window and
    ``drain`` numbers windows densely from zero.  Nodes are distinct per
    delta, the engine's shape."""
    aggregator = LocalAggregator(window)
    empty = SparseSlab(
        col_lo=0,
        col_hi=2,
        features=np.empty(0, dtype=np.int64),
        values=np.empty((0, 6), dtype=np.float64),
        sum_g=0.0,
        sum_h=0.0,
    )
    drained = []
    for i in range(n_deltas):
        full = aggregator.add(i, empty)
        assert full == (aggregator.pending >= window)
        if full:
            index, entries = aggregator.drain()
            drained.append(index)
            assert entries
            assert aggregator.pending == 0
    assert drained == list(range(len(drained)))
    index, entries = aggregator.drain()
    if entries:
        assert index == len(drained)
    else:
        # An empty drain consumes no window index.
        assert index == len(drained)
        assert aggregator.windows_flushed == len(drained)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
