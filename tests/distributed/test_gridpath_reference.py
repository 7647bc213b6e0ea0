"""Differential oracle: the PR 21 grid path vs its frozen predecessor.

``tests/_reference_gridpath.py`` holds the loops as they stood at
``a9eaa3f``: the sorted present set and the gathering ``slab_from_flat``,
the whole-slab decode and the dense server add, the per-feature sketch
chain.  Hypothesis drives both through the same blocks, slabs and
summaries and demands the same *bytes* — ``tobytes()`` equality, which is
``array_equal`` plus equal sign bits — and the same billed wire bytes (a
compressed share's levels at the length of the smaller real message
``tests/_reference_rowpath.py::serialize_levels`` builds).

Gradients mix a continuous draw with exact zeros of both signs, so a node
sum of ``-0.0`` and zero-valued buckets are inside the equality too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig, TrainConfig
from repro.datasets import Dataset
from repro.datasets.sparse import CSRMatrix
from repro.distributed.engine import DistributedGBDT, _GridFit
from repro.histogram.builder import build_node_histogram_sparse
from repro.histogram.index import NodeInstanceIndex
from repro.ps import ParameterServerGroup
from repro.ps.slab import CompressedSlab, SlabLayout, compress_slab
from repro.runtime.phases import WorkerTimer
from repro.sketch import (
    CandidateSet,
    propose_candidates_from_sketches,
    sketch_columns,
    sketch_columns_weighted,
)

from .. import _reference_gridpath as ref
from .. import _reference_rowpath as ref_rowpath
from ..ps import stored_summaries
from ..sketch import _reference_gk as ref_gk
from ..sketch import summary_fields


def same_bits(new: np.ndarray, old: np.ndarray) -> bool:
    return new.shape == old.shape and new.dtype == old.dtype and new.tobytes() == old.tobytes()


@st.composite
def grids(draw):
    """A small dataset cut into an R x C grid, gradients, and three nodes:
    the root and the two halves of a random split (one may be empty)."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(2, 24))
    n_cols = draw(st.integers(2, 12))
    fill = draw(st.sampled_from(["sparse", "dense", "full", "first_stripe_only"]))
    density = {"sparse": 0.15, "dense": 0.6, "full": 1.0, "first_stripe_only": 0.5}[fill]
    mask = rng.random((n_rows, n_cols)) < density
    grid_cols = draw(st.integers(1, min(3, n_cols)))
    if fill == "first_stripe_only" and grid_cols > 1:
        mask[:, n_cols // grid_cols :] = False  # nodes with no nonzero in a stripe
    mask[0, 0] = True
    rows, cols = np.nonzero(mask)
    data = rng.normal(size=len(rows)).astype(np.float32)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(np.int64)
    X = CSRMatrix(indptr, cols.astype(np.int32), data, (n_rows, n_cols))
    y = (rng.random(n_rows) < 0.5).astype(np.float64)
    grid_rows = draw(st.integers(1, min(2, n_rows)))
    n_bins = draw(st.sampled_from([3, 4, 5, 8]))
    trainer = DistributedGBDT(
        "dimboost",
        ClusterConfig(
            n_workers=grid_rows * grid_cols, n_servers=2, grid=(grid_rows, grid_cols)
        ),
        TrainConfig(
            n_trees=1, max_depth=3, n_split_candidates=n_bins, compression_bits=0
        ),
    )
    strategy = _GridFit(trainer.plan, (), Dataset(X, y, "drawn"))
    strategy.bin(strategy.sketch())
    grads, hesses, indexes = [], [], []
    split = draw(st.sampled_from(["random", "all_left", "all_right"]))
    for raw in strategy.raws:
        g = rng.normal(size=len(raw))
        zeroed = rng.random(len(raw)) < 0.3
        g[zeroed] = rng.choice([0.0, -0.0], size=int(zeroed.sum()))
        grads.append(g)
        hesses.append(rng.uniform(0.05, 1.0, size=len(raw)))
        index = NodeInstanceIndex(len(raw), 7)
        goes_left = {
            "random": rng.random(len(raw)) < 0.5,
            "all_left": np.ones(len(raw), dtype=bool),
            "all_right": np.zeros(len(raw), dtype=bool),
        }[split]
        index.split(0, goes_left)
        indexes.append(index)
    return strategy, indexes, grads, hesses, rng


def reference_slabs(strategy, indexes, grads, hesses, node):
    """``(wid, col_lo, col_hi, features, values, sum_g, sum_h)`` per block."""
    grid_rows, grid_cols = strategy.grid
    out = []
    for r in range(grid_rows):
        rows = indexes[r].rows_of(node)
        sum_g, sum_h = float(grads[r][rows].sum()), float(hesses[r][rows].sum())
        for c in range(grid_cols):
            wid = r * grid_cols + c
            shard = strategy.shards[wid]
            histogram = build_node_histogram_sparse(shard, rows, grads[r], hesses[r])
            col_lo, col_hi = (int(b) for b in strategy.col_boundaries[c : c + 2])
            features, values = ref.slab_from_flat(
                histogram.to_flat_feature_major(),
                ref.present_features(shard, rows),
                col_lo,
                col_hi,
                shard.n_bins,
            )
            out.append((wid, col_lo, col_hi, features, values, sum_g, sum_h))
    return out


@settings(max_examples=60, deadline=None)
@given(
    drawn=grids(),
    bits=st.sampled_from([0, 2, 4, 8, 16]),
    wide_block=st.booleans(),
    per_stripe=st.integers(1, 4),
    delivery=st.sampled_from(["single", "single_reversed", "window", "window_reversed"]),
)
def test_slabs_and_server_fold_match_reference(
    drawn, bits, wide_block, per_stripe, delivery
):
    strategy, indexes, grads, hesses, rng = drawn
    n_features, n_bins = strategy.n_features, strategy.shards[0].n_bins
    width = 2 * n_bins
    layout = SlabLayout(n_features, n_bins, strategy.backend.candidates.zero_bins)
    block = width if wide_block else n_bins
    nodes = (0, 1, 2)

    # --- worker side: present set + slab_from_flat -------------------
    new_slabs = {
        node: strategy._build_node_slabs(
            indexes, grads, hesses, node, WorkerTimer(strategy.cluster.n_workers)
        )
        for node in nodes
    }
    old_slabs = {
        node: reference_slabs(strategy, indexes, grads, hesses, node) for node in nodes
    }
    for node in nodes:
        assert len(new_slabs[node]) == len(old_slabs[node])
        for (wid, slab), old in zip(new_slabs[node], old_slabs[node]):
            old_wid, col_lo, col_hi, features, values, sum_g, sum_h = old
            assert (wid, slab.col_lo, slab.col_hi) == (old_wid, col_lo, col_hi)
            assert same_bits(slab.features, features)
            assert same_bits(slab.values, values)
            assert (slab.sum_g, slab.sum_h) == (sum_g, sum_h)

    # --- wire: one encode per slab, shared by both sides --------------
    def wire(slab):
        if not bits:
            return slab
        seed = int(rng.integers(0, 2**31 - 1))
        return compress_slab(slab, layout, bits, np.random.default_rng(seed), block)

    wired = {
        node: [(wid, wire(slab)) for wid, slab in new_slabs[node]] for node in nodes
    }
    n_partitions = min(n_features, per_stripe * strategy.grid[1])
    group = ParameterServerGroup(2)
    partitioner = group.register(
        "hist", layout.row_length, n_partitions=n_partitions, align=width, layout=layout
    )
    windowed = delivery.startswith("window")
    workers = range(strategy.cluster.n_workers)
    order = list(reversed(workers)) if delivery.endswith("reversed") else list(workers)
    billed = 0
    pushes: list[tuple[int, object]] = []  # (node, wire slab) in arrival order
    for wid in order:
        mine = [(node, slab) for node in nodes for w, slab in wired[node] if w == wid]
        if windowed:
            billed += group.push_window("hist", mine, seq=(0, 0, wid), worker=wid).bytes_up
        else:
            for node, slab in mine:
                billed += group.push_slab(
                    "hist", node, slab, seq=(0, wid), worker=wid
                ).bytes_up
        pushes.extend(mine)

    # --- reference servers: whole decode, dense add -------------------
    stored: dict[tuple[int, int], np.ndarray] = {}
    old_billed = 0
    if bits:
        # Scales per feature; the share's levels are one message, billed
        # at the length of the smaller real serialization below.
        per_feature = (width // block) * 4
    else:
        per_feature = width * 4
    for node, slab in pushes:
        if isinstance(slab, CompressedSlab):
            features, values = ref.to_sparse(slab, layout)
        else:
            features, values = slab.features, slab.values
        for part in partitioner.partitions:
            f_lo, f_hi = part.lo // width, part.hi // width
            share = ref.presence_wire_bytes_for(
                slab.col_lo, slab.col_hi, features, per_feature, f_lo, f_hi
            )
            if share == 0:
                continue
            if bits:
                first, last = np.searchsorted(
                    features, [max(f_lo, slab.col_lo), min(f_hi, slab.col_hi)]
                )
                share += len(
                    ref_rowpath.serialize_levels(
                        slab.blocked.payload, bits, first * width, last * width
                    )
                )
            old_billed += share + (4 if windowed else 0)
            contrib = ref.materialize_slab(
                layout, slab.col_lo, slab.col_hi, features, values,
                slab.sum_g, slab.sum_h, f_lo, f_hi, part.length,
            )
            key = (node, part.partition_id)
            stored[key] = ref.fold(stored.get(key), contrib)

    assert billed == old_billed
    for node in nodes:
        row, _ = group.pull_row("hist", node)
        for part in partitioner.partitions:
            old = stored.get((node, part.partition_id), np.zeros(part.length))
            assert same_bits(row[part.lo : part.hi], old)


@st.composite
def sketch_grids(draw):
    """R x C blocks of one random matrix, as CSR arrays per worker."""
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    grid_rows = draw(st.sampled_from([1, 2, 3, 8]))
    n_cols = draw(st.integers(1, 10))
    grid_cols = draw(st.integers(1, min(2, n_cols)))
    col_bounds = np.linspace(0, n_cols, grid_cols + 1).astype(np.int64)
    # Busy columns outgrow _max_entries down the grid rows, thin ones do
    # not, and some are empty in a band — or in every band.
    busy = rng.random(n_cols)
    busy[rng.random(n_cols) < 0.2] = 0.0
    workers = []
    for _ in range(grid_rows):
        n_rows = int(rng.integers(1, 60))
        mask = rng.random((n_rows, n_cols)) < busy
        values = rng.choice(
            np.array([-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 3.0], dtype=np.float32),
            size=mask.shape,
        )
        smooth = rng.normal(size=mask.shape).astype(np.float32)
        values = np.where(rng.random(n_cols) < 0.5, values, smooth)
        weights = rng.uniform(0.0, 2.0, size=n_rows) * (rng.random(n_rows) > 0.2)
        for c in range(grid_cols):
            lo, hi = col_bounds[c], col_bounds[c + 1]
            rows, cols = np.nonzero(mask[:, lo:hi])
            indptr = np.concatenate(([0], np.cumsum(mask[:, lo:hi].sum(axis=1))))
            csr = (
                indptr.astype(np.int64),
                cols.astype(np.int32),
                values[:, lo:hi][rows, cols],
                int(hi - lo),
            )
            workers.append((int(lo), csr, weights))
    return n_cols, workers


@settings(max_examples=60, deadline=None)
@given(
    drawn=sketch_grids(),
    weighted=st.booleans(),
    eps=st.sampled_from([0.05, 0.2, 0.45]),
    n_partitions=st.integers(1, 4),
    max_bins=st.sampled_from([2, 5, 21]),
    replay=st.booleans(),
    stripe_cuts=st.sets(st.integers(1, 9), max_size=3),
    halve=st.booleans(),
)
def test_sketch_chain_matches_reference(
    drawn, weighted, eps, n_partitions, max_bins, replay, stripe_cuts, halve
):
    n_features, workers = drawn
    group = ParameterServerGroup(2)
    partitioner = group.register(
        "sketch", n_features, n_partitions=min(n_partitions, n_features)
    )
    old_servers = ref.PerFeatureSketchServers(partitioner)
    for wid, (col_lo, csr, weights) in enumerate(workers):
        if weighted:
            try:
                old = ref_gk.sketch_columns_weighted(*csr, weights, eps)
            except IndexError:  # the reference sampler's known overrun
                assume(False)
            new = sketch_columns_weighted(*csr, weights, eps)
        else:
            old, new = ref_gk.sketch_columns(*csr, eps), sketch_columns(*csr, eps)
        for _ in range(2 if replay and wid == 0 else 1):
            stats = group.push_sketch(
                "sketch", new.shifted(col_lo), seq=("sketch", wid), worker=wid
            )
            pushed = {col_lo + f: sk for f, sk in enumerate(old)}
            _, old_messages = old_servers.push_sketch(pushed, seq=("sketch", wid))
            assert (stats.bytes_up, stats.messages) == (
                ref.sketch_push_bytes(partitioner, pushed, weighted),
                old_messages,
            )
    assert (
        sum(s.duplicate_pushes for s in group.servers) == old_servers.duplicate_pushes
    )

    # Summary level, read off the servers' stored batches.
    merged = stored_summaries(group)
    old_merged, _ = old_servers.pull_sketches()
    assert merged.features.tolist() == sorted(old_merged)
    assert len(merged.to_frame()) == ref.sketch_frame_bytes(
        sorted(old_merged), [old_merged[f] for f in sorted(old_merged)], weighted
    )
    assert [summary_fields(s) for s in merged] == [
        summary_fields(old_merged[f]) for f in sorted(old_merged)
    ]
    # _compress_merged fired for some summaries of some draws, not others:
    # both regimes are inside the equality above.
    new_cuts = propose_candidates_from_sketches(merged, max_bins)
    offsets, cuts = ref_gk.propose_candidates_from_sketches(
        [old_merged[f] for f in range(n_features)], max_bins
    )
    assert same_bits(new_cuts.offsets, offsets) and same_bits(new_cuts.cuts, cuts)

    # Candidate level: the servers propose per partition, workers pull
    # drawn stripes — some cutting a partition in half — and the joined
    # stripes are the frozen proposal over the per-feature merge.
    bounds = {0, n_features} | {c for c in stripe_cuts if c < n_features}
    wide = [p for p in partitioner.partitions if p.length >= 2]
    if halve and wide:
        bounds.add((wide[0].lo + wide[0].hi) // 2)
    bounds = sorted(bounds)
    stripes = []
    for wid, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
        stripe, pull_stats = group.pull_sketches(
            "sketch", lo, hi, max_bins, worker=wid
        )
        stripes.append(stripe)
        assert (pull_stats.bytes_down, pull_stats.messages) == (
            ref.candidate_frame_pull_bytes(partitioner, offsets, cuts, max_bins, lo, hi)
        )
    joined = CandidateSet.concat(stripes, max_bins)
    assert same_bits(joined.offsets, offsets) and same_bits(joined.cuts, cuts)
