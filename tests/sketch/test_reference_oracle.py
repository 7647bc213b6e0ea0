"""Differential oracle: array-backed summaries vs the frozen list-backed ones.

``_reference_gk`` is the implementation as it stood before summaries
moved to ndarray storage.  Hypothesis drives both through the same
construction, merge-chain, query and candidate-assembly inputs and
demands the same *bytes*: the ``(eps, count, mass, values, g, delta)``
arrays of every summary and the bytes the cost model bills for it, the
``quantiles`` arrays, and the ``(offsets, cuts, zero_bins)`` of every
candidate set.

Two places where the reference is not a usable oracle, both pinned
below rather than papered over:

* its weighted sampler indexes one past the end when float rounding puts
  the last ``np.arange`` threshold at or above the total weight
  (``IndexError``); the rewrite clips to the maximum.  Such draws are
  skipped.
* among cuts that compare equal but differ in bits (``-0.0`` / ``0.0``)
  it kept whichever an unstable sort inside ``np.unique`` put first —
  machine-dependent.  The rewrite keeps the first in value order; cuts
  are compared with the zero sign normalised whenever the input holds a
  negative zero, bit for bit otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.datasets.sparse import CSRMatrix
from repro.sketch import (
    CandidateSet,
    GKSketch,
    SketchBatch,
    WeightedGKSketch,
    propose_candidates,
    propose_candidates_from_sketches,
    sketch_columns,
    sketch_columns_weighted,
)

from . import _reference_gk as ref
from . import frame_of, summary_fields

EPS = st.sampled_from([0.004, 0.01, 0.05, 0.2, 0.45])
#: Few distinct values, both signs, both zeros: duplicate-heavy and signed.
LUMPY = st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0])
SMOOTH = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=32)
WEIGHT = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def batches(draw, max_size=120):
    """Values for one summary: empty, lumpy, smooth, or large enough that a
    merge chain overflows ``_max_entries`` (so ``_compress_merged`` fires)."""
    kind = draw(st.sampled_from(["empty", "lumpy", "smooth", "large"]))
    if kind == "empty":
        return np.empty(0, dtype=np.float64)
    if kind == "large":
        n = draw(st.integers(min_value=200, max_value=1500))
        seed = draw(st.integers(min_value=0, max_value=2**16))
        return np.random.default_rng(seed).normal(size=n)
    elements = LUMPY if kind == "lumpy" else SMOOTH
    return np.asarray(
        draw(st.lists(elements, min_size=1, max_size=max_size)), dtype=np.float64
    )


@st.composite
def weighted_batches(draw):
    values = draw(batches())
    weights = draw(
        st.lists(WEIGHT, min_size=len(values), max_size=len(values))
        if len(values) <= 120
        else st.just(None)
    )
    if weights is None:
        seed = draw(st.integers(min_value=0, max_value=2**16))
        weights = np.random.default_rng(seed).uniform(0.0, 2.0, size=len(values))
    return values, np.asarray(weights, dtype=np.float64)


def build_pair(values, eps, weights=None):
    """(reference, rewrite) summaries of one batch; None if the reference
    trips over its own threshold overrun."""
    if weights is None:
        return ref.GKSketch.from_values(values, eps), GKSketch.from_values(values, eps)
    try:
        old = ref.WeightedGKSketch.from_values(values, weights, eps)
    except IndexError:
        return None
    return old, WeightedGKSketch.from_values(values, weights, eps)


def as_live(old, kind):
    """A live summary holding exactly ``old``'s fields, parsed from a frame."""
    mass = old.total_weight if kind is WeightedGKSketch else old.count
    batch = SketchBatch(
        kind,
        np.zeros(1, dtype=np.int64),
        np.asarray([old.eps]),
        np.asarray([old.count]),
        np.asarray([mass], dtype=kind._RANK),
        np.asarray([0, len(old)]),
        np.asarray(old._values, dtype=np.float64),
        np.asarray(old._g, dtype=kind._RANK),
        np.asarray(old._delta, dtype=kind._RANK),
    )
    (new,) = SketchBatch.from_frame(batch.to_frame())
    return new


def assert_same_queries(old, new, ks):
    assert summary_fields(new) == summary_fields(old)
    # Its frame carries every field back, whatever forms it picks.
    (back,) = SketchBatch.from_frame(frame_of(new))
    assert summary_fields(back) == summary_fields(old)
    assert len(new) == len(old)
    if old.count == 0:
        return
    assert new.min_value == old.min_value and new.max_value == old.max_value
    for k in ks:
        assert new.quantiles(k).tobytes() == old.quantiles(k).tobytes()
    # 0, 1, and ties: targets that land exactly on an entry's rank bound.
    for q in (0.0, 1.0, 0.5, 1.0 / 3.0, 1.0 / len(old)):
        assert new.query(q) == old.query(q)


class TestSummaries:
    @settings(max_examples=150, deadline=None)
    @given(values=batches(), eps=EPS, k=st.integers(min_value=1, max_value=63))
    def test_from_values(self, values, eps, k):
        old, new = build_pair(values, eps)
        assert_same_queries(old, new, (k,))

    @settings(max_examples=150, deadline=None)
    @given(batch=weighted_batches(), eps=EPS, k=st.integers(min_value=1, max_value=63))
    def test_from_values_weighted(self, batch, eps, k):
        pair = build_pair(batch[0], eps, batch[1])
        assume(pair is not None)
        assert_same_queries(*pair, (k,))

    @settings(max_examples=100, deadline=None)
    @given(
        chain=st.lists(st.tuples(batches(), EPS), min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=63),
    )
    def test_merge_chain(self, chain, k):
        """Left fold of 1-6 summaries of mixed size and eps — the server's
        arrival-order merge — stays byte-equal at every step."""
        old = new = None
        for values, eps in chain:
            o, n = build_pair(values, eps)
            old, new = (o, n) if old is None else (old.merge(o), new.merge(n))
            assert_same_queries(old, new, (k, 19))
        assert summary_fields(new.copy()) == summary_fields(old)

    @settings(max_examples=100, deadline=None)
    @given(
        chain=st.lists(st.tuples(weighted_batches(), EPS), min_size=1, max_size=6),
        k=st.integers(min_value=1, max_value=63),
    )
    def test_merge_chain_weighted(self, chain, k):
        old = new = None
        for (values, weights), eps in chain:
            pair = build_pair(values, eps, weights)
            assume(pair is not None)
            o, n = pair
            old, new = (o, n) if old is None else (old.merge(o), new.merge(n))
            assert_same_queries(old, new, (k, 19))
        assert summary_fields(new.copy()) == summary_fields(old)

    def test_merge_chain_compresses(self):
        """The chains above must reach the size-driven compression: show
        one that does, on both classes."""
        rng = np.random.default_rng(5)
        for weighted in (False, True):
            old = new = None
            fired = 0
            for eps in (0.01, 0.01, 0.45, 0.01, 0.2):
                values = rng.normal(size=1200)
                weights = rng.uniform(0.1, 2.0, size=1200) if weighted else None
                o, n = build_pair(values, eps, weights)
                if old is not None:
                    fired += len(old.merge(o)) < len(old) + len(o)
                old, new = (o, n) if old is None else (old.merge(o), new.merge(n))
                assert_same_queries(old, new, (1, 19, 63))
            assert fired >= 2

    @settings(max_examples=100, deadline=None)
    @given(
        g=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=40),
        delta=st.data(),
        eps=EPS,
        k=st.integers(min_value=1, max_value=63),
    )
    def test_rank_max_clause_never_binds(self, g, delta, eps, k):
        """``quantiles`` drops the reference's ``target <= rank_max + slack``
        test: with delta >= 0 it is implied by the rank_min one.  Hand-built
        summaries with arbitrary non-negative deltas (merges only produce a
        few shapes) answer every query like the two-clause reference."""
        n = len(g)
        deltas = delta.draw(
            st.lists(st.integers(min_value=0, max_value=200), min_size=n, max_size=n)
        )
        old = ref.GKSketch(eps)
        old._values = [float(v) for v in range(n)]
        old._g, old._delta, old.count = list(g), deltas, sum(g)
        assert_same_queries(old, as_live(old, GKSketch), (k,))
        scale = 0.37  # the same through the weighted (float rank) class
        oldw = ref.WeightedGKSketch(eps)
        oldw._values = list(old._values)
        oldw._g = [scale * v for v in g]
        oldw._delta = [scale * v for v in deltas]
        oldw.count, oldw.total_weight = n, float(np.cumsum(oldw._g)[-1])
        assert_same_queries(oldw, as_live(oldw, WeightedGKSketch), (k,))


@st.composite
def matrices(draw):
    """A small CSR matrix: an empty column, lumpy or smooth values, float32
    or float64 storage, optionally non-negative."""
    n_rows = draw(st.integers(min_value=1, max_value=40))
    n_cols = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_cols)) < draw(st.floats(min_value=0.0, max_value=1.0))
    mask[:, rng.integers(0, n_cols)] = False
    dense = np.round(rng.normal(size=(n_rows, n_cols)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        dense = np.abs(dense)
    rows, cols = np.nonzero(mask)
    data = dense[rows, cols].astype(draw(st.sampled_from([np.float32, np.float64])))
    if draw(st.booleans()):
        data[rng.random(len(data)) < 0.1] = -0.0
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(np.int64)
    weights = rng.uniform(0.0, 2.0, size=n_rows) * (rng.random(n_rows) > 0.2)
    return CSRMatrix(indptr, cols.astype(np.int32), data, (n_rows, n_cols)), weights


def assert_same_candidates(new: CandidateSet, old, negative_zero: bool):
    offsets, cuts = old
    assert new.offsets.tobytes() == offsets.tobytes()
    if negative_zero:
        assert (new.cuts + 0.0).tobytes() == (cuts + 0.0).tobytes()
    else:
        assert new.cuts.tobytes() == cuts.tobytes()
    assert (
        new.zero_bins.tobytes() == ref._compute_bins_scalar(offsets, cuts, 0.0).tobytes()
    )


class TestCandidates:
    @settings(max_examples=120, deadline=None)
    @given(
        drawn=matrices(),
        max_bins=st.sampled_from([2, 3, 5, 21, 64]),
        zero_cut=st.booleans(),
        eps=st.sampled_from([0.01, 0.05, 0.2]),
    )
    def test_all_three_proposers(self, drawn, max_bins, zero_cut, eps):
        """The exact proposer, and the sketch proposer over plain and over
        hessian-weighted column summaries."""
        X, weights = drawn
        negative_zero = bool(np.any((X.data == 0) & np.signbit(X.data)))
        csr = (X.indptr, X.indices, X.data, X.n_cols)
        assert_same_candidates(
            propose_candidates(X, max_bins, zero_cut),
            ref.propose_candidates(X, max_bins, zero_cut),
            negative_zero,
        )
        old, new = ref.sketch_columns(*csr, eps), sketch_columns(*csr, eps)
        assert [summary_fields(s) for s in new] == [summary_fields(s) for s in old]
        assert_same_candidates(
            propose_candidates_from_sketches(new, max_bins, zero_cut),
            ref.propose_candidates_from_sketches(old, max_bins, zero_cut),
            negative_zero,
        )
        try:
            old = ref.sketch_columns_weighted(*csr, weights, eps)
        except IndexError:
            return
        new = sketch_columns_weighted(*csr, weights, eps)
        assert [summary_fields(s) for s in new] == [summary_fields(s) for s in old]
        assert_same_candidates(
            propose_candidates_from_sketches(new, max_bins, zero_cut),
            ref.propose_candidates_from_sketches(old, max_bins, zero_cut),
            negative_zero,
        )

    def test_zero_cut_thinning_branch(self):
        """max_bins - 1 distinct quantiles plus a zero cut is one over budget:
        the evenly spaced thinning of ``_dedupe_cuts`` must be reached."""
        values = np.arange(-10.0, 11.0) + 0.5
        for max_bins in (2, 3, 5, 21):
            old = ref.GKSketch.from_values(values, 0.01)
            new = GKSketch.from_values(values, 0.01)
            raw = old.quantiles(max_bins - 1)
            assert len(np.unique(np.append(raw, 0.0))) == max_bins  # over budget
            assert_same_candidates(
                propose_candidates_from_sketches([new], max_bins),
                ref.propose_candidates_from_sketches([old], max_bins),
                negative_zero=False,
            )

    def test_first_of_equal_cuts_wins(self):
        """The rewrite's rule where the reference had none: of cuts that
        compare equal, the first in value order is kept."""
        sketch = GKSketch.from_values([-1.0, -0.0, 0.0, 0.0, 2.0], 0.01)
        cuts = propose_candidates_from_sketches([sketch], 6).cuts
        assert cuts.tolist() == [-1.0, 0.0, 2.0] and np.signbit(cuts[1])
        flipped = GKSketch.from_values([-1.0, 0.0, -0.0, 2.0], 0.01)
        cuts = propose_candidates_from_sketches([flipped], 6).cuts
        assert cuts.tolist() == [-1.0, 0.0, 2.0] and not np.signbit(cuts[1])


def test_reference_is_not_imported_by_src():
    """No test oracle shares code with what it checks: no import line
    under ``src/`` names a frozen reference or the exact-split oracle."""
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parents[2]
    oracles = {p.stem for p in (root / "tests").rglob("_reference_*.py")}
    assert {
        "_reference_gk",
        "_reference_rowpath",
        "_reference_gridpath",
        "_reference_flat",
        "_reference_exact",
    } <= oracles
    imports = re.compile(
        rf"^\s*(?:from|import)\s.*\b(?:{'|'.join(sorted(oracles))})\b", re.MULTILINE
    )
    leaks = [
        str(p.relative_to(root))
        for p in (root / "src").rglob("*.py")
        if imports.search(p.read_text())
    ]
    assert not leaks


def test_weighted_threshold_overrun_is_clipped():
    """The reference's IndexError draw: the rewrite answers with the maximum."""
    rng = np.random.default_rng(0)
    hit = 0
    for _ in range(400):
        n = int(rng.integers(50, 400))
        values, weights = rng.normal(size=n), rng.uniform(0, 2, size=n)
        try:
            ref.WeightedGKSketch.from_values(values, weights, 0.05)
        except IndexError:
            hit += 1
            sketch = WeightedGKSketch.from_values(values, weights, 0.05)
            assert sketch.max_value == values.max() and sketch.count == n
    if not hit:
        pytest.skip("no overrun draw on this platform")
