"""Extension — compiled flat-ensemble inference throughput.

The seed's prediction path walked one tree at a time, and every
``leaf_of`` call re-derived the full CSC view of the input — O(T)
matrix conversions per predict, plus a dense-column scatter per
(tree, level, feature).  This PR replaces it twice over: the memoized
:meth:`CSRMatrix.to_csc` removes the repeated conversions from the
per-tree path, and the compiled
:class:`~repro.inference.flat.FlatEnsemble` replaces the traversal
itself with level-synchronous struct-of-arrays descent over cache-sized
row blocks (:class:`~repro.inference.parallel.ParallelScorer` adds a
shared-memory process pool over row spans).

Setup mirrors the acceptance criterion: a T=100, depth-7 ensemble over
an RCV1-like matrix (20K rows x 4.7K features at scale 1.0), random
full trees with thresholds drawn from the data's value range.  Rows
reported:

* ``per-tree cold`` — the seed's behavior: one CSC conversion per tree
  (emulated by clearing the memo between trees).  The 5x acceptance
  floor is against this, the path this PR replaced.
* ``per-tree warm`` — the per-tree loop with the memoized CSC, i.e.
  this PR's own improved reference oracle.
* ``flat serial`` / ``flat chunked`` / ``flat N proc`` — the compiled
  engine, whole-matrix vs cache-blocked vs a *warm* process pool (one
  ``ParallelScorer`` kept open, the matrix already in shared memory).
* ``flat 2 proc one-shot`` — ``predict_raw(X, n_processes=2)``, which
  starts a pool, shares the matrix and tears both down inside the call,
  the way ``repro predict --n-processes 2`` pays for it.

Every row is timed over ``REPEATS`` calls and reports the median *and*
the best: the pooled rows are bimodal on a small box (the same call
reads either of two values, run to run), so a best-of-N alone says
which mode was hit once, not what a caller gets.

Claims asserted: every configuration is **bit-identical**
(``np.array_equal``, not allclose); flat chunked reaches >= 5x the
cold baseline and >= 1.2x the warm one; with >= 2 usable cores and at
full scale the warm 2-process median is at most the flat serial median.
(Against the serial *chunked* median the warm pool wins most runs on a
2-core box but not every one — a pool instance whose workers share a
core stays slow for all its calls — so that comparison is reported in
``docs/inference.md``, not asserted.)
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from repro.boosting.model import GBDTModel
from repro.datasets import rcv1_like
from repro.inference import FlatEnsemble, ParallelScorer
from repro.tree.tree import RegressionTree

from conftest import bench_scale

N_TREES = 100
MAX_DEPTH = 7
REPEATS = 7


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def full_random_tree(
    rng: np.random.Generator, n_features: int, lo: float, hi: float
) -> RegressionTree:
    """A full depth-``MAX_DEPTH`` tree with data-range thresholds."""
    tree = RegressionTree(max_depth=MAX_DEPTH)
    internal = (1 << (MAX_DEPTH - 1)) - 1
    for node in range(internal):
        tree.set_split(
            node,
            int(rng.integers(0, n_features)),
            float(rng.uniform(lo, hi)),
        )
    for node in range(internal, tree.max_nodes):
        tree.set_leaf(node, float(rng.normal()))
    return tree


def test_flat_inference_throughput(benchmark, report):
    scale = bench_scale()
    data = rcv1_like(scale=scale, seed=0)
    X = data.X
    rng = np.random.default_rng(7)
    lo = float(X.data.min()) if len(X.data) else 0.0
    hi = float(X.data.max()) if len(X.data) else 1.0
    model = GBDTModel(
        trees=[
            full_random_tree(rng, X.n_cols, lo, hi) for _ in range(N_TREES)
        ],
        base_score=0.5,
        loss_name="squared",
        n_features=X.n_cols,
    )
    flat: FlatEnsemble = model.compiled()

    def timed(fn) -> tuple[list[float], np.ndarray]:
        seconds, out = [], None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            out = fn()
            seconds.append(time.perf_counter() - t0)
        return seconds, out

    def per_tree_cold() -> np.ndarray:
        # The seed had no CSC memo: every tree's leaf_of re-converted
        # the matrix.  Clearing the cache between trees reproduces that
        # cost profile exactly.
        raw = np.full(X.n_rows, model.base_score, dtype=np.float64)
        for tree in model.trees:
            X._csc = None
            raw += tree.predict(X)
        X._csc = None
        return raw

    def run():
        cold_seconds, reference = timed(per_tree_cold)
        cold = float(np.median(cold_seconds))

        def row(label, seconds, out):
            median = float(np.median(seconds))
            return [
                label,
                median,
                min(seconds),
                X.n_rows / median,
                cold / median,
                np.array_equal(out, reference),
            ]

        rows = [row("per-tree cold", cold_seconds, reference)]
        rows.append(
            row("per-tree warm", *timed(lambda: model.predict_raw_per_tree(X)))
        )
        rows.append(
            row(
                "flat serial",
                *timed(lambda: model.predict_raw(X, batch_rows=max(1, X.n_rows))),
            )
        )
        rows.append(row("flat chunked", *timed(lambda: model.predict_raw(X))))
        with warnings.catch_warnings():
            # Single-core CI: pool fallback warns; parity still holds.
            warnings.simplefilter("ignore", RuntimeWarning)
            for n_processes in (2, 4):
                with ParallelScorer(flat, n_processes=n_processes) as scorer:
                    scorer.predict_raw(X, base_score=model.base_score)  # warm
                    rows.append(
                        row(
                            f"flat {n_processes} proc",
                            *timed(
                                lambda: scorer.predict_raw(
                                    X, base_score=model.base_score
                                )
                            ),
                        )
                    )
            rows.append(
                row(
                    "flat 2 proc one-shot",
                    *timed(lambda: model.predict_raw(X, n_processes=2)),
                )
            )
        return rows

    table = benchmark.pedantic(run, rounds=1, iterations=1)
    cores = usable_cores()
    report.add_table(
        "Extension: compiled flat-ensemble inference",
        [
            "path",
            "median wall s",
            "best wall s",
            "rows/s",
            "speedup vs cold",
            "bit-identical",
        ],
        table,
        notes=(
            f"{X.n_rows} rows x {X.n_cols} features, T={N_TREES} "
            f"depth-{MAX_DEPTH} random full trees; {cores} usable cores; "
            f"{REPEATS} calls a row, rows/s and speedup from the median; "
            f"scale {scale}"
        ),
    )
    # Bit-identity holds on every configuration, on any machine.
    assert all(r[5] for r in table), [r[0] for r in table if not r[5]]
    by_label = {r[0]: r for r in table}
    chunked = by_label["flat chunked"]
    # >= 5x over the path this PR replaced (per-tree, CSC per tree).
    assert chunked[4] >= 5.0, (
        f"expected >= 5x flat-vs-cold at scale {scale}, got {chunked[4]:.2f}x"
    )
    # And still faster than this PR's own memoized per-tree oracle.
    warm = by_label["per-tree warm"]
    warm_ratio = warm[1] / chunked[1]
    assert warm_ratio >= 1.2, (
        f"expected >= 1.2x flat-vs-warm at scale {scale}, "
        f"got {warm_ratio:.2f}x"
    )
    if cores >= 2 and scale >= 1.0:
        # With real cores a warm 2-process pool must beat the serial flat
        # path on the median — at full scale only: the pool costs a few ms
        # a call to dispatch, which since PR 22 is more than the serial
        # kernel spends on the whole 1,000-row smoke matrix (5 ms), so
        # there is nothing to win.
        serial = by_label["flat serial"]
        assert by_label["flat 2 proc"][1] <= serial[1], (
            f"expected warm 2-process median <= serial flat median "
            f"on {cores} cores"
        )
