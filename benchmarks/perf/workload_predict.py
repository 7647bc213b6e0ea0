"""``predict_batch``: offline scoring throughput, as ``repro predict`` pays it.

One operation loads the saved artifact, compiles it, and scores every row
of a matrix object the model has never seen (all derived caches cold).
Training code does not run at all, which makes this the workload on which
a training optimisation must change nothing.
"""

from __future__ import annotations

import time

import numpy as np

import inputs
import tracing
from harness import Outcome, median

from repro.boosting.model import GBDTModel

N_TREES = 100
MIN_REPEATS = 5


def _predict(path, X):
    """The timed operation: artifact on disk -> raw scores."""
    started = time.perf_counter()
    raw = GBDTModel.load(path).predict_raw(inputs.fresh_matrix(X))
    return time.perf_counter() - started, raw


def run(ctx) -> Outcome:
    outcome = Outcome()
    n_trees = 10 if ctx.smoke else N_TREES

    def generate():
        X = inputs.rcv1_rows(ctx.seed, ctx.smoke).X
        return X, inputs.full_tree_model(ctx.seed, X, n_trees)

    X, model = ctx.setup.repeated(generate)
    path = ctx.workdir / "predict-model.json"
    with ctx.setup.once():
        model.save(path)
        _predict(path, X)  # warm-up: page in the arrays, import lazily
    # The oracle is the original tree-at-a-time loop; computed outside
    # set-up and outside the timed region.
    expected = model.predict_raw_per_tree(X)
    outcome.notes.append(
        f"{X.n_rows}x{X.n_cols} rows nnz={X.nnz}, T={n_trees} depth-7 full trees"
    )

    tracer = tracing.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    floor = 1 if ctx.smoke else MIN_REPEATS
    started = time.perf_counter()
    while len(plain) < floor or time.perf_counter() - started < ctx.seconds:
        ctx.speed.sample()
        outcome.attempted += 1
        seconds, raw = _predict(path, X)
        plain.append(seconds)
        if not np.array_equal(raw, expected):
            outcome.fail("predict_raw differs from predict_raw_per_tree")
        if ctx.trace:
            # Traced and untraced operations interleave, so both medians
            # see the same machine.
            patches = tracing.install(tracer)
            try:
                seconds, raw = _predict(path, X)
            finally:
                tracing.restore(patches)
            outcome.attempted += 1
            traced.append(seconds)
            if not np.array_equal(raw, expected):
                outcome.fail("traced predict_raw differs from predict_raw_per_tree")

    speed = ctx.speed.factor()
    outcome.op_seconds = median(plain) * speed
    if not ctx.trace:
        rates = [X.n_rows / (s * speed) for s in plain]
        outcome.record("predict_rows_per_s", X.n_rows / outcome.op_seconds, rates)
        return outcome

    repeats = len(traced)
    for span in tracing.SPAN_NAMES:
        # Per operation: the tracer accumulated over every traced repeat.
        outcome.record(f"{span}.self_s", tracer.self_s(span) / repeats)
        outcome.record(f"{span}.calls", tracer.calls(span) / repeats)
    outcome.record(
        "trace.overhead_share", (median(traced) - median(plain)) / median(plain)
    )
    outcome.record("trace.speed_factor", speed)
    outcome.notes.append(
        f"operation wall as measured: traced {median(traced):.4f}s, untraced "
        f"{median(plain):.4f}s (n={repeats} each)"
    )
    return outcome
