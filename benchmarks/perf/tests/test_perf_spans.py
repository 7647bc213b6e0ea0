"""Span coverage: every declared layer boundary exists and is entered
exactly where the span table says.

A rename or removal under ``src/`` must fail here instead of silently
dropping a layer from the trace.
"""

from __future__ import annotations

import sys

import pytest

import spec
import tracing


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
def test_spans_entered_where_declared(smoke_passes, workload):
    code, _lines, result = smoke_passes[workload, 1]
    assert code == 0 and result["correct"], result
    metrics = result["metrics"]
    for span in tracing.SPANS:
        calls = metrics[f"{span.name}.calls"]["value"]
        if workload in span.on:
            assert calls > 0, f"{span.name} never entered on {workload}"
            assert metrics[f"{span.name}.self_s"]["value"] > 0
        else:
            assert calls == 0, f"{span.name} entered {calls} times on {workload}"


def test_counters_and_phases_move_on_train(smoke_passes):
    for workload in spec.TRAIN_WORKLOADS:
        metrics = smoke_passes[workload, 1][2]["metrics"]
        for counter in tracing.COUNTERS:
            assert metrics[counter]["value"] > 0, (workload, counter)
        for phase in tracing.PHASES:
            assert metrics[f"phase.{phase}.wall_s"]["value"] > 0, (workload, phase)
        assert 0 < metrics["trace.unattributed_share"]["value"] < 0.5


def test_install_patches_every_target_and_restore_undoes_it():
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        assert len(patches) == sum(len(span.targets) for span in tracing.SPANS)
        for patch in patches:
            assert patch.current() is patch.wrapper, patch.target
    finally:
        tracing.restore(patches)
    for patch in patches:
        assert patch.current() is patch.original, patch.target
    wrappers = {id(patch.wrapper) for patch in patches}
    leaked = [
        f"{name}.{key}"
        for name, module in list(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
        for key, value in vars(module).items()
        if id(value) in wrappers
    ]
    assert not leaked, leaked


def test_functions_imported_by_name_are_traced_and_restored():
    """``backends.py`` calls ``best_split_in_range`` through its own global."""
    import repro.distributed.backends as backends
    import repro.tree.split as split

    original = split.best_split_in_range
    assert backends.best_split_in_range is original
    patches = tracing.install(tracing.Tracer())
    try:
        assert backends.best_split_in_range is not original
        assert backends.best_split_in_range is split.best_split_in_range
    finally:
        tracing.restore(patches)
    assert backends.best_split_in_range is original


def test_missing_target_fails_loudly_and_leaves_nothing_patched(monkeypatch):
    import repro.ps.slab as slab

    broken = (
        *tracing.SPANS,
        tracing.SpanSpec("ps.renamed", ("repro.ps.slab:no_such_function",), ()),
    )
    monkeypatch.setattr(tracing, "SPANS", broken)
    original = slab.compress_slab
    with pytest.raises(AttributeError):
        tracing.install(tracing.Tracer())
    assert slab.compress_slab is original


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans.update({"outer": [0, 0.0, 0.0], "inner": [0, 0.0, 0.0]})
    import time

    inner = tracer.wrap("inner", lambda: time.sleep(0.02))

    def outer_body():
        inner()
        inner()

    tracer.wrap("outer", outer_body)()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert tracer.total_s("outer") >= tracer.total_s("inner") >= 0.04
    assert tracer.self_s("outer") < 0.01
    assert tracer.self_s("outer") == pytest.approx(
        tracer.total_s("outer") - tracer.total_s("inner")
    )
