"""Outside-in span tracing: wrap the layers' public callables, time them.

Nothing under ``src/`` knows it is being traced.  :func:`install` swaps
each declared callable for a timing wrapper — a class attribute where the
callable is a method, every ``repro.*`` module global that ``is`` the
function where modules imported it by name — and :func:`restore` puts the
originals back.  A :class:`Tracer` keeps the call stack, so a span's
*self* time is its duration minus the part its child spans cover, and
aggregates per span name and per (phase, span) as it goes: a fit makes
~10^4 wrapped calls, and keeping totals instead of one record per call
holds the tracing overhead under a percent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

#: Phase label for wall time spent outside every PhaseRunner stage.
OUTSIDE = "outside"

#: The trainer's stage names (``repro.ps.master.WorkerPhase`` values).
PHASES = (
    "CREATE_SKETCH",
    "PULL_SKETCH",
    "NEW_TREE",
    "BUILD_HISTOGRAM",
    "FIND_SPLIT",
    "SPLIT_TREE",
    "FINISH",
)

CounterHook = Callable[[dict, tuple, dict, Any], None]


@dataclass(frozen=True)
class SpanSpec:
    """One traced layer boundary.

    Attributes:
        name: Span name, ``<package>.<what>`` with the ``src/repro``
            package as prefix.
        targets: ``"module:function"`` or ``"module:Class.method"``
            strings; every target feeds the same span.
        on: Workloads whose traced pass enters the span; on every other
            workload its ``calls`` must read zero.  The span-coverage
            test holds the program to this column.
        counter: Optional hook ``(counters, args, kwargs, result)``
            adding work counts (rows, values, bytes) at the boundary.
    """

    name: str
    targets: tuple[str, ...]
    on: tuple[str, ...]
    counter: CounterHook | None = None


def _count_build_rows(counters, args, kwargs, result) -> None:
    # build(self, shard, rows, grad, hess)
    counters["histogram.build.rows"] += len(args[2])


def _count_encoded_values(counters, args, kwargs, result) -> None:
    counters["compression.encode.values"] += args[0].size


def _count_decoded_values(counters, args, kwargs, result) -> None:
    counters["compression.decode.values"] += result.size


def _count_bytes_up(counters, args, kwargs, result) -> None:
    counters["ps.push.bytes_up"] += result.bytes_up


def _count_bytes_down(counters, args, kwargs, result) -> None:
    counters["ps.pull.bytes_down"] += result[1].bytes_down


#: Work counters the hooks above maintain (exported as layer metrics).
COUNTERS = (
    "histogram.build.rows",
    "compression.encode.values",
    "compression.decode.values",
    "ps.push.bytes_up",
    "ps.pull.bytes_down",
)

_GROUP = "repro.ps.group:ParameterServerGroup."
_SERVER = "repro.ps.server:PSServer."
_BACKEND = "repro.distributed.backends:DimBoostBackend."

_ROW, _GRID, _PREDICT = "train_row_rcv1", "train_grid_gender", "predict_batch"
_TRAIN = (_ROW, _GRID)

#: Every traced span, in pipeline order.  ``distributed.fit`` is the root:
#: its self time is what no layer span accounts for.  ``serve_replay``
#: enters none of them: its layer numbers come from the runtime's own
#: stamps, because scoring runs on an executor thread the call stack of
#: a tracer cannot follow.
SPANS: tuple[SpanSpec, ...] = (
    SpanSpec(
        "distributed.fit", ("repro.distributed.engine:DistributedGBDT.fit",), _TRAIN
    ),
    SpanSpec(
        "datasets.partition",
        (
            "repro.datasets.partition:BlockPartitioner.__init__",
            "repro.datasets.partition:BlockPartitioner.row_shard",
            "repro.datasets.partition:BlockPartitioner.block",
        ),
        _TRAIN,
    ),
    # Entered by no workload: flat inference descends the CSR rows
    # directly, and only the per-tree oracle (run outside the traced
    # region) converts to CSC.  Kept so that a path that starts paying
    # for the conversion shows up.
    SpanSpec("datasets.to_csc", ("repro.datasets.sparse:CSRMatrix.to_csc",), ()),
    SpanSpec(
        "sketch.local",
        (
            "repro.sketch.quantile:sketch_columns",
            "repro.sketch.quantile:sketch_columns_weighted",
        ),
        (_GRID,),
    ),
    SpanSpec(
        "sketch.propose",
        (
            "repro.sketch.candidates:propose_candidates",
            "repro.sketch.candidates:propose_candidates_from_sketches",
        ),
        _TRAIN,
    ),
    SpanSpec("ps.sketch_push", (_GROUP + "push_sketch",), (_GRID,)),
    SpanSpec("ps.sketch_pull", (_GROUP + "pull_sketches",), (_GRID,)),
    SpanSpec("ps.server_merge_sketch", (_SERVER + "handle_push_sketch",), (_GRID,)),
    SpanSpec("histogram.bin", ("repro.histogram.binned:BinnedShard.__init__",), _TRAIN),
    SpanSpec(
        "boosting.gradients", ("repro.boosting.losses:LogisticLoss.gradients",), _TRAIN
    ),
    SpanSpec("boosting.loss_eval", ("repro.boosting.losses:LogisticLoss.loss",), _TRAIN),
    SpanSpec(
        "histogram.build",
        (
            "repro.runtime.build:SparseBuildStrategy.build",
            "repro.runtime.build:DenseBuildStrategy.build",
        ),
        _TRAIN,
        _count_build_rows,
    ),
    SpanSpec(
        "histogram.positions",
        ("repro.histogram.binned:BinnedShard.positions_of_rows",),
        _TRAIN,
    ),
    SpanSpec(
        "histogram.flatten",
        ("repro.histogram.histogram:GradientHistogram.to_flat_feature_major",),
        _TRAIN,
    ),
    SpanSpec(
        "histogram.split_mask", ("repro.histogram.binned:BinnedShard.split_mask",), _TRAIN
    ),
    SpanSpec(
        "histogram.index_split", ("repro.histogram.index:NodeInstanceIndex.split",), _TRAIN
    ),
    SpanSpec(
        "compression.encode",
        (
            "repro.compression.lowprec:compress_blocked",
            "repro.compression.lowprec:compress_flat",
        ),
        _TRAIN,
        _count_encoded_values,
    ),
    SpanSpec(
        "compression.decode",
        (
            "repro.compression.lowprec:decompress_blocked",
            "repro.compression.lowprec:decompress_flat",
        ),
        _TRAIN,
        _count_decoded_values,
    ),
    SpanSpec("ps.slab_encode", ("repro.ps.slab:slab_from_flat",), (_GRID,)),
    SpanSpec("ps.slab_compress", ("repro.ps.slab:compress_slab",), (_GRID,)),
    SpanSpec(
        "ps.window_buffer",
        (
            "repro.ps.localagg:LocalAggregator.add",
            "repro.ps.localagg:LocalAggregator.drain",
        ),
        (_GRID,),
    ),
    SpanSpec(
        "ps.push",
        (
            _GROUP + "push_row",
            _GROUP + "push_slab",
            _GROUP + "push_window",
            _GROUP + "push_window_rows",
        ),
        _TRAIN,
        _count_bytes_up,
    ),
    SpanSpec(
        "ps.server_fold",
        (
            _SERVER + "handle_push",
            _SERVER + "handle_push_slab",
            _SERVER + "handle_push_window",
        ),
        _TRAIN,
    ),
    SpanSpec("ps.pull_udf", (_GROUP + "pull_row_udf",), _TRAIN, _count_bytes_down),
    SpanSpec(
        "distributed.aggregate",
        (_BACKEND + "aggregate_node", _BACKEND + "aggregate_node_slabs"),
        _TRAIN,
    ),
    SpanSpec("distributed.find_splits", (_BACKEND + "find_splits",), _TRAIN),
    SpanSpec("distributed.end_tree", (_BACKEND + "end_tree",), _TRAIN),
    SpanSpec("tree.split_scan", ("repro.tree.split:best_split_in_range",), _TRAIN),
    SpanSpec("inference.load", ("repro.boosting.model:GBDTModel.load",), (_PREDICT,)),
    # The trainer's FINISH phase compiles the model it returns.
    SpanSpec(
        "inference.compile",
        ("repro.inference.flat:FlatEnsemble.__init__",),
        (*_TRAIN, _PREDICT),
    ),
    SpanSpec(
        "inference.descent", ("repro.inference.flat:FlatEnsemble.score_into",), (_PREDICT,)
    ),
)

SPAN_NAMES = tuple(span.name for span in SPANS)
ROOT_SPAN = "distributed.fit"


class Tracer:
    """Call stack plus running per-span aggregates."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far."""
        #: Open spans, innermost last; each frame is ``[child_seconds]``.
        self._stack: list[list[float]] = []
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {n: [0, 0.0, 0.0] for n in SPAN_NAMES}
        #: (phase, span name) -> self seconds: spans under the phase that
        #: caused them.
        self.by_phase: dict[tuple[str, str], float] = {}
        self.counters: dict[str, float] = {name: 0 for name in COUNTERS}
        self.phase = OUTSIDE
        self.phase_wall: dict[str, float] = {phase: 0.0 for phase in PHASES}

    def wrap(
        self, name: str, fn: Callable, counter: CounterHook | None = None
    ) -> Callable:
        """A drop-in replacement for ``fn`` that records span ``name``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - frame[0]
                totals = tracer.spans[name]
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += own
                key = (tracer.phase, name)
                tracer.by_phase[key] = tracer.by_phase.get(key, 0.0) + own
            if counter is not None:
                counter(tracer.counters, args, kwargs, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return int(self.spans[name][0])

    def total_s(self, name: str) -> float:
        return self.spans[name][1]

    def self_s(self, name: str) -> float:
        return self.spans[name][2]


def phase_callback(tracer: Tracer):
    """A ``TrainerCallback`` stamping the tracer's current phase.

    Built lazily so this module imports without ``repro`` on the path.
    """
    from repro.runtime.hooks import TrainerCallback

    class PhaseSpans(TrainerCallback):
        def __init__(self) -> None:
            self._started = 0.0

        def on_phase_start(self, phase, tree_index) -> None:
            tracer.phase = phase.value
            self._started = time.perf_counter()

        def on_phase_end(self, phase, tree_index, charges, wall_seconds) -> None:
            tracer.phase_wall[phase.value] += time.perf_counter() - self._started
            tracer.phase = OUTSIDE

    return PhaseSpans()


def _rebind_globals(replacements: dict[int, Any]) -> None:
    """Point every ``repro.*`` module global at its replacement, in one scan.

    ``replacements`` maps ``id(current value)`` to the new value: modules
    that did ``from x import f`` hold their own reference to ``f``.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            new = replacements.get(id(value))
            if new is not None:
                setattr(module, key, new)


@dataclass
class _Patch:
    """One installed wrapper and what it replaced."""

    target: str
    owner: Any  # defining class, or None for a module-level function
    attr: str
    original: Any  # the raw class-dict entry, or the function
    wrapper: Any

    def current(self) -> Any:
        """What the patched attribute holds right now."""
        if self.owner is not None:
            return self.owner.__dict__[self.attr]
        module_name, _, attr = self.target.partition(":")
        return getattr(sys.modules[module_name], attr)


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(defining class or None, attribute, raw original)`` of a target."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return None, path, getattr(module, path)
    class_name, _, attr = path.partition(".")
    cls = getattr(module, class_name)
    for klass in cls.__mro__:
        # Patch where the MRO defines the method, so subclasses that
        # inherit it are traced too and restore leaves no shadow behind.
        if attr in klass.__dict__:
            return klass, attr, klass.__dict__[attr]
    raise AttributeError(f"{target}: no class in the MRO defines {attr!r}")


def install(tracer: Tracer) -> list[_Patch]:
    """Wrap every target of :data:`SPANS`; returns the patches to restore.

    Raises ``AttributeError`` / ``ImportError`` when a target no longer
    exists — a rename in ``src/`` must fail loudly, not drop a layer.
    """
    # Modules that import a traced function by name must be loaded before
    # their globals can be rebound.
    for module_name in (
        "repro",
        "repro.distributed.engine",
        "repro.distributed.backends",
        "repro.inference.flat",
        "repro.serving",
    ):
        importlib.import_module(module_name)
    patches: list[_Patch] = []
    try:
        for span in SPANS:
            for target in span.targets:
                owner, attr, original = _resolve(target)
                if isinstance(original, (classmethod, staticmethod)):
                    wrapper = type(original)(
                        tracer.wrap(span.name, original.__func__, span.counter)
                    )
                else:
                    wrapper = tracer.wrap(span.name, original, span.counter)
                if owner is not None:
                    setattr(owner, attr, wrapper)
                patches.append(_Patch(target, owner, attr, original, wrapper))
        _rebind_globals({id(p.original): p.wrapper for p in patches if p.owner is None})
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches: list[_Patch]) -> None:
    """Undo :func:`install` (safe to call on a partial install)."""
    for patch in patches:
        if patch.owner is not None:
            setattr(patch.owner, patch.attr, patch.original)
    _rebind_globals({id(p.wrapper): p.original for p in patches if p.owner is None})
