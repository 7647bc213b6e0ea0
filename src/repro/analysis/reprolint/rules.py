"""The project-specific rules that patrol module by module (RP001–RP006).

Each rule encodes one contract an earlier PR introduced and the test
suite only enforces dynamically.  RP001–RP005 judge one module at a
time; RP006 derives its seams from the call graph once per run and then
patrols every module against them (the rules whose findings are built
from the graph itself, RP007–RP010, live in
:mod:`repro.analysis.reprolint.graph_rules`):

* RP001 ``unseeded-randomness`` — every stochastic path takes a seeded
  ``numpy.random.Generator`` (``repro.utils.rng.spawn_rng``); module-
  level RNG state, stdlib ``random``, and raw OS entropy
  (``uuid.uuid4``, ``os.urandom``, ``secrets.*``) would all break
  bit-identity across runs and backends.
* RP002 ``wall-clock-outside-seam`` — real-time reads live in the one
  clock seam, ``utils/timing.py``; everything else (phase accounting,
  the engine, the serving runtime) goes through its ``wall_clock`` /
  ``wall_clock_ns``; stray ``time.*`` pairs produce
  unphased seconds no report can attribute.  The seam modules come from
  the declared ``[tool.reprolint]`` contract, and a clock read is also
  permitted in any function transitively called only from seam modules.
* RP003 ``shm-lifecycle`` — a class creating ``SharedMemory(create=True)``
  segments must also release them (a method calling both ``close()`` and
  ``unlink()``) and manage lifetime (``__exit__`` or ``__del__``); the
  ``/dev/shm`` leak tests only catch the paths they run.
* RP004 ``fork-unsafe-pool-state`` — modules on the process-pool seam
  must not hold module-level mutable state, locks, or executors that a
  ``fork`` would duplicate into workers, and must submit only module-
  level functions (closures and bound methods capture arbitrary state).
* RP005 ``implicit-dtype`` — kernel-path array allocations state their
  dtype; accumulator width is a correctness contract (unbiased float64
  aggregation), not a numpy default.
* RP006 ``ps-seq-token`` — PS push handlers and callers thread the
  per-round ``seq`` idempotency token (the PR 3 recovery contract: a
  retried delivery must never double-count a histogram).  The
  handler/pusher pairing is derived from the call graph, once per run
  (a pusher is whatever in ``ps/`` calls a ``handle_push*`` handler).
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, ModuleContext, Rule, register
from .project import Project

__all__ = [
    "UnseededRandomness",
    "WallClockOutsideSeam",
    "SharedMemoryLifecycle",
    "ForkUnsafePoolState",
    "ImplicitDtype",
    "PSSequenceToken",
]


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _has_star_kwargs(call: ast.Call) -> bool:
    return any(kw.arg is None for kw in call.keywords)


@register
class UnseededRandomness(Rule):
    """RP001: randomness must flow through a seeded Generator."""

    code = "RP001"
    name = "unseeded-randomness"
    summary = (
        "no numpy.random module functions, stdlib random.*, argless "
        "default_rng(), or OS entropy (uuid4/urandom/secrets) — "
        "randomness must come from a seeded Generator"
    )
    invariant = (
        "bit-identical runs for a fixed seed across trainers, backends, "
        "and recovery replays (seed discipline of repro.utils.rng)"
    )

    #: numpy.random attributes that *construct* seeded state rather than
    #: draw from the legacy global RNG.
    _NUMPY_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "MT19937",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
        }
    )

    #: Direct OS-entropy draws: nondeterministic by construction, so any
    #: use on a reproducible path needs an audited waiver (the shm
    #: segment-name generators are the canonical justified case).
    _ENTROPY_CALLS = frozenset(
        {
            "uuid.uuid1",
            "uuid.uuid4",
            "os.urandom",
            "secrets.token_bytes",
            "secrets.token_hex",
            "secrets.token_urlsafe",
            "secrets.randbits",
            "secrets.randbelow",
            "secrets.choice",
        }
    )

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        for call in ctx.calls:
            qualname = ctx.qualname(call.func)
            if qualname is None:
                continue
            if qualname in self._ENTROPY_CALLS:
                yield self.finding(
                    ctx,
                    call,
                    f"{qualname}() draws OS entropy and is never "
                    "reproducible; derive the value from seeded state or "
                    "justify a suppression",
                )
            elif qualname.startswith("numpy.random."):
                attr = qualname.split(".")[2]
                if attr == "default_rng":
                    if not call.args and not call.keywords:
                        yield self.finding(
                            ctx,
                            call,
                            "default_rng() without a seed draws OS entropy; "
                            "pass a seed (use repro.utils.rng.spawn_rng)",
                        )
                elif attr not in self._NUMPY_ALLOWED:
                    yield self.finding(
                        ctx,
                        call,
                        f"{qualname}() uses numpy's unseeded global RNG; "
                        "thread a seeded numpy.random.Generator instead",
                    )
            elif qualname == "random" or qualname.startswith("random."):
                attr = qualname.split(".", 1)[1] if "." in qualname else ""
                if attr == "Random":
                    if not call.args and not call.keywords:
                        yield self.finding(
                            ctx,
                            call,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                elif attr:
                    yield self.finding(
                        ctx,
                        call,
                        f"{qualname}() draws from the stdlib's unseeded "
                        "global RNG; use a seeded numpy Generator",
                    )


@register
class WallClockOutsideSeam(Rule):
    """RP002: real-time reads only inside the clock seam."""

    code = "RP002"
    name = "wall-clock-outside-seam"
    summary = (
        "no time.time/perf_counter/monotonic or datetime.now outside "
        "utils/timing.py; use repro.utils.timing.wall_clock"
    )
    invariant = (
        "every measured second is attributable to a phase (PR 1 phase "
        "stages); unphased timing skews the simulated-clock reports"
    )

    _CLOCK_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        if ctx.rel_path.endswith(project.config.clock_seam):
            return
        for call in ctx.calls:
            qualname = ctx.qualname(call.func)
            if qualname in self._CLOCK_CALLS:
                if self._called_only_from_seam(ctx, call, project):
                    continue
                yield self.finding(
                    ctx,
                    call,
                    f"{qualname}() outside the clock seam; "
                    "use repro.utils.timing.wall_clock so the "
                    "read stays auditable and phase-attributable",
                )

    def _called_only_from_seam(
        self, ctx: ModuleContext, call: ast.Call, project: Project
    ) -> bool:
        """Whether the clock read's function belongs to the *derived* seam.

        A function is seam-derived when every path of callers reaching
        it terminates inside a declared seam module — i.e. the function
        is an extraction of seam code, not a new unphased read.  A
        function with no known callers (or in a caller cycle) is not.
        """
        fn = project.function_at(ctx.rel_path, call)
        if fn is None:
            return False
        suffixes = project.config.clock_seam

        def in_seam(qualname: str) -> bool:
            owner = project.functions.get(qualname)
            return owner is not None and owner.rel_path.endswith(suffixes)

        verdicts: dict[str, bool] = {}

        def only_seam_callers(qualname: str) -> bool:
            if qualname in verdicts:
                return verdicts[qualname]
            verdicts[qualname] = False  # cycle guard: a cycle never clears
            callers = project.callers_of(qualname)
            if not callers:
                return False
            verdicts[qualname] = all(
                in_seam(c) or only_seam_callers(c) for c in callers
            )
            return verdicts[qualname]

        return only_seam_callers(fn.qualname)


@register
class SharedMemoryLifecycle(Rule):
    """RP003: SharedMemory(create=True) needs a paired close()+unlink()."""

    code = "RP003"
    name = "shm-lifecycle"
    summary = (
        "every SharedMemory(create=True) must live in a class with a "
        "release method calling close()+unlink() and __exit__/__del__"
    )
    invariant = (
        "no leaked /dev/shm segments (PR 2/4 lifecycle contract, now "
        "inference/parallel.py's ParallelScorer)"
    )

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        for call in ctx.calls:
            qualname = ctx.qualname(call.func)
            if qualname is None or not qualname.endswith("SharedMemory"):
                continue
            if not any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            ):
                continue
            owner = ctx.enclosing_class(call)
            if owner is None:
                yield self.finding(
                    ctx,
                    call,
                    "SharedMemory(create=True) outside a managing class; "
                    "segments must be owned by an object whose close() "
                    "unlinks them",
                )
                continue
            if not self._has_release_method(owner):
                yield self.finding(
                    ctx,
                    call,
                    f"class {owner.name} creates shared memory but no "
                    "method calls both close() and unlink() to release it",
                )
            elif not self._has_lifecycle_hook(owner):
                yield self.finding(
                    ctx,
                    call,
                    f"class {owner.name} releases shared memory but has "
                    "no __exit__/__del__ guaranteeing the release runs",
                )

    @staticmethod
    def _has_release_method(owner: ast.ClassDef) -> bool:
        for node in owner.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            called = {
                sub.func.attr
                for sub in ast.walk(node)
                if isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
            }
            if {"close", "unlink"} <= called:
                return True
        return False

    @staticmethod
    def _has_lifecycle_hook(owner: ast.ClassDef) -> bool:
        names = {
            node.name
            for node in owner.body
            if isinstance(node, ast.FunctionDef)
        }
        return bool(names & {"__exit__", "__del__"})


@register
class ForkUnsafePoolState(Rule):
    """RP004: pool-seam modules keep no fork-hostile module state."""

    code = "RP004"
    name = "fork-unsafe-pool-state"
    summary = (
        "no module-level mutable state/locks/executors in process-pool "
        "modules; submit only module-level functions to pools"
    )
    invariant = (
        "fork-safe worker processes (PR 2/4 pool seam): state captured "
        "at fork time must be immutable or rebuilt per process"
    )

    _MUTABLE_LITERALS = (
        ast.Dict,
        ast.List,
        ast.Set,
        ast.DictComp,
        ast.ListComp,
        ast.SetComp,
    )
    _MUTABLE_FACTORIES = frozenset(
        {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict",
         "deque", "Counter"}
    )
    _SYNC_FACTORIES = frozenset(
        {"Lock", "RLock", "Condition", "Event", "Semaphore",
         "BoundedSemaphore", "Barrier", "Queue", "Manager"}
    )

    def _in_scope(self, ctx: ModuleContext) -> bool:
        return any(
            target.startswith(("multiprocessing", "concurrent.futures"))
            for target in ctx.aliases.values()
        )

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        if not self._in_scope(ctx):
            return
        for node in ctx.tree.body:
            value, targets = None, []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if names == ["__all__"]:
                continue
            reason = self._mutability(ctx, value)
            if reason is not None:
                label = ", ".join(names) or "<target>"
                yield self.finding(
                    ctx,
                    node,
                    f"module-level {reason} ({label}) in a process-pool "
                    "module is duplicated by fork(); make it immutable, "
                    "per-process, or justify a suppression",
                )
        yield from self._check_submits(ctx)

    def _mutability(self, ctx: ModuleContext, value: ast.expr) -> str | None:
        if isinstance(value, self._MUTABLE_LITERALS):
            return "mutable container"
        if isinstance(value, ast.Call):
            qualname = ctx.qualname(value.func)
            if qualname is None and isinstance(value.func, ast.Name):
                qualname = value.func.id
            if qualname is None:
                return None
            tail = qualname.rsplit(".", 1)[-1]
            if tail in self._MUTABLE_FACTORIES:
                return f"{qualname}() container"
            if tail in self._SYNC_FACTORIES and qualname.startswith(
                ("threading.", "multiprocessing.", "Lock", "RLock")
            ):
                return f"{qualname}() synchronization primitive"
            if tail in ("ProcessPoolExecutor", "ThreadPoolExecutor"):
                return f"{qualname}() executor"
        return None

    def _check_submits(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls:
            func = call.func
            if not (isinstance(func, ast.Attribute) and func.attr == "submit"):
                continue
            if not call.args:
                continue
            task = call.args[0]
            if isinstance(task, ast.Lambda):
                yield self.finding(
                    ctx,
                    task,
                    "lambda submitted to a pool captures enclosing state; "
                    "submit a module-level function",
                )
            elif isinstance(task, ast.Attribute):
                yield self.finding(
                    ctx,
                    task,
                    "bound method/attribute submitted to a pool pickles "
                    "its instance; submit a module-level function",
                )
            elif isinstance(task, ast.Name):
                for enclosing in ctx.enclosing_functions(call):
                    nested = any(
                        isinstance(sub, ast.FunctionDef)
                        and sub.name == task.id
                        and sub is not enclosing
                        for sub in ast.walk(enclosing)
                    )
                    if nested:
                        yield self.finding(
                            ctx,
                            task,
                            f"locally-defined function {task.id!r} "
                            "submitted to a pool closes over local state; "
                            "hoist it to module level",
                        )
                        break


@register
class ImplicitDtype(Rule):
    """RP005: kernel-path allocations must state their dtype."""

    code = "RP005"
    name = "implicit-dtype"
    summary = (
        "np.zeros/empty/ones/full without dtype= in histogram/, "
        "inference/, tree/, ps/, sketch/, compression/, and serving/ "
        "kernel paths"
    )
    invariant = (
        "explicit float64 accumulators (unbiased low-precision "
        "aggregation, sparse-slab reconstruction, and bit-identical "
        "reduce contracts)"
    )

    _ALLOCATORS = {
        "numpy.zeros": 1,
        "numpy.empty": 1,
        "numpy.ones": 1,
        "numpy.full": 2,
    }
    _KERNEL_PACKAGES = frozenset(
        {"histogram", "inference", "tree", "ps", "sketch", "serving",
         "compression"}
    )

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        parts = set(ctx.path_parts)
        if "repro" not in parts or not (parts & self._KERNEL_PACKAGES):
            return
        for call in ctx.calls:
            qualname = ctx.qualname(call.func)
            if qualname not in self._ALLOCATORS:
                continue
            dtype_position = self._ALLOCATORS[qualname]
            if len(call.args) > dtype_position:
                continue
            if _has_keyword(call, "dtype") or _has_star_kwargs(call):
                continue
            yield self.finding(
                ctx,
                call,
                f"{qualname}() without an explicit dtype in a kernel "
                "path; accumulator width is a contract, not a default",
            )


@register
class PSSequenceToken(Rule):
    """RP006: PS push handlers/callers thread the per-round seq token."""

    code = "RP006"
    name = "ps-seq-token"
    summary = (
        "handle_push/push_row (and the slab, sketch, and windowed "
        "variants) take and use a seq parameter; every call site "
        "forwards seq="
    )
    invariant = (
        "idempotent PS pushes under retry/duplication (PR 3 recovery: "
        "faulted runs stay bit-identical to fault-free runs)"
    )

    @staticmethod
    def derive_seams(project: Project) -> tuple[frozenset[str], frozenset[str]]:
        """(handler names, pusher names) computed from the call graph.

        A *handler* is any ``ps/`` function named ``handle_push*`` — it
        must accept *and read* ``seq``.  A *pusher* is any other ``ps/``
        function that calls a handler — the client half of the
        idempotency pairing, which must accept ``seq`` to forward it —
        found by following the edges instead of maintaining a name list.
        """
        in_ps = [
            fn for fn in project.functions.values() if project.in_package(fn, "ps")
        ]
        handlers = {
            fn.qualname: fn.name for fn in in_ps if fn.name.startswith("handle_push")
        }
        pushers = {
            fn.name
            for fn in in_ps
            if fn.qualname not in handlers
            and project.callees_of(fn.qualname) & handlers.keys()
        }
        return frozenset(handlers.values()), frozenset(pushers)

    def check_project(self, project: Project) -> Iterator[Finding]:
        handlers, pushers = self.derive_seams(project)
        seam_names = handlers | pushers
        for ctx in project.modules.values():
            if "ps" in ctx.path_parts:
                for node in ast.walk(ctx.tree):
                    if not isinstance(node, ast.FunctionDef):
                        continue
                    if node.name in handlers:
                        yield from self._check_handler_def(ctx, node)
                    elif node.name in pushers:
                        yield from self._check_pusher_def(ctx, node)
            for call in ctx.calls:
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in seam_names
                    and not _has_keyword(call, "seq")
                    and not _has_star_kwargs(call)
                ):
                    yield self.finding(
                        ctx,
                        call,
                        f"{func.attr}() call without seq=; a retried "
                        "delivery of this push would double-count",
                    )

    def _check_handler_def(
        self, ctx: ModuleContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        if "seq" not in self._arg_names(node):
            yield self.finding(
                ctx,
                node,
                f"{node.name}() without a seq parameter cannot deduplicate "
                "retried deliveries",
            )
            return
        used = any(
            isinstance(sub, ast.Name)
            and sub.id == "seq"
            and isinstance(sub.ctx, ast.Load)
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if not used:
            yield self.finding(
                ctx,
                node,
                f"{node.name}() accepts seq but never checks it; the "
                "idempotency token must gate the additive merge",
            )

    def _check_pusher_def(
        self, ctx: ModuleContext, node: ast.FunctionDef
    ) -> Iterator[Finding]:
        if "seq" not in self._arg_names(node):
            yield self.finding(
                ctx,
                node,
                f"{node.name}() without a seq parameter cannot forward "
                "the idempotency token to the server-side handler",
            )

    @staticmethod
    def _arg_names(node: ast.FunctionDef) -> set[str]:
        args = node.args
        return {
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
