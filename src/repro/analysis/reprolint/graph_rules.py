"""Whole-program rules (RP007–RP010) over the project graph.

These rules state contracts no module can be judged against alone,
because the evidence spans modules:

* RP007 ``blocking-call-in-async`` — nothing reachable from an ``async
  def`` in ``serving/`` may block the event loop: ``time.sleep``,
  socket/file I/O, or the scoring kernels themselves.  The *only*
  sanctioned crossing is the score-executor seam (``run_in_executor``
  passes the kernel as an argument, not a call, so the structural check
  admits it without a whitelist).
* RP008 ``wall-clock-taint`` — a value originating at a wall-clock read
  (``utils/timing.py`` or a raw ``time.*``)
  must never flow into a model artifact, PS payload, or persisted
  file.  This is the repo's determinism contract stated as dataflow:
  latencies may be *reported* (wire responses, logs) but never
  *merged into state that training or recovery replays*.
* RP009 ``layering-contract`` — the declared import DAG from
  ``[tool.reprolint.layering]``: kernel packages must not import the
  orchestration layers (``distributed``/``serving``/``chaos``/
  ``asyncio``), ``serving`` must not import ``chaos``, and any
  runtime import cycle between project modules is a finding.
* RP010 ``lossy-codec-seam`` — a compressed dense delta may reach the
  fabric only through the pre-encode seams (``push_window_rows`` et
  al.); a call-graph path from a codec encode
  (``compression.lowprec.compress_*``) to a raw ``push_row`` outside
  the PS transport means double quantization and a broken
  decode-merge contract.

Each finding is anchored at the offending call/import in *its own*
module, so inline suppressions live next to the code they waive even
when the rule's evidence came from elsewhere in the graph.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Finding, Rule, register
from .dataflow import analyze_taint
from .project import CallSite, Project, ProjectFunction

__all__ = [
    "BlockingCallInAsync",
    "WallClockTaint",
    "LayeringContract",
    "LossyCodecSeam",
]


@register
class BlockingCallInAsync(Rule):
    """RP007: the serving event loop never blocks."""

    code = "RP007"
    name = "blocking-call-in-async"
    summary = (
        "no time.sleep, socket/file I/O, or scoring kernels reachable "
        "from an async def in serving/ — blocking work crosses only the "
        "score-executor seam"
    )
    invariant = (
        "the serving runtime's latency envelope (PR 9): one stalled "
        "coroutine stalls every in-flight request on the loop"
    )

    #: Resolved call targets that block the calling thread.
    _BLOCKING_CALLS = frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "subprocess.run",
            "subprocess.call",
            "subprocess.check_call",
            "subprocess.check_output",
            "subprocess.Popen",
            "urllib.request.urlopen",
            "socket.create_connection",
        }
    )
    #: Attribute tails that block regardless of receiver type: socket
    #: rendezvous/transfer methods and whole-file Path I/O.  ``send`` is
    #: deliberately absent (generator ``.send`` is loop-safe and common).
    _BLOCKING_TAILS = frozenset(
        {
            "connect",
            "accept",
            "recv",
            "recv_into",
            "recvfrom",
            "sendall",
            "sendto",
            "read_text",
            "write_text",
            "read_bytes",
            "write_bytes",
        }
    )
    #: The scoring kernels: CPU-bound minutes of work on big batches.
    _KERNEL_TAILS = frozenset({"predict_raw", "score_into"})
    #: Heavy loads (JSON parse + tree compile) — blocking by contract.
    _LOAD_SUFFIXES = ("ModelStore.load", "GBDTModel.load")

    def check_project(self, project: Project) -> Iterator[Finding]:
        roots = [
            fn
            for fn in sorted(
                project.functions.values(), key=lambda f: f.qualname
            )
            if fn.is_async and project.in_package(fn, "serving")
        ]
        reported: set[tuple[str, int, int]] = set()
        for root in roots:
            yield from self._scan(project, root, root, set(), reported)

    def _scan(
        self,
        project: Project,
        root: ProjectFunction,
        fn: ProjectFunction,
        visited: set[str],
        reported: set[tuple[str, int, int]],
    ) -> Iterator[Finding]:
        if fn.qualname in visited:
            return
        visited.add(fn.qualname)
        for site in fn.callsites:
            why = self._blocks(site)
            if why is not None and not site.awaited:
                key = (fn.rel_path, site.node.lineno, site.node.col_offset)
                if key not in reported:
                    reported.add(key)
                    via = (
                        ""
                        if fn.qualname == root.qualname
                        else f" via {fn.qualname}"
                    )
                    yield self.finding(
                        project.modules[fn.module],
                        site.node,
                        f"{why} reachable from async "
                        f"{root.qualname}{via}; blocking work must cross "
                        "the run_in_executor seam, not the event loop",
                    )
            callee = site.callee
            if callee is not None and callee in project.functions:
                yield from self._scan(
                    project, root, project.functions[callee], visited, reported
                )

    def _blocks(self, site: CallSite) -> str | None:
        callee = site.callee or ""
        if callee in self._BLOCKING_CALLS:
            return f"blocking call {callee}()"
        if callee.endswith(self._LOAD_SUFFIXES):
            return f"heavyweight model load {callee}()"
        if site.tail in self._KERNEL_TAILS:
            return f"scoring kernel {site.tail}()"
        if site.tail in self._BLOCKING_TAILS:
            return f"blocking I/O call .{site.tail}()"
        if site.tail == "open" and isinstance(site.node.func, ast.Name):
            return "blocking file open()"
        return None


@register
class WallClockTaint(Rule):
    """RP008: wall-clock values never reach persistent/replayed state."""

    code = "RP008"
    name = "wall-clock-taint"
    summary = (
        "values originating at utils/timing.py or raw "
        "time.* reads must not flow into model artifacts, PS payloads, "
        "or persisted files"
    )
    invariant = (
        "replayable artifacts: anything training or recovery reads back "
        "must be derivable from the seed, never from when the run ran"
    )

    #: Calls whose *result* is wall-clock data.
    _SOURCE_CALLS = frozenset(
        {
            "repro.utils.timing.wall_clock",
            "repro.utils.timing.wall_clock_ns",
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
        }
    )
    #: Resolved persistence sinks.  ``json.dumps`` is deliberately not
    #: here: serving wire responses legitimately carry latencies.
    _SINK_CALLS = frozenset(
        {
            "json.dump",
            "pickle.dump",
            "pickle.dumps",
            "numpy.save",
            "numpy.savez",
            "numpy.savez_compressed",
        }
    )
    #: Attribute tails that persist their arguments, plus the PS payload
    #: surface (both halves, so a taint is caught whichever side of the
    #: transport the flow enters).
    _SINK_TAILS = frozenset(
        {
            "write_text",
            "write_bytes",
            "push_row",
            "push_slab",
            "push_sketch",
            "push_window",
            "push_window_rows",
            "handle_push",
            "handle_push_slab",
            "handle_push_sketch",
            "handle_push_window",
        }
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if not fn.callsites:
                continue
            sites = {id(site.node): site for site in fn.callsites}

            def source_of(call: ast.Call) -> str | None:
                site = sites.get(id(call))
                if site is not None and site.callee in self._SOURCE_CALLS:
                    return site.callee
                return None

            if not any(
                site.callee in self._SOURCE_CALLS
                for site in fn.callsites
            ):
                continue  # no source in this function, nothing can flow
            result = analyze_taint(fn.node, source_of)
            for site in fn.callsites:
                if not self._is_sink(site):
                    continue
                taints = result.call_args.get(id(site.node)) or frozenset()
                if not taints:
                    continue
                # One finding per sink call site, naming every source
                # read that reaches it (earliest first).
                origins = ", ".join(
                    f"{t.source}() (line {t.line})"
                    for t in sorted(taints, key=lambda t: (t.line, t.source))
                )
                yield self.finding(
                    project.modules[fn.module],
                    site.node,
                    f"wall-clock value from {origins} flows into "
                    f"{site.callee or site.tail}(); persisted/replayed "
                    "state must not depend on when the run ran",
                )

    def _is_sink(self, site: CallSite) -> bool:
        return site.callee in self._SINK_CALLS or site.tail in self._SINK_TAILS


@register
class LayeringContract(Rule):
    """RP009: the declared import DAG holds, and stays acyclic."""

    code = "RP009"
    name = "layering-contract"
    summary = (
        "kernel packages (tree/histogram/sketch/compression) must not "
        "import distributed/serving/chaos/asyncio; serving must not "
        "import chaos; runtime import cycles are findings"
    )
    invariant = (
        "kernels stay host-agnostic (the 2-D sharding and serving PRs "
        "embed them unchanged); orchestration depends on kernels, never "
        "the reverse"
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        layering = project.config.layering
        for module in sorted(project.modules):
            constrained = [
                (pkg, forbidden)
                for pkg, forbidden in layering.items()
                if module == pkg or module.startswith(pkg + ".")
            ]
            if not constrained:
                continue
            ctx = project.modules[module]
            for edge in project.imports.get(module, ()):
                if edge.type_checking:
                    continue
                for pkg, forbidden in constrained:
                    hit = next(
                        (
                            f
                            for f in forbidden
                            if edge.target == f
                            or edge.target.startswith(f + ".")
                        ),
                        None,
                    )
                    if hit is not None:
                        yield Finding(
                            rule=self.code,
                            name=self.name,
                            message=(
                                f"{module} imports {edge.target}, but the "
                                f"declared layering forbids {pkg} -> {hit}; "
                                "kernels must not depend on orchestration"
                            ),
                            path=ctx.rel_path,
                            line=edge.lineno,
                            col=edge.col,
                        )
                        break
        for cycle in project.import_cycles():
            anchor = project.modules[cycle[0]]
            yield self.finding(  # a Module node has no position: line 1, col 0
                anchor,
                anchor.tree,
                "runtime import cycle among project modules: "
                + " <-> ".join(cycle)
                + "; break it with a deferred import or an interface module",
            )


@register
class LossyCodecSeam(Rule):
    """RP010: encoded deltas reach the fabric only via the PS seams."""

    code = "RP010"
    name = "lossy-codec-seam"
    summary = (
        "no call-graph path from compression.lowprec.compress_* to a "
        "raw push_row outside the PS transport — pre-encoded payloads "
        "go through push_window_rows"
    )
    invariant = (
        "single quantization per delta (PR 8): push_row re-encodes its "
        "input, so feeding it an already-compressed payload double-"
        "quantizes and breaks the unbiased decode-merge contract"
    )

    _ENCODE_SUFFIXES = (
        "compression.lowprec.compress_flat",
        "compression.lowprec.compress_blocked",
    )

    def check_project(self, project: Project) -> Iterator[Finding]:
        # Functions outside the PS transport that issue a raw push_row.
        raw_pushers = {
            fn.qualname
            for fn in project.functions.values()
            if not project.in_package(fn, "ps")
            and any(site.tail == "push_row" for site in fn.callsites)
        }
        for fn in sorted(project.functions.values(), key=lambda f: f.qualname):
            if project.in_package(fn, "ps") or project.in_package(
                fn, "compression"
            ):
                continue  # the transport and the codec itself are the seam
            encodes = [
                site
                for site in fn.callsites
                if (site.callee or "").endswith(self._ENCODE_SUFFIXES)
            ]
            if not encodes:
                continue
            reach = {fn.qualname} | project.transitive_callees(fn.qualname)
            pushers_hit = sorted(reach & raw_pushers)
            if not pushers_hit:
                continue
            for site in encodes:
                yield self.finding(
                    project.modules[fn.module],
                    site.node,
                    f"codec encode {site.callee}() in {fn.qualname} "
                    f"reaches a raw push_row (via {pushers_hit[0]}); "
                    "pre-encoded payloads must go through the "
                    "push_window_rows seam",
                )
