"""Whole-program model: symbol table, import graph, and call graph.

reprolint v1 judged every module alone, so cross-module contracts (the
wall-clock seam, the PS push pairing, the codec pre-encode seam) had to
be *restated* as hand-maintained whitelists inside each rule — and every
transport PR re-extended them.  :class:`Project` replaces the whitelists
with derivation: it parses every module of the linted tree once, builds

* a **symbol table** — every top-level function, class, and method with
  its dotted qualname (``repro.serving.runtime.ServingRuntime._flush``),
  re-exports chased through package ``__init__`` chains;
* an **import graph** — module → imported module, relative imports
  resolved against the package layout, ``if TYPE_CHECKING:`` imports
  tagged so layering rules can skip them;
* a **call graph** — every call site resolved to a dotted target via
  the alias table, ``self`` attributes, and locally-inferred types
  (constructor assignments, parameter/return annotations), so
  ``self.store.current()`` resolves to ``ModelStore.current`` and the
  ``send`` closures inside ``push_row`` still connect it to
  ``PSServer.handle_push``.

Graph rules (RP007–RP010) and the derived RP002/RP006 seam sets are
built on these tables; :mod:`dataflow` adds the intraprocedural layer.

The analyzer stays stdlib-only.  The declared layering contract lives in
``pyproject.toml`` under ``[tool.reprolint]`` (see :class:`LintConfig`);
when no pyproject is found the built-in defaults — which the patrol
tests pin against the declared ones — apply.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .core import ModuleContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "ImportEdge",
    "LintConfig",
    "Project",
    "ProjectFunction",
    "module_name_for",
]

#: The RP002 clock seam as declared in pyproject.toml (and mirrored in
#: the rule's manual fallback whitelist — the patrol test pins both).
DEFAULT_CLOCK_SEAM: tuple[str, ...] = ("repro/utils/timing.py",)

#: The declared import DAG: package → packages/top-level modules it must
#: never import.  Kernel packages stay importable without the
#: orchestration stack; serving never grows a chaos dependency.
DEFAULT_LAYERING: Mapping[str, tuple[str, ...]] = {
    "repro.tree": ("repro.distributed", "repro.serving", "repro.chaos", "asyncio"),
    "repro.histogram": (
        "repro.distributed",
        "repro.serving",
        "repro.chaos",
        "asyncio",
    ),
    "repro.sketch": ("repro.distributed", "repro.serving", "repro.chaos", "asyncio"),
    "repro.compression": (
        "repro.distributed",
        "repro.serving",
        "repro.chaos",
        "asyncio",
    ),
    "repro.serving": ("repro.chaos",),
}


@dataclass(frozen=True)
class LintConfig:
    """Declared whole-program contracts, normally read from pyproject.

    Attributes:
        clock_seam: Module suffixes allowed to read the clock directly
            (the RP002 roots; functions transitively called *only* from
            these modules inherit the allowance).
        layering: Package qualname → forbidden import prefixes (RP009).
    """

    clock_seam: tuple[str, ...] = DEFAULT_CLOCK_SEAM
    layering: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERING)
    )

    @classmethod
    def from_pyproject(cls, path: Path) -> "LintConfig":
        """Parse ``[tool.reprolint]`` out of a pyproject.toml file."""
        data = _read_toml_tool_reprolint(path.read_text(encoding="utf-8"))
        if data is None:
            return cls()
        clock_seam = tuple(data.get("clock-seam", DEFAULT_CLOCK_SEAM))
        raw_layering = data.get("layering")
        layering: Mapping[str, tuple[str, ...]]
        if raw_layering is None:
            layering = dict(DEFAULT_LAYERING)
        else:
            layering = {
                package: tuple(forbidden)
                for package, forbidden in sorted(raw_layering.items())
            }
        return cls(clock_seam=clock_seam, layering=layering)

    @classmethod
    def discover(cls, start: Path) -> "LintConfig":
        """Walk up from ``start`` for a pyproject declaring the contract."""
        current = start.resolve()
        if current.is_file():
            current = current.parent
        for candidate in (current, *current.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                try:
                    return cls.from_pyproject(pyproject)
                except OSError:  # pragma: no cover - racy unlink
                    break
        return cls()


def _read_toml_tool_reprolint(text: str) -> dict | None:
    """The ``[tool.reprolint]`` tables as a plain dict, or None if absent.

    Uses :mod:`tomllib` when available (3.11+); on 3.10 falls back to a
    deliberately tiny parser that understands exactly the shape this
    config uses — ``[tool.reprolint*]`` sections holding
    ``key = ["string", ...]`` entries (single- or multi-line arrays).
    """
    try:
        import tomllib
    except ImportError:  # pragma: no cover - 3.10 fallback
        return _read_toml_minimal(text)
    try:
        document = tomllib.loads(text)
    except tomllib.TOMLDecodeError:
        return None
    tool = document.get("tool", {})
    section = tool.get("reprolint")
    return section if isinstance(section, dict) else None


_SECTION_RE = re.compile(r"^\[([^\]]+)\]\s*$")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')


def _read_toml_minimal(text: str) -> dict | None:  # pragma: no cover
    """3.10 fallback: parse only the ``[tool.reprolint*]`` sections."""
    result: dict = {}
    section: dict | None = None
    pending_key: str | None = None
    pending_values: list[str] = []
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip() if '"' not in raw_line else (
            raw_line.strip()
        )
        if not line:
            continue
        match = _SECTION_RE.match(line)
        if match is not None:
            name = match.group(1).strip().strip('"')
            pending_key = None
            if name == "tool.reprolint":
                section = result
            elif name.startswith("tool.reprolint."):
                sub_name = name[len("tool.reprolint.") :].strip('"')
                section = result.setdefault(sub_name, {})
            else:
                section = None
            continue
        if section is None:
            continue
        if pending_key is not None:
            pending_values.extend(_STRING_RE.findall(line))
            if "]" in line:
                section[pending_key] = list(pending_values)
                pending_key = None
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            key = key.strip().strip('"')
            value = value.strip()
            if value.startswith("["):
                values = _STRING_RE.findall(value)
                if "]" in value:
                    section[key] = values
                else:
                    pending_key, pending_values = key, list(values)
            else:
                strings = _STRING_RE.findall(value)
                if strings:
                    section[key] = strings[0]
    return result or None


# ----------------------------------------------------------------------
# naming
# ----------------------------------------------------------------------


def module_name_for(rel_path: str) -> str:
    """Dotted module qualname for a lint-relative path.

    ``src/repro/serving/runtime.py`` → ``repro.serving.runtime`` (the
    path is anchored at the first ``repro`` component so the same module
    gets the same qualname whether linted as ``src`` or ``src/repro``);
    paths without a ``repro`` component fall back to their dotted stem.
    """
    parts = [part for part in rel_path.replace("\\", "/").split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[parts.index("repro") :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel_path


@dataclass(frozen=True)
class ImportEdge:
    """One import statement edge out of a module.

    Attributes:
        target: Resolved dotted target — a project module qualname when
            the import stays inside the tree, otherwise the external
            dotted path as written (``asyncio``, ``numpy.random``).
        lineno: 1-based line of the import statement.
        col: 0-based column of the import statement.
        type_checking: True when the import sits under an
            ``if TYPE_CHECKING:`` guard (annotation-only; layering and
            cycle analysis skip it).
        deferred: True when the import statement sits inside a function
            body.  A deferred import is the sanctioned cycle-breaking
            idiom, so cycle analysis skips it — but it is still a real
            runtime dependency, so layering checks count it.
    """

    target: str
    lineno: int
    col: int
    type_checking: bool
    deferred: bool = False


@dataclass
class CallSite:
    """One call expression inside a project function.

    Attributes:
        node: The ``ast.Call``.
        owner: Qualname of the enclosing project function (module-level
            calls belong to the ``<module>`` pseudo-function).
        callee: Resolved dotted target, or None when the receiver could
            not be typed.
        tail: Last name segment of the called expression (``push_row``
            for ``self.group.push_row`` even when unresolved) — the
            name-based rules match on this.
        awaited: True when the call is directly awaited (an awaited
            call suspends instead of blocking the loop).
    """

    node: ast.Call
    owner: str
    callee: str | None
    tail: str
    awaited: bool


@dataclass
class ProjectFunction:
    """One function/method (or the module-level pseudo-function)."""

    qualname: str
    module: str
    rel_path: str
    node: ast.AST
    is_async: bool
    is_method: bool
    callsites: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One top-level class: methods, bases, and inferred attribute types."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)
    bases: list[str] = field(default_factory=list)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Element type of container attributes (``self.servers[i]`` reads).
    elem_types: dict[str, str] = field(default_factory=dict)


class Project:
    """The whole-program tables built over one lint run's modules.

    Args:
        contexts: Parsed modules (rel_path → :class:`ModuleContext`);
            modules that collide on qualname keep the first occurrence
            in sorted rel-path order (deterministic).
        config: Declared contracts; defaults let fixture projects run
            without a pyproject.
    """

    MODULE_FUNCTION = "<module>"

    def __init__(
        self,
        contexts: Iterable[ModuleContext],
        config: LintConfig | None = None,
    ) -> None:
        self.config = config or LintConfig()
        self.modules: dict[str, ModuleContext] = {}
        self.module_names: dict[str, str] = {}  # rel_path -> qualname
        self._packages: set[str] = set()
        for ctx in sorted(contexts, key=lambda c: c.rel_path):
            name = module_name_for(ctx.rel_path)
            if name in self.modules:
                continue
            self.modules[name] = ctx
            self.module_names[ctx.rel_path] = name
            if ctx.rel_path.endswith("__init__.py"):
                self._packages.add(name)

        self.functions: dict[str, ProjectFunction] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.imports: dict[str, list[ImportEdge]] = {}
        self._module_symbols: dict[str, dict[str, str]] = {}
        self._return_types: dict[str, str] = {}

        for name in self.modules:
            self._collect_imports(name)
        for name in self.modules:
            self._collect_symbols(name)
        for info in self.classes.values():
            self._infer_attr_types(info)
        for fn in self.functions.values():
            self._collect_return_type(fn)
        for name in self.modules:
            self._collect_calls(name)

        self._callers: dict[str, set[str]] = {}
        self._callees: dict[str, set[str]] = {}
        self._fn_by_node: dict[int, ProjectFunction] = {}
        for fn in self.functions.values():
            self._fn_by_node[id(fn.node)] = fn
            for site in fn.callsites:
                if site.callee is not None and site.callee in self.functions:
                    self._callees.setdefault(fn.qualname, set()).add(site.callee)
                    self._callers.setdefault(site.callee, set()).add(fn.qualname)

    # ------------------------------------------------------------------
    # imports
    # ------------------------------------------------------------------

    def _is_module(self, dotted: str) -> bool:
        return dotted in self.modules

    def _anchor_parts(self, module: str, level: int) -> list[str]:
        parts = module.split(".")
        if module in self._packages:
            # Inside a package __init__, level 1 is the package itself.
            drop = level - 1
        else:
            drop = level
        return parts[: len(parts) - drop] if drop else parts

    def _collect_imports(self, module: str) -> None:
        ctx = self.modules[module]
        edges: list[ImportEdge] = []
        guarded = self._type_checking_lines(ctx)
        deferred_lines = self._function_body_lines(ctx)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    edges.append(
                        ImportEdge(
                            target=alias.name,
                            lineno=node.lineno,
                            col=node.col_offset,
                            type_checking=node.lineno in guarded,
                            deferred=node.lineno in deferred_lines,
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    anchor = self._anchor_parts(module, node.level)
                    base = ".".join(
                        anchor + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                if not base:
                    continue
                for alias in node.names:
                    # `from pkg import sub` imports the submodule, not a
                    # symbol of pkg/__init__ — edge to the submodule so
                    # package re-export hubs do not read as cycles.
                    sub = f"{base}.{alias.name}"
                    target = sub if self._is_module(sub) else base
                    edges.append(
                        ImportEdge(
                            target=target,
                            lineno=node.lineno,
                            col=node.col_offset,
                            type_checking=node.lineno in guarded,
                            deferred=node.lineno in deferred_lines,
                        )
                    )
        self.imports[module] = edges

    @staticmethod
    def _function_body_lines(ctx: ModuleContext) -> set[int]:
        """Lines of import statements that sit inside a function body."""
        lines: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        lines.add(child.lineno)
        return lines

    @staticmethod
    def _type_checking_lines(ctx: ModuleContext) -> set[int]:
        lines: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If):
                continue
            test = node.test
            is_guard = (
                isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            ) or (
                isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
            )
            if is_guard:
                for child in ast.walk(node):
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        lines.add(child.lineno)
        return lines

    # ------------------------------------------------------------------
    # symbols
    # ------------------------------------------------------------------

    def _collect_symbols(self, module: str) -> None:
        ctx = self.modules[module]
        symbols: dict[str, str] = {}
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{node.name}"
                symbols[node.name] = qual
                self.functions[qual] = ProjectFunction(
                    qualname=qual,
                    module=module,
                    rel_path=ctx.rel_path,
                    node=node,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    is_method=False,
                )
            elif isinstance(node, ast.ClassDef):
                qual = f"{module}.{node.name}"
                symbols[node.name] = qual
                info = ClassInfo(qualname=qual, module=module, node=node)
                for base in node.bases:
                    base_name = _dotted_text(base)
                    if base_name is not None:
                        info.bases.append(base_name)
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        meth_qual = f"{qual}.{item.name}"
                        info.methods[item.name] = meth_qual
                        self.functions[meth_qual] = ProjectFunction(
                            qualname=meth_qual,
                            module=module,
                            rel_path=ctx.rel_path,
                            node=item,
                            is_async=isinstance(item, ast.AsyncFunctionDef),
                            is_method=True,
                        )
                self.classes[qual] = info
        mod_qual = f"{module}.{self.MODULE_FUNCTION}"
        self.functions[mod_qual] = ProjectFunction(
            qualname=mod_qual,
            module=module,
            rel_path=ctx.rel_path,
            node=ctx.tree,
            is_async=False,
            is_method=False,
        )
        self._module_symbols[module] = symbols

    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> str | None:
        """Resolve ``name`` as seen from ``module`` to a dotted qualname.

        Chases re-exports: ``repro.analysis.lint_paths`` follows the
        ``from .reprolint import lint_paths`` chain down to
        ``repro.analysis.reprolint.core.lint_paths``.  Returns an
        external dotted path unchanged (``time.sleep``) and None for
        plain locals/builtins.
        """
        if (module, name) in _seen:
            return None
        seen = _seen | {(module, name)}
        symbols = self._module_symbols.get(module, {})
        if name in symbols:
            return symbols[name]
        ctx = self.modules.get(module)
        if ctx is None:
            return None
        target = self._import_target(ctx, module, name)
        if target is None:
            return None
        return self._canonicalize(target, seen)

    def _import_target(
        self, ctx: ModuleContext, module: str, name: str
    ) -> str | None:
        """Absolute dotted target of an imported local name, if any."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if local == name:
                        return alias.name if alias.asname else alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    anchor = self._anchor_parts(module, node.level)
                    base = ".".join(
                        anchor + ([node.module] if node.module else [])
                    )
                else:
                    base = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    if local == name and alias.name != "*":
                        return f"{base}.{alias.name}" if base else alias.name
        return None

    def _canonicalize(
        self, dotted: str, seen: frozenset[tuple[str, str]]
    ) -> str:
        """Rewrite a dotted path through project re-export chains."""
        parts = dotted.split(".")
        # Longest project-module prefix wins (repro.ps.group before
        # repro.ps, so symbols resolve in the defining module).
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if self._is_module(prefix):
                rest = parts[cut:]
                if not rest:
                    return prefix
                resolved = self.resolve_symbol(prefix, rest[0], seen)
                if resolved is None:
                    return dotted
                return ".".join([resolved, *rest[1:]])
        return dotted

    # ------------------------------------------------------------------
    # type inference
    # ------------------------------------------------------------------

    def _class_of_annotation(
        self, module: str, annotation: ast.expr | None
    ) -> str | None:
        """Project class named by an annotation (handles strings/unions)."""
        if annotation is None:
            return None
        text: str | None
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            text = annotation.value
        else:
            text = _dotted_text(annotation)
            if text is None and isinstance(annotation, ast.BinOp):
                # X | None unions: try the left arm.
                text = _dotted_text(annotation.left)
            if text is None and isinstance(annotation, ast.Subscript):
                text = _dotted_text(annotation.value)
        if text is None:
            return None
        # Strip forward-reference noise: quotes, unions, subscripts.
        text = text.strip().strip("'\"")
        text = text.split("[")[0].split("|")[0].strip().strip("'\"")
        if not text or not re.fullmatch(r"[A-Za-z_][\w.]*", text):
            return None
        head, _, rest = text.partition(".")
        resolved = self.resolve_symbol(module, head)
        if resolved is not None and rest:
            resolved = f"{resolved}.{rest}"
        elif resolved is None:
            resolved = text if text in self.classes else None
        return resolved if resolved in self.classes else None

    def _infer_attr_types(self, info: ClassInfo) -> None:
        module = info.module
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                cls = self._class_of_annotation(module, item.annotation)
                if cls is not None:
                    info.attr_types[item.target.id] = cls
        for item in info.node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            param_types: dict[str, str] = {}
            for arg in (
                *item.args.posonlyargs,
                *item.args.args,
                *item.args.kwonlyargs,
            ):
                cls = self._class_of_annotation(module, arg.annotation)
                if cls is not None:
                    param_types[arg.arg] = cls
            for sub in ast.walk(item):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value, annotation = (
                        sub.target,
                        sub.value,
                        sub.annotation,
                    )
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                cls = self._class_of_annotation(module, annotation)
                if cls is None and isinstance(value, ast.Call):
                    callee = self._resolve_expr(module, value.func, None, info)
                    if callee in self.classes:
                        cls = callee
                if (
                    cls is None
                    and isinstance(value, ast.Name)
                    and value.id in param_types
                ):
                    cls = param_types[value.id]
                if cls is not None and attr not in info.attr_types:
                    info.attr_types[attr] = cls
                elem = self._elem_of_value(module, value, annotation, info)
                if elem is not None and attr not in info.elem_types:
                    info.elem_types[attr] = elem

    _CONTAINER_HEADS = {"list", "List", "Sequence", "tuple", "Tuple", "dict", "Dict"}

    def _elem_of_value(
        self,
        module: str,
        value: ast.expr | None,
        annotation: ast.expr | None,
        info: ClassInfo | None,
    ) -> str | None:
        """Element class of a container attribute, when inferable.

        Covers the two idioms the repo uses: comprehension/list-literal
        construction (``self.servers = [PSServer(s) for s in ...]``) and
        ``list[T]`` / ``dict[K, V]`` annotations.
        """
        if isinstance(annotation, ast.Subscript):
            head = _dotted_text(annotation.value)
            if head is not None and head.split(".")[-1] in self._CONTAINER_HEADS:
                inner = annotation.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[-1]  # dict[K, V] -> value type
                cls = self._class_of_annotation(module, inner)
                if cls is not None:
                    return cls
        elt: ast.expr | None = None
        if isinstance(value, ast.ListComp):
            elt = value.elt
        elif isinstance(value, (ast.List, ast.Tuple)) and value.elts:
            elt = value.elts[0]
        if isinstance(elt, ast.Call):
            callee = self._resolve_expr(module, elt.func, None, info)
            if callee in self.classes:
                return callee
        return None

    def _collect_return_type(self, fn: ProjectFunction) -> None:
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls = self._class_of_annotation(fn.module, node.returns)
            if cls is not None:
                self._return_types[fn.qualname] = cls

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------

    def _collect_calls(self, module: str) -> None:
        ctx = self.modules[module]
        owner_stack: list[str] = [f"{module}.{self.MODULE_FUNCTION}"]
        class_stack: list[ClassInfo | None] = [None]

        def visit(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                info = self.classes.get(f"{module}.{node.name}")
                class_stack.append(info)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                class_stack.pop()
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = class_stack[-1]
                qual = (
                    f"{info.qualname}.{node.name}"
                    if info is not None
                    else f"{module}.{node.name}"
                )
                if qual in self.functions and self.functions[
                    qual
                ].node is node:
                    owner_stack.append(qual)
                    for child in ast.iter_child_nodes(node):
                        visit(child)
                    owner_stack.pop()
                else:
                    # Nested def: calls belong to the enclosing function
                    # (closures like push_row's `send` run when it runs).
                    for child in ast.iter_child_nodes(node):
                        visit(child)
                return
            if isinstance(node, ast.Call):
                owner = owner_stack[-1]
                fn = self.functions[owner]
                info = class_stack[-1] if fn.is_method else None
                env = self._local_types(fn, info)
                callee = self._resolve_expr(module, node.func, env, info)
                tail = _call_tail(node.func)
                parent = self.modules[module].parent(node)
                fn.callsites.append(
                    CallSite(
                        node=node,
                        owner=owner,
                        callee=callee,
                        tail=tail or "",
                        awaited=isinstance(parent, ast.Await),
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(ctx.tree)

    def _local_types(
        self, fn: ProjectFunction, info: ClassInfo | None
    ) -> dict[str, str]:
        cached = getattr(fn, "_local_types_cache", None)
        if cached is not None:
            return cached
        env: dict[str, str] = {}
        node = fn.node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ):
                cls = self._class_of_annotation(fn.module, arg.annotation)
                if cls is not None:
                    env[arg.arg] = cls
            for sub in ast.walk(node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target, value = sub.targets[0], sub.value
                elif isinstance(sub, ast.AnnAssign):
                    target, value, annotation = (
                        sub.target,
                        sub.value,
                        sub.annotation,
                    )
                if not isinstance(target, ast.Name):
                    continue
                cls = self._class_of_annotation(fn.module, annotation)
                if cls is None and isinstance(value, ast.Call):
                    callee = self._resolve_expr(
                        fn.module, value.func, env, info
                    )
                    if callee in self.classes:
                        cls = callee
                    elif callee in self._return_types:
                        cls = self._return_types[callee]
                if (
                    cls is None
                    and isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and info is not None
                ):
                    cls = info.attr_types.get(value.attr)
                if (
                    cls is None
                    and isinstance(value, ast.Subscript)
                    and isinstance(value.value, ast.Attribute)
                    and isinstance(value.value.value, ast.Name)
                    and value.value.value.id == "self"
                    and info is not None
                ):
                    # ``server = self.servers[i]`` — container element.
                    cls = info.elem_types.get(value.value.attr)
                if cls is not None:
                    env[target.id] = cls
        fn._local_types_cache = env  # type: ignore[attr-defined]
        return env

    def _resolve_expr(
        self,
        module: str,
        expr: ast.expr,
        env: dict[str, str] | None,
        info: ClassInfo | None,
    ) -> str | None:
        """Resolve a call target expression to a dotted qualname."""
        chain: list[str] = []
        current: ast.expr = expr
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        chain.reverse()
        if not isinstance(current, ast.Name):
            return None
        base = current.id
        if not chain:
            return self.resolve_symbol(module, base)
        if base == "self" and info is not None:
            return self._resolve_on_class(info.qualname, chain)
        if env is not None and base in env:
            return self._resolve_on_class(env[base], chain)
        resolved = self.resolve_symbol(module, base)
        if resolved is None:
            return None
        if resolved in self.classes and len(chain) >= 1:
            # ClassName.method / ClassName.CONST style access.
            return self._resolve_on_class(resolved, chain)
        return ".".join([resolved, *chain])

    def _resolve_on_class(
        self, class_qual: str, chain: Sequence[str]
    ) -> str | None:
        current = class_qual
        for i, attr in enumerate(chain):
            info = self.classes.get(current)
            if info is None:
                return None
            last = i == len(chain) - 1
            method = self._lookup_method(info, attr)
            if last:
                if method is not None:
                    return method
                attr_cls = info.attr_types.get(attr)
                if attr_cls is not None:
                    return attr_cls
                return f"{current}.{attr}"
            attr_cls = info.attr_types.get(attr)
            if attr_cls is None:
                return None
            current = attr_cls
        return current

    def _lookup_method(self, info: ClassInfo, name: str) -> str | None:
        seen: set[str] = set()
        queue = [info]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                resolved = self.resolve_symbol(current.module, base)
                base_info = self.classes.get(resolved or base)
                if base_info is not None:
                    queue.append(base_info)
        return None

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------

    def context_for(self, rel_path: str) -> ModuleContext | None:
        """The parsed module behind a finding path, if in this project."""
        name = self.module_names.get(rel_path)
        return self.modules.get(name) if name is not None else None

    def function_at(self, rel_path: str, node: ast.AST) -> ProjectFunction | None:
        """The registered function enclosing ``node`` in that module.

        Nested defs resolve to the innermost *registered* function (a
        closure body belongs to its defining method); nodes outside any
        def resolve to the module pseudo-function.
        """
        name = self.module_names.get(rel_path)
        if name is None:
            return None
        ctx = self.modules[name]
        for ancestor in ctx.enclosing_functions(node):
            fn = self._fn_by_node.get(id(ancestor))
            if fn is not None:
                return fn
        return self.functions.get(f"{name}.{self.MODULE_FUNCTION}")

    def callees_of(self, qualname: str) -> frozenset[str]:
        """Direct project-internal callees of one function."""
        return frozenset(self._callees.get(qualname, ()))

    def callers_of(self, qualname: str) -> frozenset[str]:
        """Direct project-internal callers of one function."""
        return frozenset(self._callers.get(qualname, ()))

    def transitive_callees(self, qualname: str) -> frozenset[str]:
        """Every project function reachable from ``qualname``."""
        return self._closure(qualname, self._callees)

    def transitive_callers(self, qualname: str) -> frozenset[str]:
        """Every project function that can reach ``qualname``."""
        return self._closure(qualname, self._callers)

    @staticmethod
    def _closure(
        start: str, edges: Mapping[str, set[str]]
    ) -> frozenset[str]:
        seen: set[str] = set()
        queue = [start]
        while queue:
            current = queue.pop()
            for nxt in edges.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    def functions_in_package(self, package_part: str) -> Iterator[ProjectFunction]:
        """Functions whose module path contains ``package_part``."""
        for fn in sorted(self.functions.values(), key=lambda f: f.qualname):
            ctx = self.modules.get(fn.module)
            if ctx is not None and package_part in ctx.path_parts:
                yield fn

    def import_cycles(self) -> list[list[str]]:
        """Cycles among project modules (runtime imports only).

        Returns each cycle as a sorted module list; the list of cycles
        is itself sorted, so findings derived from it are deterministic.
        """
        graph: dict[str, set[str]] = {name: set() for name in self.modules}
        for name, edges in self.imports.items():
            for edge in edges:
                if edge.type_checking or edge.deferred:
                    continue
                if edge.target in self.modules and edge.target != name:
                    graph[name].add(edge.target)
        cycles = [
            sorted(component)
            for component in _strongly_connected(graph)
            if len(component) > 1
        ]
        return sorted(cycles)


def _strongly_connected(graph: Mapping[str, set[str]]) -> list[list[str]]:
    """Tarjan's SCC, iterative, deterministic node order."""
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    result: list[list[str]] = []
    counter = 0

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [
            (root, iter(sorted(graph[root])))
        ]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(sorted(graph[child]))))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                result.append(component)
    return result


def _dotted_text(expr: ast.expr) -> str | None:
    parts: list[str] = []
    current = expr
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def _call_tail(func: ast.expr) -> str | None:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
