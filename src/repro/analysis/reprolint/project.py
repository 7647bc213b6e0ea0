"""Whole-program model: symbol table, import graph, and call graph.

Cross-module contracts (the wall-clock seam, the PS push pairing, the
codec pre-encode seam) cannot be judged one module at a time, and
restating them as hand-maintained whitelists inside each rule meant
every transport PR re-extended the lists.  :class:`Project` derives
them instead: every lint run parses the linted tree once and builds

* a **symbol table** — every top-level function, class, and method with
  its dotted qualname (``repro.serving.runtime.ServingRuntime._flush``),
  re-exports chased through package ``__init__`` chains;
* an **import graph** — module → imported module, read off each
  module's import table (:class:`~.core.ImportBinding`: relative
  imports resolved against the package layout, ``if TYPE_CHECKING:``
  and function-level imports tagged so layering and cycle rules can
  tell them apart);
* a **call graph** — every call site resolved to a dotted target via
  the import table, ``self`` attributes, and locally-inferred types
  (constructor assignments, parameter/return annotations), so
  ``self.store.current()`` resolves to ``ModelStore.current`` and the
  ``send`` closures inside ``push_row`` still connect it to
  ``PSServer.handle_push``.

Graph rules (RP007–RP010) and the derived RP002/RP006 seam sets are
built on these tables; :mod:`dataflow` adds the intraprocedural layer.

The analyzer stays stdlib-only.  The declared contract — the clock seam
and the layering DAG — has exactly one statement, ``[tool.reprolint]``
in ``pyproject.toml`` (see :class:`LintConfig`); a tree without one is
linted against the empty contract.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TypeGuard

from .core import ModuleContext

__all__ = [
    "CallSite",
    "ClassInfo",
    "ImportEdge",
    "LintConfig",
    "LintConfigError",
    "Project",
    "ProjectFunction",
]


class LintConfigError(ValueError):
    """``[tool.reprolint]`` is unreadable or mis-shaped.

    The message names the file, the key, and what was expected; a
    contract that silently degraded would switch a rule off instead.
    """

    def __init__(self, source: Path, detail: str) -> None:
        super().__init__(f"bad [tool.reprolint] in {source}: {detail}")


def _is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(
        isinstance(item, str) and item for item in value
    )


@dataclass(frozen=True)
class LintConfig:
    """The declared whole-program contract, read from pyproject.

    The default is the *empty* contract: RP002 has no exempt module (a
    clock read anywhere is a finding) and RP009 checks import cycles
    only.

    Attributes:
        clock_seam: Module suffixes allowed to read the clock directly
            (the RP002 roots; functions transitively called *only* from
            these modules inherit the allowance).
        layering: Package qualname → forbidden import prefixes (RP009).
    """

    clock_seam: tuple[str, ...] = ()
    layering: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: object, source: Path) -> LintConfig:
        """Validate a parsed ``[tool.reprolint]`` table (None: absent).

        Raises:
            LintConfigError: Unknown key, or a value of the wrong shape
                (``clock-seam`` is a list of non-empty strings,
                ``layering`` a table of package → list of strings).
        """
        if table is None:
            return cls()
        if not isinstance(table, dict):
            raise LintConfigError(
                source, f"tool.reprolint: expected a table, got {table!r}"
            )
        for key in sorted(table):
            if key not in ("clock-seam", "layering"):
                raise LintConfigError(
                    source, f"{key}: unknown key (known: clock-seam, layering)"
                )
        layering = table.get("layering", {})
        if not isinstance(layering, dict):
            raise LintConfigError(
                source,
                f"layering: expected a table of package = [imports], "
                f"got {layering!r}",
            )
        lists = {"clock-seam": table.get("clock-seam", [])}
        lists.update((f"layering.{pkg}", row) for pkg, row in layering.items())
        for key, value in lists.items():
            if not _is_string_list(value):
                raise LintConfigError(
                    source,
                    f"{key}: expected a list of non-empty strings, got {value!r}",
                )
        return cls(
            clock_seam=tuple(lists["clock-seam"]),
            layering={
                package: tuple(forbidden)
                for package, forbidden in sorted(layering.items())
            },
        )

    @classmethod
    def from_pyproject(cls, path: Path) -> LintConfig:
        """Read and validate ``[tool.reprolint]`` of a pyproject.toml.

        Raises:
            LintConfigError: The file cannot be read or parsed, or the
                table fails :meth:`from_table`.
        """
        try:
            table = _read_tool_reprolint(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # TOMLDecodeError is a ValueError
            raise LintConfigError(path, str(exc)) from exc
        return cls.from_table(table, path)

    @classmethod
    def discover(cls, start: Path) -> LintConfig:
        """The contract of the nearest pyproject.toml at or above ``start``.

        No pyproject.toml, or one without ``[tool.reprolint]``, is the
        empty contract.
        """
        current = start.resolve()
        if current.is_file():
            current = current.parent
        for candidate in (current, *current.parents):
            pyproject = candidate / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls()


def _read_tool_reprolint(text: str) -> object:
    """The ``[tool.reprolint]`` table of a TOML document, None if absent.

    Uses :mod:`tomllib` when available (3.11+); on 3.10
    :func:`_read_toml_minimal` is the only reader.
    """
    try:
        import tomllib
    except ImportError:
        return _read_toml_minimal(text)
    return tomllib.loads(text).get("tool", {}).get("reprolint")


_SECTION_RE = re.compile(r"^\[([^\]]+)\]$")
_STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
#: A basic string (kept) or a ``#`` comment outside one (dropped).
_STRING_OR_COMMENT_RE = re.compile(r'("(?:[^"\\]|\\.)*")|#.*')


def _read_toml_minimal(text: str) -> dict | None:
    """A deliberately tiny TOML reader for the ``[tool.reprolint*]`` tables.

    Understands exactly the shape this config uses — sections holding
    ``key = ["string", ...]`` entries (single- or multi-line arrays,
    ``#`` comments).  Any other value is kept as the text it was written
    as, which no ``[tool.reprolint]`` key accepts, so
    :meth:`LintConfig.from_table` rejects it by name instead of the
    reader dropping it.
    """
    result: dict = {}
    section: dict | None = None
    entry_of: dict | None = None  # the table of the entry being read
    key = value = ""
    for raw_line in text.splitlines():
        line = _STRING_OR_COMMENT_RE.sub(
            lambda found: found.group(1) or "", raw_line
        ).strip()
        if not line:
            continue
        if entry_of is None:
            header = _SECTION_RE.match(line)
            if header is not None:
                name = header.group(1).strip()
                if name == "tool.reprolint":
                    section = result
                elif name.startswith("tool.reprolint."):
                    sub_name = name[len("tool.reprolint.") :].strip('"')
                    section = result.setdefault(sub_name, {})
                else:
                    section = None
                continue
            if section is None or "=" not in line:
                continue
            key, _, value = line.partition("=")
            entry_of, key, value = section, key.strip().strip('"'), value.strip()
        else:
            value += " " + line
        if value.startswith("[") and not value.endswith("]"):
            continue  # the array continues on the next line
        entry_of[key] = _toml_value(value)
        entry_of = None
    if entry_of is not None:  # array never closed: kept as text, so rejected
        entry_of[key] = value
    return result or None


def _toml_value(text: str) -> object:
    """An array of basic strings as a list, one basic string as a str."""
    if text.startswith("[") and text.endswith("]"):
        if not _STRING_RE.sub("", text[1:-1]).strip(", "):
            return _STRING_RE.findall(text)
    else:
        string = _STRING_RE.fullmatch(text)
        if string is not None:
            return string.group(1)
    return text


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------


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
    #: Local name → project class, inferred on the first call site.
    local_types: dict[str, str] | None = None

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
        contexts: Parsed modules; modules that collide on qualname keep
            the first occurrence in sorted rel-path order
            (deterministic).
        config: Declared contract (default: the empty one, so fixture
            projects run without a pyproject).
    """

    MODULE_FUNCTION = "<module>"

    def __init__(
        self,
        contexts: Iterable[ModuleContext],
        config: LintConfig | None = None,
    ) -> None:
        self.config = config if config is not None else LintConfig()
        self.modules: dict[str, ModuleContext] = {}
        self.module_names: dict[str, str] = {}  # rel_path -> qualname
        for ctx in sorted(contexts, key=lambda c: c.rel_path):
            if ctx.module_name not in self.modules:
                self.modules[ctx.module_name] = ctx
                self.module_names[ctx.rel_path] = ctx.module_name

        self.functions: dict[str, ProjectFunction] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._module_symbols: dict[str, dict[str, str]] = {}
        self._return_types: dict[str, str] = {}

        # `from pkg import sub` imports the submodule, not a symbol of
        # pkg/__init__ — edge to the submodule so package re-export hubs
        # do not read as cycles.
        self.imports: dict[str, list[ImportEdge]] = {
            name: [
                ImportEdge(
                    target=(
                        binding.resolved
                        if binding.resolved in self.modules
                        else binding.module
                    ),
                    lineno=binding.lineno,
                    col=binding.col,
                    type_checking=binding.type_checking,
                    deferred=binding.deferred,
                )
                for binding in ctx.imports
                if binding.module
            ]
            for name, ctx in self.modules.items()
        }
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
        binding = ctx.imported(name) if ctx is not None else None
        if binding is None:
            return None
        return self._canonicalize(binding.resolved, seen)

    def _canonicalize(
        self, dotted: str, seen: frozenset[tuple[str, str]]
    ) -> str:
        """Rewrite a dotted path through project re-export chains."""
        parts = dotted.split(".")
        # Longest project-module prefix wins (repro.ps.group before
        # repro.ps, so symbols resolve in the defining module).
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
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

    def _param_types(
        self, module: str, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, str]:
        """Parameter name → project class, for the annotated parameters."""
        types: dict[str, str] = {}
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs):
            cls = self._class_of_annotation(module, arg.annotation)
            if cls is not None:
                types[arg.arg] = cls
        return types

    def _class_of_assigned(
        self,
        module: str,
        value: ast.expr | None,
        annotation: ast.expr | None,
        env: dict[str, str],
        info: ClassInfo | None,
    ) -> str | None:
        """Project class of one assigned value, when inferable.

        In order: the annotation; a constructor call ``X(...)`` or a
        call of a function annotated ``-> X``; a name already typed in
        ``env`` (a parameter, an earlier local); ``self.attr``; and
        ``self.attr[i]`` through the container's element type.
        """
        cls = self._class_of_annotation(module, annotation)
        if cls is not None:
            return cls
        if isinstance(value, ast.Call):
            callee = self._resolve_expr(module, value.func, env, info)
            if callee in self.classes:
                return callee
            return self._return_types.get(callee or "")
        if isinstance(value, ast.Name):
            return env.get(value.id)
        if info is None:
            return None
        if _is_self_attr(value):
            return info.attr_types.get(value.attr)
        if isinstance(value, ast.Subscript) and _is_self_attr(value.value):
            # ``server = self.servers[i]`` — container element.
            return info.elem_types.get(value.value.attr)
        return None

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
            env = self._param_types(module, item)
            for target, value, annotation in _assignments(item):
                if not _is_self_attr(target):
                    continue
                cls = self._class_of_assigned(module, value, annotation, env, info)
                if cls is not None:
                    info.attr_types.setdefault(target.attr, cls)
                elem = self._elem_of_value(module, value, annotation, info)
                if elem is not None:
                    info.elem_types.setdefault(target.attr, elem)

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
        """Local name → project class inside ``fn`` (parameters included)."""
        if fn.local_types is None:
            fn.local_types = env = {}
            if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                env.update(self._param_types(fn.module, fn.node))
                for target, value, annotation in _assignments(fn.node):
                    if isinstance(target, ast.Name):
                        cls = self._class_of_assigned(
                            fn.module, value, annotation, env, info
                        )
                        if cls is not None:
                            env[target.id] = cls
        return fn.local_types

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

    def in_package(self, fn: ProjectFunction, package_part: str) -> bool:
        """Whether ``fn``'s module path contains ``package_part``."""
        return package_part in self.modules[fn.module].path_parts

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


def _assignments(
    node: ast.AST,
) -> Iterator[tuple[ast.expr, ast.expr | None, ast.expr | None]]:
    """(target, value, annotation) of each single-target assignment."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            yield sub.targets[0], sub.value, None
        elif isinstance(sub, ast.AnnAssign):
            yield sub.target, sub.value, sub.annotation


def _is_self_attr(expr: ast.expr | None) -> TypeGuard[ast.Attribute]:
    """``self.<attr>``."""
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


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
