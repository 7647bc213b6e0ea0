"""reprolint core: module contexts, the rule registry, and the runner.

The repo's headline guarantees — bit-identical faulted recovery,
bit-identical parallel histograms and compiled inference, unbiased
low-precision aggregation — all rest on *invariants* (seeded RNG only,
paired shared-memory create/unlink, fork-safe pool state, phase-charged
timing, idempotent PS pushes).  Runtime tests only catch a violation
when they happen to execute the bad path; :mod:`repro.analysis.reprolint`
enforces the contracts statically, over the AST, on every file.

This module is deliberately dependency-free (stdlib ``ast`` only) so the
linter can run before the scientific stack imports.

Vocabulary:

* :class:`Finding` — one violation (rule code, message, location,
  whether an inline suppression absorbed it).
* :class:`ModuleContext` — one parsed module: source, AST, parent links,
  the import table (:class:`ImportBinding`, one walk) that resolves
  dotted call names and feeds the project's import graph, and the
  suppression table parsed from ``# reprolint: disable=...`` comments.
* :class:`Rule` — a registered checker; subclasses implement
  :meth:`Rule.check` (per module) and/or :meth:`Rule.check_project`
  (once per run) as generators of findings.
* :func:`lint_paths` / :func:`lint_sources` — the two inputs (disk,
  memory) to the one engine: parse every module, build the
  :class:`~repro.analysis.reprolint.project.Project`, apply the rules
  and the suppressions, return a :class:`LintResult`.

Suppression syntax (both forms take a comma-separated code list or
``all``)::

    x = time.time()  # reprolint: disable=RP002 -- justification here
    # reprolint: disable-file=RP004 -- whole-module waiver

A suppression only silences findings reported *on its line* (or, for
``disable-file``, anywhere in the module); suppressed findings are still
recorded so reporters can show them and CI can audit the waiver count.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .project import LintConfig, Project

__all__ = [
    "Finding",
    "ImportBinding",
    "LintResult",
    "ModuleContext",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_sources",
    "module_name_for",
    "register",
]

#: ``# reprolint: disable=RP001,RP002`` (inline) — codes end at the first
#: token that is not a code or comma, so a justification may follow.
_INLINE_RE = re.compile(
    r"#\s*reprolint:\s*disable=((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*|all)"
)
#: ``# reprolint: disable-file=RP004`` — module-wide waiver.
_FILE_RE = re.compile(
    r"#\s*reprolint:\s*disable-file=((?:[A-Z]{2}\d{3})(?:\s*,\s*[A-Z]{2}\d{3})*|all)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Rule code (``"RP001"``).
        name: Rule slug (``"unseeded-randomness"``).
        message: Human-readable description of the violation.
        path: Module path as given to the runner (POSIX separators).
        line: 1-based source line of the offending node.
        col: 0-based column of the offending node.
        suppressed: True when an inline/file suppression absorbed it.
    """

    rule: str
    name: str
    message: str
    path: str
    line: int
    col: int
    suppressed: bool = False


@dataclass(frozen=True)
class ImportBinding:
    """One name bound by one import statement.

    ``from .timing import wall_clock as now`` inside
    ``repro/serving/runtime.py`` is ``local="now"``,
    ``written="timing.wall_clock"``,
    ``resolved="repro.serving.timing.wall_clock"``,
    ``module="repro.serving.timing"``.

    Attributes:
        local: The name the statement binds (``"*"`` for a star import).
        written: Dotted target of ``local`` as the source spells it —
            relative imports keep their textual module path, so they
            never shadow the stdlib names the per-module rules match on.
        resolved: The same target with relative levels resolved against
            the package layout.  For ``import a.b`` this is the module
            the statement loads (``a.b``), whatever name it binds.
        module: Resolved dotted module the statement imports or imports
            from (empty when a relative import climbs out of the tree).
        lineno: 1-based line of the import statement.
        col: 0-based column of the import statement.
        type_checking: True under an ``if TYPE_CHECKING:`` guard.
        deferred: True inside a function body.
    """

    local: str
    written: str
    resolved: str
    module: str
    lineno: int
    col: int
    type_checking: bool
    deferred: bool


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


class ModuleContext:
    """A parsed module plus the lookup tables rules need.

    Args:
        source: Module source text.
        rel_path: Path used for reporting *and* for path-scoped rules
            (e.g. RP002's declared seam, RP005's kernel packages) and
            for the module's qualname; use POSIX separators.  Tests
            exercise path-scoped rules by passing a pretend path like
            ``"repro/histogram/x.py"``.
    """

    def __init__(self, source: str, rel_path: str) -> None:
        self.source = source
        self.rel_path = rel_path.replace("\\", "/")
        self.path_parts: tuple[str, ...] = tuple(
            part for part in self.rel_path.split("/") if part
        )
        self.module_name = module_name_for(self.rel_path)
        self.tree = ast.parse(source, filename=rel_path)
        self.lines = source.splitlines()
        self._parents: dict[int, ast.AST] = {}
        #: Every call expression and every import binding of the module,
        #: in ``ast.walk`` order.
        self.calls: list[ast.Call] = []
        self.imports: list[ImportBinding] = []
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[id(child)] = parent
                if isinstance(child, ast.Call):
                    self.calls.append(child)
                elif isinstance(child, (ast.Import, ast.ImportFrom)):
                    self.imports.extend(self._bindings(child))
        #: Local name → target as written.  A name bound twice keeps its
        #: *last* binding here (what a call through it means once the
        #: module body has run) and its *first* in :meth:`imported`.
        self.aliases: dict[str, str] = {}
        self._first_import: dict[str, ImportBinding] = {}
        for binding in self.imports:
            if binding.local != "*":
                self.aliases[binding.local] = binding.written
                self._first_import.setdefault(binding.local, binding)
        self._inline, self._filewide = self._collect_suppressions()

    # ------------------------------------------------------------------
    # structure helpers
    # ------------------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module node."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_class(self, node: ast.AST) -> ast.ClassDef | None:
        """The nearest ``class`` statement containing ``node``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.ClassDef):
                return ancestor
        return None

    def enclosing_functions(self, node: ast.AST) -> list[ast.FunctionDef]:
        """Enclosing function defs, innermost first."""
        return [
            ancestor
            for ancestor in self.ancestors(node)
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    # ------------------------------------------------------------------
    # name resolution
    # ------------------------------------------------------------------

    def _bindings(self, node: ast.Import | ast.ImportFrom) -> Iterator[ImportBinding]:
        """The bindings of one import statement.

        ``import numpy as np`` binds ``np`` to ``numpy``; ``from time
        import perf_counter`` binds ``perf_counter`` to
        ``time.perf_counter``; ``import os.path`` binds ``os`` (written
        ``os``) and loads ``os.path`` (resolved).  Relative levels are
        resolved from ``rel_path`` alone: inside a package ``__init__``
        level 1 is the package itself.
        """
        ancestors = list(self.ancestors(node))
        where = (
            node.lineno,
            node.col_offset,
            any(_is_type_checking_guard(a) for a in ancestors),
            any(
                isinstance(a, (ast.FunctionDef, ast.AsyncFunctionDef))
                for a in ancestors
            ),
        )
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.name.split(".")[0]
                yield ImportBinding(
                    alias.asname or head,
                    alias.name if alias.asname else head,
                    alias.name,
                    alias.name,
                    *where,
                )
            return
        written = node.module or ""
        module = written
        if node.level:
            package = self.module_name.split(".")
            if self.path_parts[-1:] != ("__init__.py",):
                package = package[:-1]
            climb = node.level - 1
            anchor = package[: len(package) - climb] if climb else package
            module = ".".join(anchor + ([written] if written else []))
        for alias in node.names:
            yield ImportBinding(
                alias.asname or alias.name,
                f"{written}.{alias.name}" if written else alias.name,
                f"{module}.{alias.name}" if module else alias.name,
                module,
                *where,
            )

    def imported(self, name: str) -> ImportBinding | None:
        """The first import statement (``ast.walk`` order) binding ``name``."""
        return self._first_import.get(name)

    def qualname(self, node: ast.expr) -> str | None:
        """Resolve an attribute chain to a dotted name via the alias table.

        ``np.random.rand`` resolves to ``numpy.random.rand``; names whose
        base was never imported resolve to None (a local variable that
        merely *looks* like a module is not a violation).
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.aliases.get(current.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    # ------------------------------------------------------------------
    # suppressions
    # ------------------------------------------------------------------

    def _collect_suppressions(
        self,
    ) -> tuple[dict[int, set[str]], set[str]]:
        inline: dict[int, set[str]] = {}
        filewide: set[str] = set()
        for lineno, text in enumerate(self.lines, start=1):
            match = _INLINE_RE.search(text)
            if match is not None:
                codes = _parse_codes(match.group(1))
                inline.setdefault(lineno, set()).update(codes)
            match = _FILE_RE.search(text)
            if match is not None:
                filewide.update(_parse_codes(match.group(1)))
        return inline, filewide

    def is_suppressed(self, code: str, line: int) -> bool:
        """Whether ``code`` is waived on ``line`` (or module-wide)."""
        if "all" in self._filewide or code in self._filewide:
            return True
        codes = self._inline.get(line)
        if codes is None:
            return False
        return "all" in codes or code in codes


def _parse_codes(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


def _is_type_checking_guard(node: ast.AST) -> bool:
    """``if TYPE_CHECKING:`` / ``if typing.TYPE_CHECKING:``."""
    if not isinstance(node, ast.If):
        return False
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


class Rule:
    """Base class for registered checkers.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`summary`, and
    :attr:`invariant` (which PR's contract the rule guards — surfaced by
    ``--list-rules`` and the docs), and implement :meth:`check` (per
    module) and/or :meth:`check_project` (whole-program, once per run).
    """

    code: str = "RP000"
    name: str = "abstract"
    summary: str = ""
    invariant: str = ""

    def check(self, ctx: ModuleContext, project: Project) -> Iterator[Finding]:
        """Yield findings for one module (suppressions applied later).

        ``project`` is the run's whole-program model: the declared
        contract (``project.config``) and the import/call graph a
        per-module rule may consult.  The default is no findings, so
        whole-program rules need not override.
        """
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield whole-program findings (graph/dataflow rules).

        Called once per run, after every module's :meth:`check`.  The
        default is no findings, so per-module rules need not override.
        """
        return iter(())

    def finding(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=self.code,
            name=self.name,
            message=message,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = rule_cls()
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    _ensure_builtin_rules()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rules(
    select: Iterable[str] | None = None, ignore: Iterable[str] | None = None
) -> list[Rule]:
    """Registered rules filtered by ``select`` / ``ignore`` code lists."""
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        rules = [rule for rule in rules if rule.code in wanted]
    if ignore is not None:
        dropped = set(ignore)
        rules = [rule for rule in rules if rule.code not in dropped]
    return rules


def _ensure_builtin_rules() -> None:
    # Imported lazily so `core` stays importable from `rules` without a
    # cycle; importing the rule modules runs their @register decorators.
    from . import graph_rules as _graph_rules  # noqa: F401
    from . import rules as _rules  # noqa: F401


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Every finding, suppressed ones included, ordered by
            (path, line, col, rule).
        files_checked: Number of modules linted (unparseable ones
            included — each is one ``RP000`` finding).
        project: The whole-program model the run built and judged.
    """

    findings: list[Finding]
    files_checked: int
    project: Project

    @property
    def unsuppressed(self) -> list[Finding]:
        """Findings not absorbed by a suppression (these fail the run)."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        """Findings absorbed by an inline or file-wide suppression."""
        return [f for f in self.findings if f.suppressed]

    def counts(self) -> dict[str, int]:
        """Unsuppressed finding count per rule code (sorted by code)."""
        out: dict[str, int] = {}
        for finding in self.unsuppressed:
            out[finding.rule] = out.get(finding.rule, 0) + 1
        return dict(sorted(out.items()))

    @property
    def ok(self) -> bool:
        """True when the tree is clean (no unsuppressed findings)."""
        return not self.unsuppressed


def _finding_key(finding: Finding) -> tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule)


def _parse_error(rel_path: str, exc: SyntaxError | ValueError) -> Finding:
    return Finding(
        rule="RP000",
        name="parse-error",
        message=f"could not parse module: {getattr(exc, 'msg', exc)}",
        path=rel_path,
        line=getattr(exc, "lineno", None) or 1,
        col=(getattr(exc, "offset", None) or 1) - 1,
    )


def lint_sources(
    sources: Mapping[str, str | Path],
    rules: Sequence[Rule] | None = None,
    config: LintConfig | None = None,
) -> LintResult:
    """The engine: parse, build the project, run the rules, apply waivers.

    Modules are taken in sorted path order, so findings come out
    byte-identical whatever order the caller (or the filesystem)
    produced them in.  A module that cannot be read as UTF-8 or parsed
    becomes one ``RP000`` finding and the rest are still linted.

    Suppression lookup goes through the finding's *path* (not the module
    the rule happened to be iterating), so a graph rule anchoring a
    finding in another module still honors that module's waivers.

    Args:
        sources: rel_path → source text (the fixture entry point), or →
            the file to read it from (what :func:`lint_paths` passes);
            paths use POSIX separators and should start at ``repro/``
            so package-scoped rules engage.
        rules: Rule subset (default: every registered rule).
        config: Declared contract (default: the empty one — no clock
            seam, no layering rows, and no pyproject discovery, so
            fixtures stay hermetic).
    """
    from .project import Project

    checkers = list(rules) if rules is not None else all_rules()
    findings: list[Finding] = []
    by_path: dict[str, ModuleContext] = {}
    for rel_path, source in sorted(sources.items()):
        try:
            if isinstance(source, Path):
                source = source.read_text(encoding="utf-8")
            by_path[rel_path] = ModuleContext(source, rel_path)
        # ValueError: bytes that are not UTF-8, and (before 3.12) NUL bytes.
        except (SyntaxError, ValueError) as exc:
            findings.append(_parse_error(rel_path, exc))
    project = Project(by_path.values(), config)
    for ctx in by_path.values():
        for rule in checkers:
            findings.extend(rule.check(ctx, project))
    for rule in checkers:
        findings.extend(rule.check_project(project))
    findings = [
        replace(finding, suppressed=True)
        if finding.path in by_path
        and by_path[finding.path].is_suppressed(finding.rule, finding.line)
        else finding
        for finding in findings
    ]
    findings.sort(key=_finding_key)
    return LintResult(findings, len(sources), project)


def _rel_path(path: Path, root: Path | None) -> str:
    rel = path
    if root is not None:
        try:
            rel = path.relative_to(root)
        except ValueError:
            rel = path
    return rel.as_posix()


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``*.py`` files."""
    for path in paths:
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" in sub.parts:
                    continue
                yield sub
        else:
            yield path


def lint_paths(
    paths: Sequence[str | Path],
    root: str | Path | None = None,
    rules: Sequence[Rule] | None = None,
) -> LintResult:
    """Lint files and directories; the package entry point.

    The file set is deduplicated by *reported path*.  The declared
    contract is read from the nearest ``pyproject.toml`` at or above
    ``root`` (else the first path); a malformed ``[tool.reprolint]``
    raises :class:`~repro.analysis.reprolint.project.LintConfigError`.

    Args:
        paths: Files or directory roots (directories are walked for
            ``*.py``, skipping ``__pycache__``).
        root: Paths in findings are reported relative to this (default:
            the current working directory when paths are relative).
        rules: Rule subset (default: every registered rule).
    """
    from .project import LintConfig

    root_path = Path(root) if root is not None else None
    file_list = [Path(p) for p in paths]
    by_rel: dict[str, Path] = {}
    for file_path in iter_python_files(file_list):
        by_rel.setdefault(_rel_path(file_path, root_path), file_path)
    anchor = root_path if root_path is not None else (
        file_list[0] if file_list else Path.cwd()
    )
    return lint_sources(by_rel, rules, LintConfig.discover(anchor))
