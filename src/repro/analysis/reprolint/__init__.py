"""reprolint — whole-program checker for the repo's reproducibility contracts.

Public surface:

* :func:`lint_paths` / :func:`lint_sources` — run the rules over files
  on disk or modules in memory; both build the project graph every rule
  is judged against.
* :class:`Finding`, :class:`LintResult` — results.
* :class:`Rule`, :func:`register`, :func:`all_rules` — extend the rule set.
* :class:`Project`, :class:`LintConfig` — the import/call-graph layer
  and the contract declared in ``[tool.reprolint]``
  (:class:`LintConfigError` when it is malformed).
* :func:`render_text` / :func:`to_json` / :func:`render_json` — reporters.
* :func:`main` — the ``python -m repro.analysis`` entry point.

See ``docs/static-analysis.md`` for the rule catalogue (RP001–RP010),
the invariants each guards, and the suppression syntax.
"""

from .cli import main
from .core import (
    Finding,
    LintResult,
    ModuleContext,
    Rule,
    all_rules,
    get_rules,
    lint_paths,
    lint_sources,
    register,
)
from .project import LintConfig, LintConfigError, Project
from .reporters import JSON_SCHEMA_VERSION, render_json, render_text, to_json

__all__ = [
    "Finding",
    "JSON_SCHEMA_VERSION",
    "LintConfig",
    "LintConfigError",
    "LintResult",
    "ModuleContext",
    "Project",
    "Rule",
    "all_rules",
    "get_rules",
    "lint_paths",
    "lint_sources",
    "main",
    "register",
    "render_json",
    "render_text",
    "to_json",
]
