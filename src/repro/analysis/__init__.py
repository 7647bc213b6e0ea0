"""Analysis utilities: communication-cost curves, PCA, and reprolint.

* :mod:`commcost` — tabulates the Table 1 closed forms over worker/size
  sweeps and locates crossovers (the Section 3 "Remarks" discussion).
* :mod:`pca` — randomized PCA over :class:`CSRMatrix`, the dimension-
  reduction baseline of Table 6.
* :mod:`reprolint` — AST-based static checker enforcing the repo's
  determinism, shared-memory, fork-safety, and PS-idempotency
  contracts (``python -m repro.analysis``); see
  ``docs/static-analysis.md``.
"""

from .commcost import CostTable, tabulate_costs, speedup_table
from .pca import PCAModel, fit_pca
from .reprolint import (
    Finding,
    LintResult,
    Rule,
    all_rules,
    lint_paths,
    lint_sources,
    render_json,
    render_text,
    to_json,
)

__all__ = [
    "CostTable",
    "tabulate_costs",
    "speedup_table",
    "PCAModel",
    "fit_pca",
    "Finding",
    "LintResult",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_sources",
    "render_json",
    "render_text",
    "to_json",
]
