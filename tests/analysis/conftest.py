"""Shared reprolint fixtures: the repo's declared contract and the one
whole-program pass over ``src/`` every src-tree test reads."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.reprolint import LintConfig, LintResult, Project, lint_paths

SRC_ROOT = Path(__file__).resolve().parents[2] / "src"

#: ``[tool.reprolint]`` of the repo's own pyproject.toml — fixture runs
#: pass it explicitly (``LintConfig()`` is the empty contract).
DECLARED = LintConfig.discover(SRC_ROOT)


@pytest.fixture(scope="session")
def src_lint() -> LintResult:
    """The one ``lint_paths`` pass over ``src/`` (findings + project)."""
    return lint_paths([SRC_ROOT], root=SRC_ROOT)


@pytest.fixture(scope="session")
def src_project(src_lint: LintResult) -> Project:
    return src_lint.project
