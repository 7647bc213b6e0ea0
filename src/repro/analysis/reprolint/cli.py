"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit status is 0 when the tree is clean (no unsuppressed findings), 1
when it is not, and 2 on a usage error or a malformed
``[tool.reprolint]``, so CI can gate on it directly.  ``--format json``
emits the schema the ``static-analysis`` workflow uploads as an
artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .core import all_rules, get_rules, lint_paths
from .project import LintConfigError
from .reporters import render_json, render_text

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: statically enforce the repo's determinism, "
            "shared-memory, fork-safety, and PS-idempotency contracts"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in text output",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="describe every registered rule and exit",
    )
    return parser


def _split_codes(raw: str | None) -> list[str] | None:
    if raw is None:
        return None
    return [code.strip() for code in raw.split(",") if code.strip()]


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code} {rule.name}")
            print(f"    {rule.summary}")
            print(f"    guards: {rule.invariant}")
        return 0
    try:
        rules = get_rules(
            select=_split_codes(args.select), ignore=_split_codes(args.ignore)
        )
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"reprolint: no such path(s): {missing}", file=sys.stderr)
        return 2
    try:
        result = lint_paths(args.paths, rules=rules)
    except LintConfigError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report = render_json(result)
    else:
        report = render_text(result, show_suppressed=args.show_suppressed)
    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    else:
        print(report)
    return 0 if result.ok else 1
