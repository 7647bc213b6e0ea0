"""Shared benchmark infrastructure.

Every bench regenerates one table or figure of the paper.  Beside the
pytest-benchmark timing, each bench records the paper-style rows through
the ``report`` fixture; the rows are

* printed in the terminal summary (so ``pytest benchmarks/
  --benchmark-only`` shows the reproduced tables), and
* written as JSON under ``benchmarks/results/`` for EXPERIMENTS.md.

``REPRO_BENCH_SCALE`` (float, default 1.0) scales every dataset so the
suite can be shrunk for smoke runs (e.g. 0.2) or grown on big machines.
Only a run at scale 1.0 without ``--tiny`` may rewrite the committed
tables: any other run writes its JSON under a pytest temp directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--tiny",
        action="store_true",
        default=False,
        help="run benches at fixed smoke scale (CI serving smoke step); "
        "overrides REPRO_BENCH_SCALE-derived sizes where supported",
    )

#: Collected tables: list of (title, header, rows, notes).
_TABLES: list[tuple[str, list[str], list[list[object]], str]] = []


def bench_scale() -> float:
    """Global dataset scale factor from the environment."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


class Report:
    """Accumulates paper-style result tables for one bench module."""

    def __init__(self, results_dir: Path = RESULTS_DIR) -> None:
        self.results_dir = results_dir

    def add_table(
        self,
        title: str,
        header: list[str],
        rows: list[list[object]],
        notes: str = "",
    ) -> None:
        """Record a table; it is printed at session end and saved as JSON."""
        _TABLES.append((title, header, rows, notes))
        self.results_dir.mkdir(exist_ok=True)
        slug = "".join(
            ch if ch.isalnum() else "_" for ch in title.lower()
        ).strip("_")
        while "__" in slug:
            slug = slug.replace("__", "_")
        payload = {"title": title, "header": header, "rows": rows, "notes": notes}
        with open(
            self.results_dir / f"{slug}.json", "w", encoding="utf-8"
        ) as handle:
            json.dump(payload, handle, indent=2, default=str)


@pytest.fixture(scope="session")
def report(request, tmp_path_factory) -> Report:
    smoke = request.config.getoption("--tiny") or bench_scale() != 1.0
    return Report(tmp_path_factory.mktemp("results") if smoke else RESULTS_DIR)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _TABLES:
        return
    write = terminalreporter.write_line
    write("")
    write("=" * 78)
    write("REPRODUCED PAPER TABLES AND FIGURES")
    write("=" * 78)
    for title, header, rows, notes in _TABLES:
        write("")
        write(f"--- {title} ---")
        str_rows = [[_format_cell(c) for c in row] for row in rows]
        widths = [
            max(len(header[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(header[i])
            for i in range(len(header))
        ]
        write("  " + " | ".join(h.ljust(w) for h, w in zip(header, widths)))
        write("  " + "-+-".join("-" * w for w in widths))
        for row in str_rows:
            write("  " + " | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if notes:
            write(f"  note: {notes}")
    write("")
