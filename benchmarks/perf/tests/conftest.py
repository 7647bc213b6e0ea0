"""Test set-up of the perf benchmark's own suite.

Run from the repository root (tier-1 collects ``tests/`` only)::

    python -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

# The harness modules are plain files beside run.py, importable only now.
harness = importlib.import_module("harness")
harness.pin_threads()
harness.require_program()


@pytest.fixture(scope="session")
def smoke_passes():
    """Every (workload, trace) smoke pass, run once per session."""
    spec = importlib.import_module("spec")
    passes = {}
    for workload in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            passes[workload, trace] = harness.run_cli(
                "--workload", workload, "--trace", str(trace), "--smoke", "--seed", "5"
            )
    return passes
