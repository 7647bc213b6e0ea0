"""The benchmark keeps its contract: manifest, result line, exit codes."""

from __future__ import annotations

import json
import re
import shutil
import time

import numpy as np
import pytest

import harness
import spec
from harness import PERF_DIR, run_cli

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_file_is_the_spec():
    committed = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == spec.manifest()


def test_manifest_within_contract_limits():
    m = spec.manifest()
    assert set(m) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert m["paths"] == ["benchmarks/perf"]
    assert len(m["command"]) <= 32 and all(len(part) <= 200 for part in m["command"])
    assert isinstance(m["run_seconds"], int) and 1 <= m["run_seconds"] <= 60
    assert 2 <= len(m["workloads"]) <= 8
    assert 1 <= len(m["end_to_end"]) <= 16 and 1 <= len(m["per_layer"]) <= 128
    names = [w["name"] for w in m["workloads"]]
    for section in ("end_to_end", "per_layer"):
        section_names = [metric["name"] for metric in m[section]]
        assert len(set(section_names)) == len(section_names)
        names += section_names
        for metric in m[section]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("lower", "higher")
    for name in names:
        assert NAME.match(name), name
    for workload in m["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in m["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in m["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(metric for metric in m["end_to_end"] if metric["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(metric["bound"] for metric in m["end_to_end"])
    assert len(json.dumps(m)) < 64 * 1024


@pytest.mark.parametrize("workload", spec.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_result_line(smoke_passes, workload, trace):
    code, lines, result = smoke_passes[workload, trace]
    assert code == 0, lines[-5:]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    assert set(result["metrics"]) == {metric.name for metric in declared}
    for metric in declared:
        reported = result["metrics"][metric.name]
        assert set(reported) == {"value", "unit"} and reported["unit"] == metric.unit
        assert np.isfinite(reported["value"])
        if not trace:
            assert reported["value"] > 0, metric.name
    # Environment fingerprint and operation counts are part of the report.
    assert lines[0].startswith("env: ") and "cores_usable" in lines[0]
    assert any(line.startswith("operations: attempted") for line in lines)


def test_serve_reports_sent_succeeded_failed_per_rate(smoke_passes):
    _code, lines, _result = smoke_passes["serve_replay", 0]
    for rate in spec.SERVE_RATES:
        assert any(
            f"rate {rate:>5}/s: sent" in line and "succeeded" in line and "late median" in line
            for line in lines
        ), rate


def test_smoke_of_everything_is_quick_and_writes_nothing(tmp_path):
    results = harness.ROOT / "benchmarks" / "results"
    before = {path: path.stat().st_mtime_ns for path in results.iterdir()}
    manifest = harness.ROOT / "BENCHMARK.json"
    manifest_before = manifest.stat().st_mtime_ns
    started = time.perf_counter()
    code, lines, result = run_cli("--smoke")
    elapsed = time.perf_counter() - started
    assert code == 0 and result["correct"], lines[-3:]
    assert elapsed < 30, f"--smoke took {elapsed:.1f}s"
    assert {path: path.stat().st_mtime_ns for path in results.iterdir()} == before
    assert manifest.stat().st_mtime_ns == manifest_before
    assert not harness.WORK_ROOT.exists()
    assert len(result["metrics"]) == len(spec.WORKLOAD_NAMES) * (
        len(spec.END_TO_END) + len(spec.PER_LAYER)
    )


def test_failed_check_makes_exit_code_nonzero(monkeypatch, capsys):
    import run
    from repro.boosting.model import GBDTModel

    oracle = GBDTModel.predict_raw_per_tree
    monkeypatch.setattr(
        GBDTModel, "predict_raw_per_tree", lambda self, X: oracle(self, X) + 1.0
    )
    code = run.run_workload("predict_batch", seed=0, seconds=0.0, trace=False, smoke=True)
    result = json.loads(capsys.readouterr().out.rstrip("\n").split("\n")[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == result["attempted"] >= 1


def test_nonzero_exit_and_no_result_without_the_program(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's files."""
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR,
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", ".work"),
    )
    script = tmp_path / "benchmarks" / "perf" / "run.py"
    for args in (
        ("--workload", "predict_batch", "--seed", "0", "--seconds", "1", "--trace", "0"),
        (),
    ):
        code, lines, result = run_cli(*args, cwd=tmp_path, script=script)
        assert code != 0
        assert result is None and not lines
