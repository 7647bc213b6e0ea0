"""reprolint tests: the fixture corpus, suppressions, reporters, and CLI.

Every rule has a known-bad fixture whose violations are marked inline
with ``# expect: RPxxx`` comments and a known-good twin that must lint
clean *under the same pretend path* (so path-scoped rules are genuinely
in scope, not vacuously silent).  Every fixture is linted as a
one-module project through :func:`lint_sources`, against the contract
the repo's own ``pyproject.toml`` declares.  The src-tree tests read the
session's one pass over ``src/`` and pin the repo's own waiver budget:
the tree is clean, and the only suppressions are the two audited ones
in process-parallel scoring (its worker-view cache and its segment-name
generator).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.reprolint import (
    JSON_SCHEMA_VERSION,
    all_rules,
    get_rules,
    lint_paths,
    lint_sources,
    render_json,
    render_text,
    to_json,
)
from repro.analysis.reprolint.cli import main

from .conftest import DECLARED, SRC_ROOT

FIXTURES = Path(__file__).parent / "fixtures"

#: (code, pretend rel_path) — the path places each fixture inside the
#: package scope its rule patrols.
RULE_PATHS = {
    "RP001": "repro/boosting/fixture.py",
    "RP002": "repro/distributed/fixture.py",
    "RP003": "repro/histogram/fixture.py",
    "RP004": "repro/histogram/fixture.py",
    "RP005": "repro/histogram/fixture.py",
    "RP006": "repro/ps/fixture.py",
    "RP007": "repro/serving/fixture.py",
    "RP008": "repro/serving/fixture.py",
    "RP009": "repro/tree/fixture.py",
    "RP010": "repro/distributed/fixture.py",
}
ALL_CODES = sorted(RULE_PATHS)
#: The rules whose findings are built from the project graph itself.
GRAPH_CODES = frozenset({"RP007", "RP008", "RP009", "RP010"})


def fixture_source(code: str, kind: str) -> str:
    return (FIXTURES / f"{code.lower()}_{kind}.py").read_text(encoding="utf-8")


def expected_lines(source: str, code: str) -> list[int]:
    """1-based lines carrying an ``# expect: <code>`` marker."""
    return [
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if f"expect: {code}" in text
    ]


def lint_one(source: str, path: str, code: str):
    """Findings of one rule on a one-module project at a pretend path."""
    return lint_sources(
        {path: source}, rules=get_rules(select=[code]), config=DECLARED
    ).findings


def fixture_findings(code: str, source: str):
    return lint_one(source, RULE_PATHS[code], code)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def test_registry_has_all_ten_rules():
    assert [rule.code for rule in all_rules()] == ALL_CODES
    for rule in all_rules():
        assert rule.summary and rule.invariant and rule.name


def test_get_rules_select_and_ignore():
    selected = get_rules(select=["RP002", "RP005"])
    assert [rule.code for rule in selected] == ["RP002", "RP005"]
    remaining = get_rules(ignore=["RP001"])
    assert "RP001" not in {rule.code for rule in remaining}


def test_get_rules_rejects_unknown_codes():
    with pytest.raises(ValueError, match="RP999"):
        get_rules(select=["RP999"])


# ----------------------------------------------------------------------
# per-rule fixture corpus
# ----------------------------------------------------------------------


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_flagged_at_expected_lines(code):
    source = fixture_source(code, "bad")
    expected = expected_lines(source, code)
    assert expected, f"{code} bad fixture has no expect markers"
    findings = fixture_findings(code, source)
    assert sorted(f.line for f in findings) == expected
    assert all(f.rule == code and not f.suppressed for f in findings)


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_twin_is_clean(code):
    source = fixture_source(code, "good")
    assert fixture_findings(code, source) == []


def test_rp002_seam_modules_are_exempt():
    for source in (
        fixture_source("RP002", "bad"),
        fixture_source("RP002_serving", "bad"),
    ):
        assert lint_one(source, "repro/utils/timing.py", "RP002") == []
        # The former seam files are ordinary modules now.
        for former in (
            "repro/runtime/phases.py",
            "repro/runtime/build.py",
            "repro/serving/clock.py",
        ):
            assert lint_one(source, former, "RP002") != []


def test_rp002_empty_contract_exempts_no_module():
    """Without a declared seam (``LintConfig()``) even timing.py is patrolled."""
    source = fixture_source("RP002", "bad")
    result = lint_sources(
        {"repro/utils/timing.py": source}, rules=get_rules(select=["RP002"])
    )
    assert [f.line for f in result.findings] == expected_lines(source, "RP002")


def test_rp002_patrols_serving_outside_its_clock_seam():
    """Every serving module stays under the RP002 audit: the package has
    no clock file of its own, instants come from utils/timing.py."""
    bad = fixture_source("RP002_serving", "bad")
    expected = expected_lines(bad, "RP002")
    assert expected, "serving bad fixture has no expect markers"
    findings = lint_one(bad, "repro/serving/fixture.py", "RP002")
    assert [f.line for f in findings] == expected
    good = fixture_source("RP002_serving", "good")
    assert lint_one(good, "repro/serving/fixture.py", "RP002") == []


def test_rp005_only_fires_in_kernel_packages():
    source = fixture_source("RP005", "bad")
    assert lint_one(source, "repro/boosting/fixture.py", "RP005") == []


def test_rp006_def_checks_scoped_to_ps_call_checks_global():
    """The seams are derived from ``ps/`` (here the good twin); outside
    ``ps/`` the handler/pusher *definitions* are someone else's contract,
    but a call that drops ``seq=`` is flagged everywhere."""
    caller = fixture_source("RP006", "bad")
    result = lint_sources(
        {
            "repro/ps/fixture.py": fixture_source("RP006", "good"),
            "repro/worker/fixture.py": caller,
        },
        rules=get_rules(select=["RP006"]),
        config=DECLARED,
    )
    call_lines = [
        lineno
        for lineno, text in enumerate(caller.splitlines(), start=1)
        if "self.server.handle_push" in text
    ]
    assert [(f.path, f.line) for f in result.findings] == [
        ("repro/worker/fixture.py", line) for line in call_lines
    ]


def test_rp001_resolves_import_aliases():
    flagged = lint_one(
        "import numpy.random as npr\nnpr.rand()\n", "repro/x.py", "RP001"
    )
    assert [f.line for f in flagged] == [2]
    renamed = lint_one(
        "from numpy import random as rnd\nrnd.shuffle(x)\n", "repro/x.py", "RP001"
    )
    assert [f.line for f in renamed] == [2]


def test_rules_ignore_lookalike_local_names():
    # `np` is a local object, not the numpy import: no finding.
    source = "np = make_fake()\nnp.random.rand()\n"
    assert lint_one(source, "repro/x.py", "RP001") == []
    # Same for a local called `time`.
    source = "time = clock_stub()\ntime.time()\n"
    assert lint_one(source, "repro/x.py", "RP002") == []


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------


def test_inline_suppression_absorbs_only_its_line():
    source = (
        "import time\n"
        "a = time.time()  # reprolint: disable=RP002 -- audited boot stamp\n"
        "b = time.time()\n"
    )
    findings = lint_one(source, "repro/x.py", "RP002")
    assert [(f.line, f.suppressed) for f in findings] == [(2, True), (3, False)]


def test_filewide_suppression_absorbs_whole_module():
    source = (
        "# reprolint: disable-file=RP002 -- legacy module, tracked in #12\n"
        "import time\n"
        "a = time.time()\n"
        "b = time.time()\n"
    )
    findings = lint_one(source, "repro/x.py", "RP002")
    assert len(findings) == 2
    assert all(f.suppressed for f in findings)


def test_suppression_is_per_code():
    source = (
        "import time\n"
        "a = time.time()  # reprolint: disable=RP001 -- wrong code\n"
    )
    findings = lint_one(source, "repro/x.py", "RP002")
    assert [f.suppressed for f in findings] == [False]


def test_disable_all_suppresses_any_code():
    source = "import time\na = time.time()  # reprolint: disable=all\n"
    findings = lint_one(source, "repro/x.py", "RP002")
    assert [f.suppressed for f in findings] == [True]


@pytest.mark.parametrize("code", sorted(GRAPH_CODES))
def test_graph_rule_inline_suppression_round_trip(code):
    source = fixture_source(code, "bad")
    waived = "\n".join(
        line + f"  # reprolint: disable={code} -- round-trip test"
        if f"expect: {code}" in line
        else line
        for line in source.splitlines()
    )
    result = lint_sources(
        {RULE_PATHS[code]: waived}, rules=get_rules(select=[code]), config=DECLARED
    )
    assert result.ok
    assert result.unsuppressed == []
    assert len(result.suppressed) == len(expected_lines(source, code))


@pytest.mark.parametrize("code", sorted(GRAPH_CODES))
def test_graph_rule_filewide_suppression_round_trip(code):
    source = (
        f"# reprolint: disable-file={code} -- round-trip test\n"
        + fixture_source(code, "bad")
    )
    result = lint_sources(
        {RULE_PATHS[code]: source}, rules=get_rules(select=[code]), config=DECLARED
    )
    assert result.ok
    assert result.unsuppressed == []
    assert len(result.suppressed) == len(expected_lines(source, code))


def test_suppressed_findings_still_recorded(tmp_path):
    bad = tmp_path / "repro" / "distributed" / "mod.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        "import time\n"
        "a = time.time()  # reprolint: disable=RP002 -- waived\n",
        encoding="utf-8",
    )
    result = lint_paths([bad], root=tmp_path, rules=get_rules(select=["RP002"]))
    assert result.ok
    assert len(result.suppressed) == 1
    assert result.suppressed[0].path == "repro/distributed/mod.py"


# ----------------------------------------------------------------------
# reporters
# ----------------------------------------------------------------------


def _dirty_result(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import time\n"
        "a = time.time()\n"
        "b = time.time()  # reprolint: disable=RP002 -- waived\n",
        encoding="utf-8",
    )
    return lint_paths([bad], root=tmp_path, rules=get_rules(select=["RP002"]))


def test_json_document_schema(tmp_path):
    doc = to_json(_dirty_result(tmp_path))
    assert set(doc) == {
        "version",
        "tool",
        "ok",
        "files_checked",
        "summary",
        "suppressed_count",
        "findings",
    }
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["tool"] == "reprolint"
    assert doc["ok"] is False
    assert doc["files_checked"] == 1
    assert doc["summary"] == {"RP002": 1}
    assert doc["suppressed_count"] == 1
    assert len(doc["findings"]) == 2
    for entry in doc["findings"]:
        assert set(entry) == {
            "rule",
            "name",
            "message",
            "path",
            "line",
            "col",
            "suppressed",
        }


def test_render_json_is_deterministic(tmp_path):
    result = _dirty_result(tmp_path)
    first, second = render_json(result), render_json(result)
    assert first == second
    assert json.loads(first)["version"] == JSON_SCHEMA_VERSION


def test_reports_are_byte_identical_across_walk_order(tmp_path):
    """Satellite 1: findings are engine-sorted, so the reporters emit
    byte-identical text/JSON no matter how paths were fed in."""
    files = []
    for name in ("b_mod.py", "a_mod.py", "c_mod.py"):
        mod = tmp_path / name
        mod.write_text("import time\nx = time.time()\n", encoding="utf-8")
        files.append(mod)
    rules = get_rules(select=["RP002"])
    forward = lint_paths(files, root=tmp_path, rules=rules)
    # Reversed order plus the directory itself: duplicates are deduped
    # and the output must not move a byte.
    backward = lint_paths(
        list(reversed(files)) + [tmp_path], root=tmp_path, rules=rules
    )
    assert render_text(forward) == render_text(backward)
    assert render_json(forward) == render_json(backward)
    assert forward.files_checked == backward.files_checked == 3


def test_render_text_summary_lines(tmp_path):
    result = _dirty_result(tmp_path)
    text = render_text(result)
    assert "mod.py:2:5: RP002" in text
    assert "[RP002=1]" in text and "1 suppressed" in text
    assert "(suppressed)" not in text
    shown = render_text(result, show_suppressed=True)
    assert "(suppressed)" in shown


def test_parse_error_reported_as_rp000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    findings = lint_paths([bad], root=tmp_path).findings
    assert [f.rule for f in findings] == ["RP000"]
    assert findings[0].name == "parse-error"
    assert not findings[0].suppressed


@pytest.mark.parametrize(
    "payload",
    [b"x = 1\n\xff\xfe\n", b"x = 1\n\x00\n", b"def broken(:\n"],
    ids=["invalid-utf8", "nul-byte", "syntax-error"],
)
def test_cli_unreadable_module_is_one_finding_not_a_crash(tmp_path, payload):
    """A module that cannot be decoded or parsed is one RP000 finding at
    a line in that file; the rest of the tree is still linted; exit 1."""
    (tmp_path / "broken.py").write_bytes(payload)
    (tmp_path / "clock.py").write_text("import time\na = time.time()\n")
    report = tmp_path / "report.json"
    assert main([str(tmp_path), "--format", "json", "--output", str(report)]) == 1
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["files_checked"] == 2
    found = {(Path(f["path"]).name, f["rule"], f["line"]) for f in doc["findings"]}
    assert found == {("broken.py", "RP000", 1), ("clock.py", "RP002", 2)}


# ----------------------------------------------------------------------
# the repo's own tree
# ----------------------------------------------------------------------


def test_src_tree_is_clean(src_lint):
    assert src_lint.ok, render_text(src_lint)
    assert src_lint.files_checked > 50


def test_src_tree_waiver_budget(src_lint):
    """The audited suppressions are exactly the ones the docs justify."""
    waivers = {(f.rule, f.path) for f in src_lint.suppressed}
    assert waivers == {
        ("RP001", "repro/inference/parallel.py"),
        ("RP004", "repro/inference/parallel.py"),
    }
    assert len(src_lint.suppressed) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    good = tmp_path / "mod.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert main([str(good)]) == 0
    assert "reprolint: clean" in capsys.readouterr().out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\na = time.time()\n", encoding="utf-8")
    assert main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RP002" in out


def test_cli_exit_two_on_unknown_code(tmp_path, capsys):
    good = tmp_path / "mod.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert main([str(good), "--select", "RP999"]) == 2
    assert "RP999" in capsys.readouterr().err


def test_cli_exit_two_on_missing_path(capsys):
    assert main(["definitely/not/a/path"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_exit_two_on_malformed_contract(tmp_path, capsys):
    """A mistyped ``[tool.reprolint]`` is a usage error naming file and
    key — as a string, ``clock-seam`` used to exempt every ``*.py``."""
    (tmp_path / "pyproject.toml").write_text(
        '[tool.reprolint]\nclock-seam = "repro/utils/timing.py"\n', encoding="utf-8"
    )
    bad = tmp_path / "mod.py"
    bad.write_text("import time\na = time.time()\n", encoding="utf-8")
    assert main([str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("reprolint: bad [tool.reprolint] in ")
    assert "pyproject.toml: clock-seam: expected a list" in captured.err


def test_cli_select_and_ignore(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\na = time.time()\n", encoding="utf-8")
    assert main([str(bad), "--select", "RP001"]) == 0
    assert main([str(bad), "--ignore", "RP002"]) == 0
    assert main([str(bad), "--select", "RP002"]) == 1


def test_cli_json_output_file(tmp_path, capsys):
    bad = tmp_path / "mod.py"
    bad.write_text("import time\na = time.time()\n", encoding="utf-8")
    report = tmp_path / "report.json"
    assert main([str(bad), "--format", "json", "--output", str(report)]) == 1
    capsys.readouterr()  # nothing useful on stdout when --output is set
    doc = json.loads(report.read_text(encoding="utf-8"))
    assert doc["version"] == JSON_SCHEMA_VERSION
    assert doc["ok"] is False


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out


def test_cli_lints_src_clean(capsys):
    assert main([str(SRC_ROOT)]) == 0
    assert "reprolint: clean" in capsys.readouterr().out
