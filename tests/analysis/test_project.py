"""Unit tests for the whole-program layer: Project, the declared
contract, dataflow, and the seam-derivation patrols.

The Project tests use small in-memory module sets so each capability
(cross-module resolution, re-exports, type inference, cycles) is pinned
in isolation.  The patrol tests then read the session's one pass over
the real ``src/`` tree and pin what it *derives* — the seam names
written out here, the contract ``pyproject.toml`` declares — so if a
seam drifts, or type inference stops reaching one, exactly one of these
fails and names it.
"""

from __future__ import annotations

import ast

import pytest

from repro.analysis.reprolint.core import ModuleContext, module_name_for
from repro.analysis.reprolint.dataflow import analyze_taint
from repro.analysis.reprolint.project import (
    LintConfig,
    LintConfigError,
    Project,
    _read_toml_minimal,
    _read_tool_reprolint,
)
from repro.analysis.reprolint.rules import PSSequenceToken

from .conftest import DECLARED, SRC_ROOT

PYPROJECT = SRC_ROOT.parent / "pyproject.toml"


def build(sources: dict[str, str]) -> Project:
    return Project([ModuleContext(text, rel) for rel, text in sources.items()])


# ----------------------------------------------------------------------
# module naming and symbol resolution
# ----------------------------------------------------------------------


def test_module_name_for_strips_init():
    assert module_name_for("repro/ps/group.py") == "repro.ps.group"
    assert module_name_for("repro/ps/__init__.py") == "repro.ps"


def test_cross_module_call_resolution():
    project = build(
        {
            "repro/a.py": "def helper():\n    return 1\n",
            "repro/b.py": (
                "from repro.a import helper\n"
                "def run():\n    return helper()\n"
            ),
        }
    )
    assert "repro.a.helper" in project.callees_of("repro.b.run")
    assert "repro.b.run" in project.callers_of("repro.a.helper")


def test_reexport_chasing_through_package_init():
    project = build(
        {
            "repro/pkg/__init__.py": "from .impl import helper\n",
            "repro/pkg/impl.py": "def helper():\n    return 1\n",
            "repro/user.py": (
                "from repro.pkg import helper\n"
                "def run():\n    return helper()\n"
            ),
        }
    )
    assert "repro.pkg.impl.helper" in project.callees_of("repro.user.run")


def test_method_call_on_constructed_instance():
    project = build(
        {
            "repro/svc.py": (
                "class Service:\n"
                "    def ping(self):\n        return 1\n"
            ),
            "repro/use.py": (
                "from repro.svc import Service\n"
                "def run():\n"
                "    svc = Service()\n"
                "    return svc.ping()\n"
            ),
        }
    )
    assert "repro.svc.Service.ping" in project.callees_of("repro.use.run")


def test_method_call_on_annotated_self_attr():
    project = build(
        {
            "repro/svc.py": (
                "class Service:\n"
                "    def ping(self):\n        return 1\n"
            ),
            "repro/use.py": (
                "from repro.svc import Service\n"
                "class Holder:\n"
                "    def __init__(self):\n"
                "        self.svc = Service()\n"
                "    def run(self):\n"
                "        return self.svc.ping()\n"
            ),
        }
    )
    assert "repro.svc.Service.ping" in project.callees_of(
        "repro.use.Holder.run"
    )


def test_container_element_inference_over_subscript_read():
    """`self.servers[i].handle(...)` resolves through the list's element
    type — the pattern PSGroup uses for its server fan-out."""
    project = build(
        {
            "repro/server.py": (
                "class Server:\n"
                "    def handle(self, row):\n        return row\n"
            ),
            "repro/group.py": (
                "from repro.server import Server\n"
                "class Group:\n"
                "    def __init__(self, n):\n"
                "        self.servers = [Server() for _ in range(n)]\n"
                "    def push(self, i, row):\n"
                "        server = self.servers[i]\n"
                "        return server.handle(row)\n"
            ),
        }
    )
    assert "repro.server.Server.handle" in project.callees_of(
        "repro.group.Group.push"
    )


def test_nested_closure_calls_attributed_to_enclosing_function():
    project = build(
        {
            "repro/a.py": "def target():\n    return 1\n",
            "repro/b.py": (
                "from repro.a import target\n"
                "def outer():\n"
                "    def inner():\n"
                "        return target()\n"
                "    return inner\n"
            ),
        }
    )
    assert "repro.a.target" in project.callees_of("repro.b.outer")


def test_transitive_callees_follow_chains():
    project = build(
        {
            "repro/m.py": (
                "def a():\n    return b()\n"
                "def b():\n    return c()\n"
                "def c():\n    return 1\n"
            ),
        }
    )
    assert project.transitive_callees("repro.m.a") >= {
        "repro.m.b",
        "repro.m.c",
    }
    assert project.transitive_callers("repro.m.c") >= {
        "repro.m.a",
        "repro.m.b",
    }


def test_function_at_finds_innermost_owner():
    source = (
        "import time\n"
        "def outer():\n"
        "    def inner():\n"
        "        return time.time()\n"
        "    return inner\n"
        "x = 1\n"
    )
    project = build({"repro/m.py": source})
    ctx = project.context_for("repro/m.py")
    call = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Call))
    owner = project.function_at("repro/m.py", call)
    assert owner is not None and owner.qualname == "repro.m.outer"
    assign = next(n for n in ast.walk(ctx.tree) if isinstance(n, ast.Assign))
    module_fn = project.function_at("repro/m.py", assign)
    assert module_fn is not None
    assert module_fn.name == Project.MODULE_FUNCTION


# ----------------------------------------------------------------------
# import graph: cycles and exemptions
# ----------------------------------------------------------------------


def test_runtime_import_cycle_detected():
    project = build(
        {
            "repro/x.py": "import repro.y\n",
            "repro/y.py": "import repro.x\n",
        }
    )
    cycles = project.import_cycles()
    assert cycles == [["repro.x", "repro.y"]]


def test_deferred_import_breaks_the_cycle():
    project = build(
        {
            "repro/x.py": "import repro.y\n",
            "repro/y.py": "def late():\n    import repro.x\n    return repro.x\n",
        }
    )
    assert project.import_cycles() == []


def test_type_checking_import_breaks_the_cycle():
    project = build(
        {
            "repro/x.py": "import repro.y\n",
            "repro/y.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import repro.x\n"
            ),
        }
    )
    assert project.import_cycles() == []


def test_deferred_import_still_recorded_as_edge():
    """Layering needs the deferred edge even though cycles forgive it."""
    project = build(
        {
            "repro/y.py": "def late():\n    import repro.x\n",
            "repro/x.py": "x = 1\n",
        }
    )
    edges = project.imports["repro.y"]
    assert [(e.target, e.deferred) for e in edges] == [("repro.x", True)]


# ----------------------------------------------------------------------
# dataflow: the RP008 taint engine
# ----------------------------------------------------------------------


def _taint_result(source: str):
    tree = ast.parse(source)
    fn = tree.body[0]

    def source_of(call: ast.Call) -> str | None:
        if isinstance(call.func, ast.Attribute) and call.func.attr == "time":
            return "time.time"
        return None

    return fn, analyze_taint(fn, source_of)


def _sink_call(fn: ast.AST) -> ast.Call:
    return next(
        n
        for n in ast.walk(fn)
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "sink"
    )


def test_taint_flows_through_assignment_and_arithmetic():
    fn, result = _taint_result(
        "def f(sink):\n"
        "    import time\n"
        "    t = time.time()\n"
        "    shifted = t - 3\n"
        "    sink(shifted)\n"
    )
    sink_call = _sink_call(fn)
    taints = result.call_args[id(sink_call)]
    assert {t.source for t in taints} == {"time.time"}
    assert {t.line for t in taints} == {3}


def test_taint_flows_through_container_literals():
    fn, result = _taint_result(
        "def f(sink):\n"
        "    import time\n"
        "    payload = {'saved_at': time.time()}\n"
        "    sink(payload)\n"
    )
    sink_call = _sink_call(fn)
    assert result.call_args[id(sink_call)]


def test_taint_survives_loop_carried_accumulation():
    fn, result = _taint_result(
        "def f(sink):\n"
        "    import time\n"
        "    total = 0.0\n"
        "    for _ in range(3):\n"
        "        total = total + time.time()\n"
        "    sink(total)\n"
    )
    sink_call = _sink_call(fn)
    assert result.call_args[id(sink_call)]


def test_subscript_store_taints_the_container():
    fn, result = _taint_result(
        "def f(sink):\n"
        "    import time\n"
        "    payload = {}\n"
        "    payload['at'] = time.time()\n"
        "    sink(payload)\n"
    )
    sink_call = _sink_call(fn)
    assert result.call_args[id(sink_call)]


def test_clean_values_carry_no_taint():
    fn, result = _taint_result(
        "def f(sink, model):\n"
        "    payload = {'weights': model}\n"
        "    sink(payload)\n"
    )
    sink_call = _sink_call(fn)
    assert not result.call_args.get(id(sink_call))


def test_returns_collect_taint():
    _, result = _taint_result(
        "def f():\n"
        "    import time\n"
        "    return time.time()\n"
    )
    assert {t.source for t in result.returns} == {"time.time"}


# ----------------------------------------------------------------------
# the declared contract: [tool.reprolint], both TOML readers
# ----------------------------------------------------------------------

MULTI_LINE = """\
[project]
keywords = [
    "not",  # ours
    "ours",
]

[tool.reprolint]
clock-seam = [
    "repro/utils/timing.py",  # the seam, "quoted" in a comment
    "repro/utils/clock#2.py",
]

[tool.reprolint.layering]
"repro.tree" = ["repro.serving", "asyncio"]  # kernels # stay "low"
"repro.serving" = []

[tool.other]
clock-seam = ["not/ours.py"]
"""

#: (what is wrong, [tool.reprolint] text, the key the error must name)
MALFORMED = [
    ("seam is a string", 'clock-seam = "repro/utils/timing.py"', "clock-seam"),
    ("seam holds an empty string", 'clock-seam = ["a.py", ""]', "clock-seam"),
    ("seam holds a number", "clock-seam = [1, 2]", "clock-seam"),
    ("seam is a number", "clock-seam = 3", "clock-seam"),
    ("unknown key", 'clock-seams = ["a.py"]', "clock-seams"),
    ("layering is a list", 'layering = ["repro.tree"]', "layering"),
    (
        "layering row is a string",
        '[tool.reprolint.layering]\n"repro.tree" = "asyncio"',
        "layering.repro.tree",
    ),
]


def test_minimal_reader_matches_tomllib():
    """The 3.10 reader returns what tomllib returns — on the repo's own
    pyproject.toml, on multi-line arrays, and on trailing comments."""
    tomllib = pytest.importorskip("tomllib")
    for text in (PYPROJECT.read_text(encoding="utf-8"), MULTI_LINE):
        expected = tomllib.loads(text)["tool"]["reprolint"]
        assert _read_toml_minimal(text) == expected
    assert _read_toml_minimal(MULTI_LINE)["clock-seam"] == [
        "repro/utils/timing.py",
        "repro/utils/clock#2.py",
    ]
    assert _read_toml_minimal("[project]\nname = 'x'\n") is None


@pytest.mark.parametrize("reader", [_read_toml_minimal, _read_tool_reprolint])
@pytest.mark.parametrize(
    "body, key", [row[1:] for row in MALFORMED], ids=[row[0] for row in MALFORMED]
)
def test_malformed_contract_is_rejected_by_name(reader, body, key, tmp_path):
    text = body if body.startswith("[") else "[tool.reprolint]\n" + body
    with pytest.raises(LintConfigError) as caught:
        LintConfig.from_table(reader(text + "\n"), tmp_path / "pyproject.toml")
    assert f"pyproject.toml: {key}: " in str(caught.value)


def test_unparseable_pyproject_raises_instead_of_falling_back(tmp_path):
    pytest.importorskip("tomllib")  # the 3.10 reader skims, it cannot tell
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.reprolint\nclock-seam = [\n", encoding="utf-8")
    with pytest.raises(LintConfigError, match="bad \\[tool.reprolint\\] in "):
        LintConfig.discover(tmp_path)


def test_no_declared_contract_is_the_empty_one(tmp_path):
    assert LintConfig.discover(tmp_path) == LintConfig()
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    assert LintConfig.discover(tmp_path) == LintConfig()
    assert LintConfig().clock_seam == () and LintConfig().layering == {}


# ----------------------------------------------------------------------
# patrol tests: what the pass over src/ derives, written out
# ----------------------------------------------------------------------


def test_rp002_seam_derivation_matches_fallback_and_pyproject(src_project):
    """One seam, one entry — declared in pyproject.toml, nowhere else."""
    assert src_project.config.clock_seam == ("repro/utils/timing.py",)
    assert LintConfig.from_pyproject(PYPROJECT) == src_project.config == DECLARED


def test_rp006_seam_derivation_matches_fallback(src_project):
    """The names are written out so that a type-inference regression
    which silently drops a pusher from the derivation fails here."""
    handlers, pushers = PSSequenceToken.derive_seams(src_project)
    assert handlers == {
        "handle_push",
        "handle_push_slab",
        "handle_push_sketch",
        "handle_push_window",
    }
    assert pushers == {
        "push_row",
        "push_slab",
        "push_sketch",
        "push_window",
        "push_window_rows",
    }


def test_layering_contract_matches_pyproject(src_project):
    kernels = ("repro.distributed", "repro.serving", "repro.chaos", "asyncio")
    assert src_project.config.layering == {
        "repro.tree": kernels,
        "repro.histogram": kernels,
        "repro.sketch": kernels,
        "repro.compression": kernels,
        "repro.serving": ("repro.chaos",),
    }


def test_src_call_graph_spans_the_ps_transport(src_project):
    """Smoke: the edges the PS rules lean on actually exist in src."""
    push_row = "repro.ps.group.ParameterServerGroup.push_row"
    assert push_row in src_project.functions
    assert any(
        callee.endswith("PSServer.handle_push")
        for callee in src_project.callees_of(push_row)
    )


def test_src_tree_has_no_runtime_import_cycles(src_project):
    assert src_project.import_cycles() == []
