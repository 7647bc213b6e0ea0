"""Hostile fault-plan JSON through ``FaultPlan.from_dict`` / ``load``.

A fault plan is outside input (``repro train --fault-plan``): any JSON
value must come back as a :class:`FaultPlan` or a :class:`ConfigError`
naming the field, never as a foreign exception and never as a plan that
puts NaN on the simulated clock or can never fire.
"""

from __future__ import annotations

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FAULT_KINDS, FAULT_POINTS, FaultEvent, FaultPlan
from repro.cli import main
from repro.errors import ConfigError

EVENT_FIELDS = [field.name for field in dataclasses.fields(FaultEvent)]
DROP = {"kind": "drop", "point": "push"}
DELAY = {"kind": "delay", "point": "barrier", "delay_seconds": 0.5}


def plan_with(event=None, **top) -> dict:
    return {"version": 1, "events": [event or DROP], **top}


#: One payload per rule, each breaking exactly that rule: (payload, the
#: field its ConfigError must name).
HOSTILE = {
    "seed-string": (plan_with(seed="abc"), "seed"),
    "seed-nan": (plan_with(seed=math.nan), "seed"),
    "seed-overflow": (plan_with(seed=math.inf), "seed"),  # JSON 1e400
    "seed-fraction": (plan_with(seed=1.5), "seed"),
    "seed-bool": (plan_with(seed=True), "seed"),
    "name-list": (plan_with(name=["a"]), "name"),
    "version-2": (plan_with(version=2), "version"),
    "version-string": (plan_with(version="1"), "version"),
    "events-object": ({"events": {"kind": "drop"}}, "events"),
    "event-string": ({"events": ["drop"]}, r"events\[0\]"),
    "delay-nan": (plan_with({**DELAY, "delay_seconds": math.nan}), "delay_seconds"),
    "delay-inf": (plan_with({**DELAY, "delay_seconds": math.inf}), "delay_seconds"),
    "delay-string": (plan_with({**DROP, "delay_seconds": "1"}), "delay_seconds"),
    "delay-negative": (plan_with({**DROP, "delay_seconds": -1.0}), "delay_seconds"),
    "round-fraction": (plan_with({**DROP, "round_": 0.5}), "round_"),
    "worker-fraction": (plan_with({**DROP, "worker": 1.5}), "worker"),
    "server-string": (plan_with({**DROP, "server": "0"}), "server"),
    "every-fraction": (plan_with({**DROP, "every": 1.5}), "every"),
    "times-fraction": (plan_with({**DROP, "times": 0.5}), "times"),
    "attempts-bool": (plan_with({**DROP, "attempts": True}), "attempts"),
    "unknown-field": (plan_with({**DROP, "bogus": 1}), "malformed fault plan"),
    "not-an-object": ([DROP], "JSON object"),
}


@pytest.mark.parametrize("case", HOSTILE.values(), ids=HOSTILE.keys())
def test_each_rule_is_a_config_error_naming_the_field(case):
    payload, field = case
    with pytest.raises(ConfigError, match=field):
        FaultPlan.from_dict(payload)


def test_version_one_and_a_missing_version_are_read():
    event = FaultEvent("drop", "push")
    assert FaultPlan.from_dict(plan_with()).events == (event,)
    assert FaultPlan.from_dict({"events": [DROP]}).events == (event,)


@pytest.mark.parametrize(
    "text",
    ['{"seed": 1e400}', '{"seed": NaN}', '{"events": [{"kind": "delay", '
     '"point": "barrier", "delay_seconds": Infinity}]}', "[" * 100_000],
    ids=["seed-1e400", "seed-NaN", "delay-Infinity", "deep-nesting"],
)
def test_load_turns_hostile_files_into_config_errors(tmp_path, text):
    path = tmp_path / "plan.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError):
        FaultPlan.load(path)


def test_load_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "plan.json"
    path.write_bytes(b'{"name": "\xff\xfe"}')
    with pytest.raises(ConfigError, match="invalid JSON"):
        FaultPlan.load(path)


def test_cli_exits_2_on_a_hostile_plan(tmp_path, capsys):
    data = tmp_path / "d.libsvm"
    data.write_text("1 1:0.5\n0 2:1.0\n", encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text('{"seed": "abc", "events": []}', encoding="utf-8")
    model = tmp_path / "m.json"
    code = main(
        ["train", str(data), "--model", str(model), "--system", "dimboost",
         "--fault-plan", str(plan)]
    )
    assert code == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not model.exists()


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
#: Values that make a field check reachable, not only a type error.
FIELD_VALUES = (
    JSON_VALUES
    | st.sampled_from(FAULT_KINDS + FAULT_POINTS)
    | st.integers(-2, 6)
    | st.floats(-1.0, 2.0)
)
#: A valid event with up to two fields replaced (or added).
EVENTS = st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from([DROP, DELAY, {"kind": "crash", "point": "barrier", "worker": 0}]),
    st.dictionaries(st.sampled_from([*EVENT_FIELDS, "bogus"]), FIELD_VALUES, max_size=2),
)
#: A valid plan with up to two top-level keys replaced (or added).
PLANS = st.builds(
    lambda events, changes: {"version": 1, "seed": 0, "events": events, **changes},
    st.lists(EVENTS, max_size=3),
    st.dictionaries(
        st.sampled_from(["version", "seed", "name", "events", "bogus"]),
        FIELD_VALUES | st.lists(JSON_VALUES, max_size=2),
        max_size=2,
    ),
)


@settings(max_examples=300, deadline=None)
@given(payload=PLANS | JSON_VALUES)
def test_any_json_value_is_a_plan_or_a_config_error(payload):
    try:
        plan = FaultPlan.from_dict(payload)
    except ConfigError:
        return
    # An accepted plan is a clean one: it survives its own JSON.
    assert FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
    for event in plan.events:
        assert math.isfinite(event.delay_seconds)
