"""Tests for the shared utilities (RNG spawning, timing)."""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.utils import TimeBreakdown, spawn_rng


class TestSpawnRng:
    def test_same_key_same_stream(self):
        a = spawn_rng(7, "component", 3).random(5)
        b = spawn_rng(7, "component", 3).random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_keys_different_streams(self):
        a = spawn_rng(7, "component", 3).random(5)
        b = spawn_rng(7, "component", 4).random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_different_streams(self):
        a = spawn_rng(7, "x").random(5)
        b = spawn_rng(8, "x").random(5)
        assert not np.array_equal(a, b)

    def test_key_order_matters(self):
        a = spawn_rng(0, "a", "b").random(3)
        b = spawn_rng(0, "b", "a").random(3)
        assert not np.array_equal(a, b)

    def test_handles_arbitrary_key_types(self):
        rng = spawn_rng(0, ("tuple", 1), 2.5, None)
        assert 0.0 <= rng.random() < 1.0


class TestTimeBreakdown:
    def test_total(self):
        b = TimeBreakdown(loading=1.0, computation=2.0, communication=3.0)
        assert b.total == 6.0

    def test_as_dict(self):
        b = TimeBreakdown(loading=1.0, computation=2.0)
        d = b.as_dict()
        assert d["loading"] == 1.0
        assert d["total"] == 3.0
        assert list(d) == ["loading", "computation", "communication", "total"]

    def test_three_fields_only(self):
        """Appendix A.2's three times and nothing else: no ``extra`` bag,
        no in-place ``add``."""
        assert [f.name for f in fields(TimeBreakdown)] == [
            "loading",
            "computation",
            "communication",
        ]
        assert not hasattr(TimeBreakdown, "add")
        with pytest.raises(TypeError):
            TimeBreakdown(extra={"warmup": 0.5})


def test_stopwatch_is_gone():
    """Measured compute is timed by the phase stages' worker timers."""
    import repro.utils
    import repro.utils.timing

    assert not hasattr(repro.utils, "Stopwatch")
    assert not hasattr(repro.utils.timing, "Stopwatch")
