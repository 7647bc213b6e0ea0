"""Tests for the simulated clock, per-layer speed jitter, and the stage
barrier's lanes that charge the clock with both."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import LayerSpeedJitter, SimClock
from repro.config import ClusterConfig
from repro.errors import CommunicationError, ConfigError
from repro.runtime.phases import StalenessLanes


def barrier(n_workers, staleness=0, **cluster):
    """The stage barrier of an ``n_workers`` cluster at bound ``staleness``."""
    return StalenessLanes(ClusterConfig(n_workers, 1, **cluster), staleness, seed=7)


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.time == 0.0
        assert clock.communication == 0.0
        assert clock.computation == 0.0

    def test_comm_and_compute_tracked_separately(self):
        clock = SimClock()
        clock.advance_comm(1.5)
        clock.advance_compute(0.5)
        assert clock.communication == pytest.approx(1.5)
        assert clock.computation == pytest.approx(0.5)
        assert clock.time == pytest.approx(2.0)

    def test_barrier_charges_max(self):
        clock = SimClock()
        charged = barrier(3).defer([0.1, 0.7, 0.3], "B", clock)
        assert charged == 0.7
        assert clock.computation == 0.7

    def test_barrier_empty(self):
        """A synchronous barrier whose workers all read 0 s charges
        nothing but still books its phase label."""
        clock = SimClock()
        assert barrier(2).defer([0.0, 0.0], "B", clock) == 0.0
        assert clock.time == 0.0
        assert clock.by_phase() == {"B": 0.0}

    def test_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(CommunicationError):
            clock.advance_comm(-1.0)
        with pytest.raises(CommunicationError):
            clock.advance_compute(-0.1)

    def test_repr(self):
        clock = SimClock()
        clock.advance_comm(1.0)
        assert "comm=1.0" in repr(clock)


class TestLayerSpeedJitter:
    def test_amplitude_validated(self):
        for amplitude in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ConfigError, match="amplitude"):
                LayerSpeedJitter(4, amplitude)
        with pytest.raises(ConfigError, match="n_workers"):
            LayerSpeedJitter(0, 0.2)

    def test_factors_within_band(self):
        jitter = LayerSpeedJitter(64, 0.3, seed=5)
        for _ in range(10):
            factors = jitter.factors
            assert np.all(factors >= 0.7) and np.all(factors <= 1.3)
            jitter.advance()

    def test_deterministic_and_keyed_by_layer(self):
        """Factors replay across runs and depend on the layer index,
        not on call order (RP001's seeded-randomness invariant)."""
        a = LayerSpeedJitter(8, 0.2, seed=3)
        b = LayerSpeedJitter(8, 0.2, seed=3)
        streams = []
        for _ in range(4):
            np.testing.assert_array_equal(a.factors, b.factors)
            streams.append(a.factors)
            a.advance()
            b.advance()
        # Different layers draw different noise...
        assert not np.array_equal(streams[0], streams[1])
        # ...and different seeds draw different streams.
        other = LayerSpeedJitter(8, 0.2, seed=4)
        assert not np.array_equal(streams[0], other.factors)

    def test_factor_of_past_roster_is_identity(self):
        jitter = LayerSpeedJitter(2, 0.2, seed=0)
        assert jitter.factor_of(2) == 1.0
        assert jitter.factor_of(-1) == 1.0


class TestSimClockJitter:
    """The lanes price every barrier with the current layer's factors."""

    def test_jittered_identity_without_jitter(self):
        lanes = barrier(2, staleness=1)
        lanes.defer([0.1, 0.2], "B", SimClock())
        assert lanes.lane_seconds == [0.1, 0.2]
        lanes.layer_boundary(SimClock())  # no jitter to roll, must not raise

    def test_jittered_divides_by_factors(self):
        jitter = LayerSpeedJitter(3, 0.25, seed=7)
        lanes = barrier(3, staleness=1, speed_jitter=0.25)
        seconds = [0.3, 0.3, 0.3]
        lanes.defer(seconds, "B", SimClock())
        expected = [
            s / jitter.factor_of(w) for w, s in enumerate(seconds)
        ]
        assert lanes.lane_seconds == expected

    def test_barrier_charges_jittered_max(self):
        jitter = LayerSpeedJitter(3, 0.25, seed=7)
        clock = SimClock()
        seconds = [0.3, 0.3, 0.3]
        worst = max(
            s / jitter.factor_of(w) for w, s in enumerate(seconds)
        )
        charged = barrier(3, speed_jitter=0.25).defer(seconds, "B", clock)
        assert charged == worst
        assert clock.computation == worst

    def test_next_layer_changes_factors(self):
        lanes = barrier(4, staleness=1, speed_jitter=0.3)
        clock = SimClock()
        lanes.defer([1.0] * 4, "B", clock)
        before = lanes.lane_seconds
        lanes.sync(clock)
        lanes.layer_boundary(clock)
        lanes.defer([1.0] * 4, "B", clock)
        assert lanes.lane_seconds != before
