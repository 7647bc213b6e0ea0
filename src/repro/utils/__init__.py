"""Small shared utilities: seeded RNG helpers and wall-clock timers."""

from .rng import spawn_rng
from .timing import TimeBreakdown, wall_clock

__all__ = ["spawn_rng", "TimeBreakdown", "wall_clock"]
