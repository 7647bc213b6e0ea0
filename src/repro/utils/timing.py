"""The wall clock: the only module under ``src/`` that touches ``time.*``.

This module is the *audited clock seam* (reprolint RP002 declares it in
``[tool.reprolint].clock-seam``; every other module reading ``time.*``
is a finding).  Trainers, build strategies, the phase runner and the
serving runtime all take instants from here — :data:`wall_clock`
seconds, :data:`wall_clock_ns` nanoseconds, or the :class:`Stopwatch`
built on them — so a grep for ``wall_clock`` finds every timing site,
training phase seconds and serving latencies share one value stream,
and determinism tests stub the clock in exactly one place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: The audited wall-clock read: monotonic float seconds.  Bound to the
#: primitive itself, not wrapped, so the build and serving hot paths pay
#: no Python frame per read.
wall_clock = time.perf_counter

#: Monotonic integer nanoseconds, for sub-millisecond stage latencies.
wall_clock_ns = time.perf_counter_ns


class Stopwatch:
    """Accumulating stopwatch for measuring real compute time.

    Usage::

        sw = Stopwatch()
        with sw:
            do_work()
        print(sw.total)
    """

    def __init__(self) -> None:
        self.total: float = 0.0
        self._started_at: float | None = None

    def __enter__(self) -> "Stopwatch":
        self._started_at = wall_clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._started_at is not None:
            self.total += wall_clock() - self._started_at
            self._started_at = None

    def reset(self) -> None:
        """Zero the accumulated total."""
        self.total = 0.0
        self._started_at = None


@dataclass
class TimeBreakdown:
    """Per-phase time decomposition reported by distributed trainers.

    Mirrors the decomposition of Appendix A.2 (Figure 13): data loading,
    computation, and communication.  ``computation`` is real measured
    wall-clock of the histogram/split kernels (divided by the simulated
    parallelism where applicable); ``communication`` is simulated time
    charged by the network cost model.
    """

    loading: float = 0.0
    computation: float = 0.0
    communication: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """Sum of all accounted time."""
        return self.loading + self.computation + self.communication + sum(
            self.extra.values()
        )

    def add(self, other: "TimeBreakdown") -> None:
        """Accumulate ``other`` into this breakdown in place."""
        self.loading += other.loading
        self.computation += other.computation
        self.communication += other.communication
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value

    def as_dict(self) -> dict[str, float]:
        """Return a flat dict suitable for printing or JSON dumping."""
        out = {
            "loading": self.loading,
            "computation": self.computation,
            "communication": self.communication,
            "total": self.total,
        }
        out.update(self.extra)
        return out
