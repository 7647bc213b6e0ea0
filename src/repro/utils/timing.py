"""The wall clock: the only module under ``src/`` that touches ``time.*``.

This module is the *audited clock seam* (reprolint RP002 declares it in
``[tool.reprolint].clock-seam``; every other module reading ``time.*``
is a finding).  Trainers, the phase runner's worker timers and the
serving runtime all take instants from here — :data:`wall_clock`
seconds or :data:`wall_clock_ns` nanoseconds — so a grep for
``wall_clock`` finds every timing site, training phase seconds and
serving latencies share one value stream, and determinism tests stub
the clock in exactly one place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

#: The audited wall-clock read: monotonic float seconds.  Bound to the
#: primitive itself, not wrapped, so the build and serving hot paths pay
#: no Python frame per read.
wall_clock = time.perf_counter

#: Monotonic integer nanoseconds, for sub-millisecond stage latencies.
wall_clock_ns = time.perf_counter_ns


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

    @property
    def total(self) -> float:
        """Sum of all accounted time."""
        return self.loading + self.computation + self.communication

    def as_dict(self) -> dict[str, float]:
        """Return a flat dict suitable for printing or JSON dumping."""
        return {
            "loading": self.loading,
            "computation": self.computation,
            "communication": self.communication,
            "total": self.total,
        }
