"""Known-good RP002 twin: timing flows through the audited seam."""

import time

from repro.utils.timing import wall_clock


def measure() -> float:
    started = wall_clock()
    time.sleep(0)  # sleeping is not a clock *read*
    return wall_clock() - started


def accumulate(steps: int) -> float:
    total = 0.0
    for _ in range(steps):
        started = wall_clock()
        total += wall_clock() - started
    return total
