"""Known-good RP002 serving twin: instants come from the clock seam.

Same module shape as the bad fixture, but every instant flows through
:mod:`repro.utils.timing` — the one module allowed to read ``time.*``
directly.
"""

from repro.utils.timing import wall_clock, wall_clock_ns


def admit() -> float:
    return wall_clock()


def request_deadline(budget_s: float) -> float:
    return wall_clock() + budget_s


def stamp_ns() -> int:
    return wall_clock_ns()
