"""Known-good RP002 serving twin: instants come from the clock seam.

Same module shape as the bad fixture, but every instant flows through
:mod:`repro.utils.timing` — the one module allowed to read ``time.*``
directly.
"""

from repro.utils.timing import Deadline, wall_clock, wall_clock_ns


def admit() -> float:
    return wall_clock()


def batch_deadline(delay_s: float) -> Deadline:
    return Deadline(wall_clock() + delay_s)


def stamp_ns() -> int:
    return wall_clock_ns()
