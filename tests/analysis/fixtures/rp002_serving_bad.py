"""Known-bad RP002 serving fixture: a serving module reading the clock.

Serving modules must take instants from :mod:`repro.utils.timing` (the
one declared clock seam) — direct ``time.*`` reads anywhere in
``repro/serving/`` are unaudited latency measurements.
"""

import time
from time import monotonic as mono


def admit() -> float:
    return time.perf_counter()  # expect: RP002


def batch_deadline(delay_s: float) -> float:
    return mono() + delay_s  # expect: RP002


def stamp_ns() -> int:
    return time.perf_counter_ns()  # expect: RP002
