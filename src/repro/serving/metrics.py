"""Serving metrics: queue depth, batch-size histogram, stage latencies.

Pure aggregation — this module never reads the clock.  Every duration
it records was measured by the runtime through the audited seam
(:mod:`repro.utils.timing`), so the RP002 invariant holds for the whole
serving package: everything here does arithmetic on values it was handed.
"""

from __future__ import annotations

import operator
from collections import Counter, deque
from functools import reduce
from typing import Any

import numpy as np

__all__ = ["LatencyStat", "ServingMetrics"]

#: Samples kept per latency stat for percentile estimation.  A bounded
#: window keeps a long-lived server's memory flat; counters and totals
#: remain exact over the full lifetime.
SAMPLE_WINDOW = 65_536


class LatencyStat:
    """One stage's latency aggregate: exact count/total/max + a sample
    window for percentiles."""

    def __init__(self, window: int = SAMPLE_WINDOW) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self._samples: deque[float] = deque(maxlen=window)

    def observe(self, seconds: float) -> None:
        """Record one measured duration."""
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        self._samples.append(seconds)

    def observe_many(self, samples: list[float]) -> None:
        """Record durations exactly as one :meth:`observe` each would: the
        total is a left fold, not ``sum`` (compensated on Python 3.12+)."""
        self.count += len(samples)
        self.total = reduce(operator.add, samples, self.total)
        self.max = max(self.max, max(samples, default=self.max))
        self._samples.extend(samples)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the sample window (0.0 if empty)."""
        if not self._samples:
            return 0.0
        return float(
            np.percentile(np.asarray(self._samples, dtype=np.float64), q)
        )

    def snapshot(self) -> dict[str, float]:
        """count/mean/max/p50/p99 in milliseconds (durations only)."""
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": float(self.count),
            "mean_ms": mean * 1e3,
            "max_ms": self.max * 1e3,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p99_ms": self.percentile(99.0) * 1e3,
        }


class ServingMetrics:
    """Counters and latency stats of one :class:`ServingRuntime`.

    Attributes:
        submitted: Requests that passed admission into the queue.
        served: Requests answered with a prediction.
        rejected_queue_full: Requests shed at admission (queue at limit).
        rejected_deadline: Requests shed at dequeue (deadline expired
            while queued).
        rejected_shutdown: Requests failed because the runtime stopped.
        empty_flushes: Batch-loop wakeups whose every request had been
            shed or refused — the flush scored nothing.
        swaps: Completed model hot-swaps.
        batch_sizes: Histogram ``{rows: flush count}`` of scored batches.
    """

    def __init__(self) -> None:
        self.submitted = 0
        self.served = 0
        self.rejected_queue_full = 0
        self.rejected_deadline = 0
        self.rejected_shutdown = 0
        self.empty_flushes = 0
        self.swaps = 0
        self.batch_sizes: Counter[int] = Counter()
        self.queue_depth_max = 0
        self._queue_depth_total = 0
        self._queue_depth_obs = 0
        self.queue_wait = LatencyStat()
        self.score = LatencyStat()
        self.total = LatencyStat()

    def observe_queue_depth(self, depth: int) -> None:
        """Record the admission-queue depth at one observation point."""
        self.queue_depth_max = max(self.queue_depth_max, depth)
        self._queue_depth_total += depth
        self._queue_depth_obs += 1

    def observe_batch(self, rows: int) -> None:
        """Record one scored micro-batch's row count."""
        self.batch_sizes[rows] += 1

    @property
    def queue_depth_mean(self) -> float:
        """Mean observed queue depth (0.0 before any observation)."""
        if self._queue_depth_obs == 0:
            return 0.0
        return self._queue_depth_total / self._queue_depth_obs

    @property
    def rejected(self) -> int:
        """Total shed requests across every rejection cause."""
        return (
            self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_shutdown
        )

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe view for the ``stats`` server op and the bench."""
        return {
            "submitted": self.submitted,
            "served": self.served,
            "rejected": {
                "queue_full": self.rejected_queue_full,
                "deadline": self.rejected_deadline,
                "shutdown": self.rejected_shutdown,
            },
            "empty_flushes": self.empty_flushes,
            "swaps": self.swaps,
            "batch_sizes": {
                str(rows): count
                for rows, count in sorted(self.batch_sizes.items())
            },
            "queue_depth": {
                "max": self.queue_depth_max,
                "mean": self.queue_depth_mean,
            },
            "latency": {
                "queue_wait": self.queue_wait.snapshot(),
                "score": self.score.snapshot(),
                "total": self.total.snapshot(),
            },
        }
