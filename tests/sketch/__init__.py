"""Sketch tests, and the two ways they compare summaries bit for bit."""

from __future__ import annotations

import numpy as np

from repro.sketch import GKSketch, SketchBatch, WeightedGKSketch


def frame_of(summary) -> bytes:
    """``summary`` in the one sketch wire format: a frame of one."""
    return SketchBatch.from_sketches([summary]).to_frame()


def summary_fields(summary) -> tuple[bytes, ...]:
    """``(eps, count, mass, values, g, delta)`` of a live summary or of a
    frozen list-backed reference one, each as the bytes of its array."""
    weighted = hasattr(summary, "total_weight")
    rank = np.float64 if weighted else np.int64
    if isinstance(summary, (GKSketch, WeightedGKSketch)):
        one = SketchBatch.from_sketches([summary])
        columns = (one.eps, one.counts, one.masses, one.values, one.g, one.delta)
    else:
        mass = summary.total_weight if weighted else summary.count
        columns = (
            summary.eps, summary.count, mass, summary._values, summary._g, summary._delta
        )
    dtypes = (np.float64, np.int64, rank, np.float64, rank, rank)
    return tuple(np.asarray(c, dtype).tobytes() for c, dtype in zip(columns, dtypes))
