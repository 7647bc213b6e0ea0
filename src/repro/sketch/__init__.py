"""Quantile sketches and split-candidate proposal.

The paper proposes split candidates from percentiles of the feature
distribution computed with distributed quantile sketches (Section 2.2,
referencing GK and DataSketches; Section 7.1: "We implement DataSketches
to generate quantile sketches").  This package provides:

* :class:`GKSketch` — a Greenwald-Khanna epsilon-approximate quantile
  summary with streaming insert, batch construction from sorted data, and
  merging (the CREATE_SKETCH / PULL_SKETCH phases push local sketches to
  the PS and pull merged ones).
* :class:`SketchBatch` — one summary per feature in ragged flat storage:
  what :func:`sketch_columns` returns, one wire frame per (worker,
  partition), merged and queried without a loop over features.
* :class:`CandidateSet` — per-feature split-candidate cut points with the
  bucketization used by the histogram builders (Algorithm 1 line 2).
"""

from .quantile import (
    GKSketch,
    SketchBatch,
    WeightedGKSketch,
    sketch_columns,
    sketch_columns_weighted,
)
from .candidates import (
    CandidateSet,
    propose_candidates,
    propose_candidates_from_sketches,
    propose_candidates_weighted,
)

__all__ = [
    "GKSketch",
    "SketchBatch",
    "WeightedGKSketch",
    "sketch_columns",
    "sketch_columns_weighted",
    "CandidateSet",
    "propose_candidates",
    "propose_candidates_from_sketches",
    "propose_candidates_weighted",
]
