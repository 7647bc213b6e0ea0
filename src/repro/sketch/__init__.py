"""Quantile sketches and split-candidate proposal.

The paper proposes split candidates from percentiles of the feature
distribution computed with distributed quantile sketches (Section 2.2,
referencing GK and DataSketches; Section 7.1: "We implement DataSketches
to generate quantile sketches").  This package provides:

* :class:`SketchBatch` — one Greenwald-Khanna epsilon-approximate
  quantile summary per feature in ragged flat storage: what
  :func:`sketch_columns` returns, one wire frame per (worker, partition)
  — the only sketch format — merged and queried without a loop over
  features (CREATE_SKETCH pushes local sketches to the PS, which merges
  them per partition).
* :class:`GKSketch` / :class:`WeightedGKSketch` — one summary, a
  read-only view of a one-summary batch: batch construction from sorted
  data, merging and queries.
* :class:`CandidateSet` — per-feature split-candidate cut points with the
  bucketization used by the histogram builders (Algorithm 1 line 2).
  In PULL_SKETCH the servers propose them from their merged summaries
  (:func:`propose_candidates_from_sketches`, once per partition) and a
  worker pulls the candidate frame of its own stripe only.
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
]
