"""Regression trees: structure, split finding, and layer-wise growth.

* :class:`SplitDecision` / split scans — Algorithm 1 lines 10-17, the
  gain-maximizing scan over gradient histograms, in whole-histogram and
  feature-range (server-side) forms.
* :class:`RegressionTree` — heap-layout tree with vectorized prediction.
* :class:`LayerwiseGrower` — the single-process reference engine growing
  one tree layer by layer (Section 4.4's layer-wise scheme), shared by
  the single-machine trainer and reused as each worker's local logic.
"""

from .split import SplitDecision, find_best_split, best_split_in_range, leaf_weight
from .tree import RegressionTree
from .grower import GrownTree, LayerwiseGrower
from .bestfirst import BestFirstGrower

__all__ = [
    "SplitDecision",
    "find_best_split",
    "best_split_in_range",
    "leaf_weight",
    "RegressionTree",
    "GrownTree",
    "LayerwiseGrower",
    "BestFirstGrower",
]
