"""The unified training runtime.

Four seams shared by every trainer (single-machine, multiclass,
distributed):

* :mod:`~repro.runtime.loop` — :class:`BoostingLoop`, the one per-tree
  cycle, parameterized by a :class:`TreeGrowthStrategy`;
* :mod:`~repro.runtime.phases` — :class:`PhaseRunner` /
  :class:`PhaseStage`, the Section 4.4 worker phases as stage objects
  owning phase transitions and time attribution;
* :mod:`~repro.runtime.hooks` — the :class:`TrainerCallback` spine that
  observability attaches to at stage boundaries;
* :mod:`~repro.runtime.build` — :class:`HistogramBuildStrategy`
  (dense / sparse), the distributed engine's build seam.

See ``docs/runtime.md`` for how a new execution backend plugs in.
"""

from .build import DenseBuildStrategy, HistogramBuildStrategy, SparseBuildStrategy
from .hooks import (
    CallbackList,
    HistoryCollector,
    RecordingCallback,
    TrainerCallback,
)
from .loop import BoostingLoop, TreeGrowthStrategy, sample_features
from .phases import PhaseRunner, PhaseStage, WorkerTimer

__all__ = [
    "BoostingLoop",
    "TreeGrowthStrategy",
    "sample_features",
    "PhaseRunner",
    "PhaseStage",
    "WorkerTimer",
    "TrainerCallback",
    "CallbackList",
    "HistoryCollector",
    "RecordingCallback",
    "HistogramBuildStrategy",
    "DenseBuildStrategy",
    "SparseBuildStrategy",
]
