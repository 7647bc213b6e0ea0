"""Simulated cluster substrate: cost model, clock, and collectives.

The paper's Section 3 analyzes the histogram-aggregation operators of
four systems with an alpha-beta-gamma cost model (Table 1).  This package
implements:

* the closed-form cost model (:mod:`costmodel`),
* a simulated clock with parallel-region accounting (:mod:`simclock`),
* the four aggregation operators as *real* algorithms — messages carry
  real numpy payloads along the exact communication topology each system
  uses (binomial tree, recursive halving, all-to-one, PS scatter) — whose
  elapsed time is charged per the paper's model (:mod:`collectives`).
"""

from .costmodel import (
    CostParams,
    mllib_aggregation_time,
    xgboost_aggregation_time,
    lightgbm_aggregation_time,
    dimboost_aggregation_time,
    aggregation_time,
    crossover_workers,
    SYSTEM_NAMES,
)
from .simclock import LayerSpeedJitter, SimClock
from .collectives import (
    CollectiveResult,
    reduce_to_coordinator,
    allreduce_binomial,
    reduce_scatter_halving,
    ps_aggregate,
    point_to_point_time,
)

__all__ = [
    "CostParams",
    "mllib_aggregation_time",
    "xgboost_aggregation_time",
    "lightgbm_aggregation_time",
    "dimboost_aggregation_time",
    "aggregation_time",
    "crossover_workers",
    "SYSTEM_NAMES",
    "LayerSpeedJitter",
    "SimClock",
    "CollectiveResult",
    "reduce_to_coordinator",
    "allreduce_binomial",
    "reduce_scatter_halving",
    "ps_aggregate",
    "point_to_point_time",
]
