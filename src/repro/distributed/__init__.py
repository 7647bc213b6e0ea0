"""Distributed GBDT trainers: DimBoost and the four baseline systems.

One engine (:class:`DistributedGBDT`) drives the per-layer training loop
of Section 1's "core operation" — partition, build local histograms,
aggregate + find split, split tree — on the simulated cluster.  What
varies between systems is the *aggregation backend*:

==============  =====================================================
System          Aggregation / split finding
==============  =====================================================
mllib           all-to-one reduce to a coordinator, who finds splits
xgboost         binomial-tree AllReduce to a root, who finds splits
lightgbm        recursive-halving ReduceScatter; each worker splits
                its owned feature range, small-result allgather
tencentboost    parameter server, full-histogram pulls by one leader
dimboost        parameter server + round-robin scheduler + two-phase
                split + low-precision histograms (each toggleable)
==============  =====================================================

All backends produce numerically identical merged histograms, so with
compression off every system grows the same trees as the single-machine
reference — the integration tests assert exactly that.
"""

from .scheduler import RoundRobinScheduler, SingleAgentScheduler
from .backends import (
    AggregationBackend,
    DimBoostBackend,
    LightGBMBackend,
    MLlibBackend,
    TencentBoostBackend,
    XGBoostBackend,
    BACKEND_NAMES,
)
from .plan import RunPlan, make_backend
from .engine import DistributedGBDT, DistributedResult, RoundRecord, train_distributed

__all__ = [
    "RoundRobinScheduler",
    "SingleAgentScheduler",
    "AggregationBackend",
    "MLlibBackend",
    "XGBoostBackend",
    "LightGBMBackend",
    "TencentBoostBackend",
    "DimBoostBackend",
    "RunPlan",
    "make_backend",
    "BACKEND_NAMES",
    "DistributedGBDT",
    "DistributedResult",
    "RoundRecord",
    "train_distributed",
]
