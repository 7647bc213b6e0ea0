"""DimBoost reproduction: distributed GBDT for high-dimensional sparse data.

A from-scratch Python implementation of *DimBoost: Boosting Gradient
Boosting Decision Tree to Higher Dimensions* (SIGMOD 2018): the
parameter-server GBDT system, its communication/computation
optimizations, and simulated versions of the baseline systems the paper
compares against (MLlib, XGBoost, LightGBM, TencentBoost).

Quickstart::

    from repro import GBDT, TrainConfig
    from repro.datasets import rcv1_like, train_test_split

    data = rcv1_like(scale=0.2)
    train, test = train_test_split(data)
    model = GBDT(TrainConfig(n_trees=10, max_depth=5)).fit(train)
    proba = model.predict(test.X)
"""

from .config import ClusterConfig, TrainConfig
from .errors import (
    CommunicationError,
    ConfigError,
    DataError,
    NotFittedError,
    PSError,
    ReproError,
    SketchError,
    TrainingError,
)
from .boosting import GBDT, GBDTModel
from .datasets import CSRMatrix, Dataset, train_test_split
from .distributed import (
    BACKEND_NAMES,
    DistributedGBDT,
    DistributedResult,
    train_distributed,
)

__version__ = "1.0.0"

__all__ = [
    "TrainConfig",
    "ClusterConfig",
    "ReproError",
    "ConfigError",
    "DataError",
    "SketchError",
    "CommunicationError",
    "PSError",
    "TrainingError",
    "NotFittedError",
    "GBDT",
    "GBDTModel",
    "CSRMatrix",
    "Dataset",
    "train_test_split",
    "BACKEND_NAMES",
    "DistributedGBDT",
    "DistributedResult",
    "train_distributed",
    "__version__",
]
