"""Online model serving: async micro-batching over the compiled ensemble.

Training ends with a compiled :class:`~repro.inference.flat.FlatEnsemble`
(the engine's FINISH artifact); this package serves it to request
traffic.  The pieces, hot path first:

* :mod:`runtime` — the asyncio admission queue + dynamic micro-batcher:
  single-row requests coalesce into the row blocks the flat kernel
  wants by back-pressure alone (a batch is whatever queued up while the
  previous one scored, up to ``max_batch_rows``; no timer), with
  explicit load shedding.
* :mod:`store` — versioned :class:`ModelStore` with atomic hot-swap
  (pointer flip; in-flight batches finish on the old version).
* :mod:`server` — NDJSON-over-TCP front end (the ``repro serve`` verb).
* :mod:`metrics` — queue depth, batch-size histogram, stage latencies.

Instants come from :mod:`repro.utils.timing`, the one audited clock seam.

See ``docs/serving.md`` for architecture and bench results, and
``benchmarks/bench_ext_serving.py`` for the traffic-replay harness.
"""

from .metrics import LatencyStat, ServingMetrics
from .runtime import Prediction, ServingConfig, ServingRuntime
from .server import ServingServer
from .store import ModelStore, ModelVersion

__all__ = [
    "LatencyStat",
    "ModelStore",
    "ModelVersion",
    "Prediction",
    "ServingConfig",
    "ServingMetrics",
    "ServingRuntime",
    "ServingServer",
]
