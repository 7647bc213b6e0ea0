"""Parameter-server architecture (Section 4).

"DimBoost is also the first GBDT system built with the parameter server
architecture."  Three roles (Section 4.2): servers jointly store model
shards and expose user-defined ``push``/``pull``; workers hold data
shards and exchange parameters; the master supervises phases and
synchronization barriers.

This package implements the server side:

* :class:`VectorPartitioner` — the hybrid range-hash partition of
  Section 4.3 (ranges by feature index, hashed onto servers).
* :class:`PSServer` — one server shard with lazily allocated parameter
  rows, additive push, plain pull, and server-side pull UDFs (the hook
  the two-phase split finding of Section 6.3 plugs into).
* :class:`ParameterServerGroup` — the client-facing ensemble: routes
  pushes/pulls to shards, handles low-precision decode on the server, and
  accounts wire bytes for the simulated clock.
* :class:`Master` — the phase machine the worker stages follow
  (Section 4.2).
* :class:`SparseSlab` / :class:`SlabLayout` — the sparse histogram wire
  format of block-distributed 2-D sharding (arXiv:1904.10522): only
  non-empty feature histograms travel, servers reconstruct the rest from
  the block's gradient sums.
"""

from .localagg import LocalAggregator
from .partitioner import Partition, VectorPartitioner
from .server import PSServer, PullUDF
from .group import ParameterServerGroup, TransferStats
from .master import Master, WorkerPhase
from .slab import (
    CompressedSlab,
    SlabLayout,
    SparseSlab,
    compress_slab,
    slab_from_flat,
)

__all__ = [
    "LocalAggregator",
    "Partition",
    "VectorPartitioner",
    "PSServer",
    "PullUDF",
    "ParameterServerGroup",
    "TransferStats",
    "Master",
    "WorkerPhase",
    "SlabLayout",
    "SparseSlab",
    "CompressedSlab",
    "compress_slab",
    "slab_from_flat",
]
