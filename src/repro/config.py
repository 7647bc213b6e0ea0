"""Configuration objects for training and cluster simulation.

Two dataclasses are exposed:

* :class:`TrainConfig` — GBDT hyper-parameters (Section 7.1 of the paper
  lists the defaults used in the evaluation; we keep the same names).
* :class:`ClusterConfig` — shape of the simulated cluster: number of
  workers, number of parameter servers, and the alpha/beta/gamma network
  cost constants of the Section 3 cost model (a
  :class:`~repro.cluster.costmodel.CostParams`).

Both validate eagerly in ``__post_init__`` and raise :class:`ConfigError`
with a message naming the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from .cluster.costmodel import CostParams
from .errors import ConfigError

__all__ = ["TrainConfig", "ClusterConfig"]

#: Loss names accepted by :class:`TrainConfig`.
SUPPORTED_LOSSES = ("logistic", "squared")

#: Legal fixed-point widths of the histogram codec (0 = codec off), for
#: ``TrainConfig.compression_bits``.
COMPRESSION_BITS = (0, 2, 4, 8, 16)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of a GBDT training run.

    The defaults mirror the paper's protocol (Section 7.1): 20 trees of
    maximal depth 7, 20 split candidates, learning rate 0.01, feature
    sampling ratio 1.0, and 8-bit histogram compression.

    Attributes:
        n_trees: Number of boosting rounds ``T``.
        max_depth: Maximal tree depth ``d``; the root is at depth 1, so a
            tree holds at most ``2**d - 1`` nodes.
        n_split_candidates: Number of candidate split values ``K`` proposed
            per feature from the quantile sketch — the bucket budget of
            every histogram.  At least 2: one bucket has no cut to split
            at, and every candidate proposer refuses it (rejected here so
            that no fit dies in its sketch stage, after ``on_fit_start``).
        learning_rate: Shrinkage ``eta`` applied to leaf weights.
        feature_sample_ratio: Fraction ``sigma`` of features sampled per tree.
        reg_lambda: L2 regularization ``lambda`` on leaf weights.
        reg_gamma: Complexity penalty ``gamma`` per leaf.
        min_split_gain: Minimal objective gain required to split a node.
        min_child_weight: Minimal sum of hessians required on each side of
            a split (standard GBDT guard against degenerate leaves).
        loss: Name of the loss function, one of ``SUPPORTED_LOSSES``.
        compression_bits: Width ``r`` of the fixed-point histogram codec;
            0 disables compression (full 32-bit floats on the wire).
            DimBoost keeps one fixed-point scale per per-feature g/h
            histogram (Section 6.1).
        sketch_eps: Rank-error bound of the Greenwald-Khanna sketch.
        seed: Seed for all stochastic choices (feature sampling, stochastic
            rounding, synthetic splits of data).
        max_retries: Delivery retries per PS message and rollback attempts
            per round when a fault plan is active; a fault persisting past
            this budget raises ``ClusterFaultError``.
        checkpoint_every: Cadence (in completed boosting rounds) of the
            recovery checkpoints a faulted run can roll back to.
        agg_window: Local-aggregation window for distributed histogram
            pushes: workers buffer this many encoded node deltas and
            send them as one batched PS message (Horovod's
            ``LocalGradientAggregationHelper`` applied to histogram
            deltas; a window batches, it never adds deltas together).
            1 (default) pushes every node delta immediately; any value
            leaves the trained model bit-identical.
        staleness: Bounded-staleness bound ``S`` for layer barriers in
            distributed training.  No worker executes ahead of a peer;
            barrier seconds settle once per ``S + 1`` layers instead of
            per layer, and gradients see leaf scores that lag the newest
            ``S`` trees.  0 (default) keeps DimBoost's fully synchronous
            barrier and is bit-identical to it; ``S >= 1`` trades
            bounded score staleness for less barrier time.
    """

    n_trees: int = 20
    max_depth: int = 7
    n_split_candidates: int = 20
    learning_rate: float = 0.01
    feature_sample_ratio: float = 1.0
    reg_lambda: float = 1.0
    reg_gamma: float = 0.0
    min_split_gain: float = 0.0
    min_child_weight: float = 0.0
    loss: str = "logistic"
    compression_bits: int = 8
    sketch_eps: float = 0.01
    seed: int = 0
    max_retries: int = 3
    checkpoint_every: int = 1
    agg_window: int = 1
    staleness: int = 0

    def __post_init__(self) -> None:
        _require(self.n_trees >= 1, f"n_trees must be >= 1, got {self.n_trees}")
        _require(self.max_depth >= 1, f"max_depth must be >= 1, got {self.max_depth}")
        _require(
            self.n_split_candidates >= 2,
            f"n_split_candidates must be >= 2, got {self.n_split_candidates}",
        )
        _require(
            self.learning_rate > 0.0,
            f"learning_rate must be > 0, got {self.learning_rate}",
        )
        _require(
            0.0 < self.feature_sample_ratio <= 1.0,
            f"feature_sample_ratio must be in (0, 1], got {self.feature_sample_ratio}",
        )
        _require(self.reg_lambda >= 0.0, f"reg_lambda must be >= 0, got {self.reg_lambda}")
        _require(self.reg_gamma >= 0.0, f"reg_gamma must be >= 0, got {self.reg_gamma}")
        _require(
            self.min_split_gain >= 0.0,
            f"min_split_gain must be >= 0, got {self.min_split_gain}",
        )
        _require(
            self.min_child_weight >= 0.0,
            f"min_child_weight must be >= 0, got {self.min_child_weight}",
        )
        _require(
            self.loss in SUPPORTED_LOSSES,
            f"loss must be one of {SUPPORTED_LOSSES}, got {self.loss!r}",
        )
        _require(
            self.compression_bits in COMPRESSION_BITS,
            f"compression_bits must be one of {COMPRESSION_BITS}, "
            f"got {self.compression_bits}",
        )
        _require(
            0.0 < self.sketch_eps < 0.5,
            f"sketch_eps must be in (0, 0.5), got {self.sketch_eps}",
        )
        _require(
            self.max_retries >= 0,
            f"max_retries must be >= 0, got {self.max_retries}",
        )
        _require(
            self.checkpoint_every >= 1,
            f"checkpoint_every must be >= 1, got {self.checkpoint_every}",
        )
        _require(
            self.agg_window >= 1,
            f"agg_window must be >= 1, got {self.agg_window}",
        )
        _require(
            self.staleness >= 0,
            f"staleness must be >= 0, got {self.staleness}",
        )

    @property
    def max_nodes(self) -> int:
        """Maximal number of nodes in one tree, ``2**max_depth - 1``."""
        return (1 << self.max_depth) - 1

    def with_overrides(self, **changes: Any) -> "TrainConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated cluster.

    Attributes:
        n_workers: Number of workers ``w``; each holds one data shard.
        n_servers: Number of parameter servers ``p``.  The paper co-locates
            one worker and one server per machine, and the PS push
            accounting assumes it: the local slice skips the wire.
        network: Alpha/beta/gamma constants used by the simulated fabric.
        loading_bytes_per_second: Simulated HDFS ingest rate used to
            charge the data-loading phase (bytes/second).  Benches sweep
            this to model faster or slower storage tiers.
        worker_speeds: Optional relative speed per worker (1.0 = nominal;
            0.5 = half speed).  Models heterogeneous clusters: a worker's
            measured compute is divided by its speed before the barrier,
            so one straggler slows every synchronous phase — the
            sensitivity the authors' companion heterogeneity-aware PS
            work addresses.
        grid: Optional 2-D worker grid ``(rows, cols)`` for
            block-distributed training (row×feature blocks,
            arXiv:1904.10522).  ``rows * cols`` must equal ``n_workers``;
            worker ``r * cols + c`` holds row band ``r`` × feature stripe
            ``c``.  ``None`` (the default) is plain row sharding,
            equivalent to ``(n_workers, 1)``.
        speed_jitter: Amplitude of per-layer multiplicative speed noise
            (``0.0`` disables, must stay below 1.0): each tree layer
            every worker's effective speed is ``speed_of(wid) * f`` with
            ``f`` drawn uniformly from ``[1 - a, 1 + a]`` by a seeded
            per-layer stream.  Models rotating stragglers — the regime
            where bounded staleness beats pure windowing.  Pure clock
            accounting; trained model bits are unchanged.
    """

    n_workers: int = 4
    n_servers: int = 4
    network: CostParams = field(default_factory=CostParams)
    loading_bytes_per_second: float = 200e6
    worker_speeds: tuple[float, ...] | None = None
    grid: tuple[int, int] | None = None
    speed_jitter: float = 0.0

    def __post_init__(self) -> None:
        _require(self.n_workers >= 1, f"n_workers must be >= 1, got {self.n_workers}")
        _require(self.n_servers >= 1, f"n_servers must be >= 1, got {self.n_servers}")
        if self.grid is not None:
            grid = tuple(int(g) for g in self.grid)
            object.__setattr__(self, "grid", grid)
            _require(
                len(grid) == 2,
                f"grid must be (rows, cols), got {self.grid}",
            )
            rows, cols = grid
            _require(
                rows >= 1 and cols >= 1,
                f"grid dimensions must be >= 1, got {rows}x{cols}",
            )
            _require(
                rows * cols == self.n_workers,
                f"grid {rows}x{cols} needs {rows * cols} workers but "
                f"n_workers is {self.n_workers}",
            )
        _require(
            self.loading_bytes_per_second > 0.0,
            f"loading_bytes_per_second must be > 0, got "
            f"{self.loading_bytes_per_second}",
        )
        _require(
            0.0 <= self.speed_jitter < 1.0,
            f"speed_jitter must be in [0, 1), got {self.speed_jitter}",
        )
        if self.worker_speeds is not None:
            speeds = tuple(float(s) for s in self.worker_speeds)
            object.__setattr__(self, "worker_speeds", speeds)
            _require(
                len(speeds) == self.n_workers,
                f"worker_speeds must have n_workers={self.n_workers} entries, "
                f"got {len(speeds)}",
            )
            _require(
                all(s > 0 for s in speeds),
                f"worker_speeds must be positive, got {speeds}",
            )

    @property
    def grid_shape(self) -> tuple[int, int]:
        """The effective worker grid: ``grid`` or ``(n_workers, 1)``."""
        if self.grid is None:
            return (self.n_workers, 1)
        return self.grid

    def speed_of(self, worker_id: int) -> float:
        """Relative speed of one worker (1.0 when unspecified)."""
        if self.worker_speeds is None:
            return 1.0
        return self.worker_speeds[worker_id]

    def with_overrides(self, **changes: Any) -> "ClusterConfig":
        """Return a copy with ``changes`` applied (re-validated)."""
        return replace(self, **changes)
