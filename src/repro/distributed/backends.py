"""Aggregation backends: how each system merges histograms and finds splits.

A backend receives, node by node, the per-worker local gradient
histograms in feature-major flat form, performs its system's aggregation
(real data movement through :mod:`repro.cluster.collectives` or the
parameter server), and later answers split queries for a whole layer —
charging the simulated clock for every byte moved, and recording every
second of (measured) split-scan compute on the FIND_SPLIT stage's
worker timer, attributed to the worker that would have performed it.

With compression off, every backend produces bit-equal merged histograms
(up to float summation order), so all five systems grow identical trees;
the backends differ in *time*, which is the paper's claim.
"""

from __future__ import annotations

import inspect
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from ..cluster.collectives import (
    allreduce_binomial,
    point_to_point_time,
    reduce_scatter_halving,
    reduce_to_coordinator,
)
from ..cluster.costmodel import general_ps_push_time, log2_steps
from ..cluster.simclock import SimClock
from ..config import ClusterConfig, TrainConfig
from ..errors import TrainingError
from ..ps.group import ParameterServerGroup, TransferStats
from ..ps.localagg import LocalAggregator
from ..ps.partitioner import Partition
from ..ps.slab import CompressedSlab, SlabLayout, SparseSlab, compress_slab
from ..runtime.phases import WorkerTimer
from ..sketch.candidates import CandidateSet
from ..tree.split import SplitDecision, best_split_in_range, combine_shard_decisions
from ..utils.rng import spawn_rng
from ..utils.timing import wall_clock
from .scheduler import RoundRobinScheduler, SingleAgentScheduler

#: Registry of backend names in the paper's comparison order.
BACKEND_NAMES = ("mllib", "xgboost", "lightgbm", "tencentboost", "dimboost")

#: Bytes of one split decision on the wire (Section 6.3: one int + floats).
DECISION_BYTES = 28

#: The PS parameter every histogram delta lands in.
GRAD_HIST = "grad_hist"


class AggregationBackend(ABC):
    """Base class wiring the shared layout knowledge.

    Subclasses implement :meth:`aggregate_node` (merge one node's local
    histograms, charging communication) and :meth:`find_splits` (decide
    the splits of a whole layer, charging split-finding communication and
    recording split-finding compute).
    """

    name: str = "abstract"
    #: Preferred histogram build mode, resolved to a
    #: :class:`~repro.runtime.build.HistogramBuildStrategy` by the engine
    #: (Section 5.1: DimBoost is the first system to exploit sparsity
    #: there, so it alone defaults to "sparse").
    build_mode: str = "dense"
    #: Whether aggregation runs on a parameter-server group.  Read only
    #: by the :class:`~repro.distributed.plan.RunPlan` gate, for the
    #: three things servers make possible and collectives cannot do:
    #: sparse slab pushes (feature-striped grids — the server
    #: reconstructs absent features from the slab sums), windowed pushes
    #: (``agg_window > 1`` — the server-side seq token deduplicates a
    #: window), and routing every message through a chaos fabric.
    parameter_server: bool = False
    #: Fixed-point width of pushed histograms (0 = no lossy codec).  Only
    #: DimBoost sets it; declared here so shared code reads it plainly.
    compression_bits: int = 0

    def __init__(
        self,
        cluster: ClusterConfig,
        config: TrainConfig,
        candidates: CandidateSet,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.candidates = candidates
        self.cost = cluster.network
        self.n_bins = candidates.max_bins
        self.n_features = candidates.n_features
        self.flat_len = 2 * self.n_features * self.n_bins
        self._tree_index = -1

    @classmethod
    def check_data(cls, cluster: ClusterConfig, n_features: int) -> None:
        """Reject a dataset shape the backend cannot train on (default:
        any shape is fine).  The engine's load stage calls this before
        any phase starts."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def begin_tree(self, tree_index: int) -> None:
        """Reset per-tree state."""
        self._tree_index = tree_index

    @abstractmethod
    def aggregate_node(
        self,
        node: int,
        local_flats: list[np.ndarray],
        clock: SimClock,
        sums: list[tuple[float, float]] | None = None,
    ) -> None:
        """Merge one node's per-worker flat histograms.

        ``sums`` holds each worker's exact node gradient sums ``(sum_g,
        sum_h)`` in worker order — the floats the builder folded into
        the zero buckets; a lossy parameter-server push ships them as
        its header.  The flats are handed over: a backend may overwrite
        them.
        """

    def aggregate_node_slabs(
        self,
        node: int,
        slabs: list[tuple[int, SparseSlab]],
        clock: SimClock,
    ) -> None:
        """Merge one node's per-block sparse slabs (2-D sharding path).

        ``slabs`` holds ``(block_id, slab)`` pairs in block (worker-id)
        order.  Backends that cannot reconstruct absent features —
        everything but the parameter servers — reject the call.
        """
        raise TrainingError(
            f"backend {self.name!r} does not support sparse slab "
            f"aggregation; feature-striped grids (cols > 1) need a "
            f"parameter-server backend (tencentboost, dimboost)"
        )

    @abstractmethod
    def find_splits(
        self,
        nodes: list[int],
        feature_valid: np.ndarray | None,
        clock: SimClock,
        timer: WorkerTimer,
    ) -> dict[int, SplitDecision | None]:
        """Best split per node for an aggregated layer.

        Communication is charged on ``clock``; each worker's scan seconds
        are recorded on ``timer``, the FIND_SPLIT stage's, whose barrier
        charges them.
        """

    def end_tree(self, clock: SimClock) -> None:
        """Release per-tree storage (default: nothing)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _scan_range(
        self, values: np.ndarray, lo: int, hi: int, feature_valid: np.ndarray | None
    ) -> SplitDecision | None:
        """Split scan (Algorithm 1 lines 10-17) over the flat histogram of
        features ``[lo, hi)``, under this run's regularization."""
        return best_split_in_range(
            values,
            lo,
            hi,
            self.candidates,
            self.config.reg_lambda,
            self.config.reg_gamma,
            self.config.min_child_weight,
            feature_valid,
        )

    def _scan_flat(
        self, flat: np.ndarray, feature_valid: np.ndarray | None
    ) -> SplitDecision | None:
        """Whole-histogram split scan."""
        return self._scan_range(flat, 0, self.n_features, feature_valid)

    def _charge_decision_broadcast(self, clock: SimClock, n_nodes: int) -> None:
        """Ship the (tiny) split decisions to all workers."""
        w = self.cluster.n_workers
        clock.advance_comm(
            (w - 1) * point_to_point_time(n_nodes * DECISION_BYTES, self.cost)
            if w > 1
            else 0.0,
            phase="FIND_SPLIT",
        )


class _RootScanBackend(AggregationBackend):
    """What MLlib and XGBoost share: a collective leaves every node's
    merged histogram on one worker, which scans them all serially.
    Subclasses name the collective and, where it differs, the broadcast."""

    def __init__(self, cluster, config, candidates) -> None:
        super().__init__(cluster, config, candidates)
        self._merged: dict[int, np.ndarray] = {}

    def aggregate_node(self, node, local_flats, clock, sums=None) -> None:
        merged, stats = self._reduce(local_flats)
        clock.advance_comm(stats.sim_seconds, phase="FIND_SPLIT")
        self._merged[node] = merged

    def find_splits(self, nodes, feature_valid, clock, timer):
        decisions: dict[int, SplitDecision | None] = {}
        # The root (worker 0) scans every node serially: no parallelism.
        with timer.measure(0):
            for node in nodes:
                decisions[node] = self._scan_flat(
                    self._merged.pop(node), feature_valid
                )
        self._charge_decision_broadcast(clock, len(nodes))
        return decisions


class MLlibBackend(_RootScanBackend):
    """All-to-one reduce; the coordinator finds every split (Section 2.3).

    "statistics are collected to a particular worker node via a
    reduceByKey operator" and "statistics aggregation is the bottleneck".
    """

    name = "mllib"

    def _reduce(self, local_flats):
        return reduce_to_coordinator(local_flats, self.cost)


class XGBoostBackend(_RootScanBackend):
    """Binomial-tree AllReduce; the root worker finds splits (Section 2.3)."""

    name = "xgboost"

    def _reduce(self, local_flats):
        return allreduce_binomial(local_flats, self.cost)

    def _charge_decision_broadcast(self, clock, n_nodes) -> None:
        # Up-bottom broadcast of the model update along the tree.
        clock.advance_comm(
            log2_steps(self.cluster.n_workers)
            * point_to_point_time(n_nodes * DECISION_BYTES, self.cost),
            phase="FIND_SPLIT",
        )


class LightGBMBackend(AggregationBackend):
    """Recursive-halving ReduceScatter; distributed split finding.

    Each worker ends the aggregation owning a fully merged feature range
    and finds the best split within it; the per-range optima (tiny) are
    allgathered and the global maximum chosen — LightGBM's data-parallel
    voting-free protocol.
    """

    name = "lightgbm"
    build_mode = "dense"

    def __init__(self, cluster, config, candidates) -> None:
        super().__init__(cluster, config, candidates)
        self.check_data(cluster, self.n_features)
        self._owned: dict[int, tuple[list[np.ndarray | None], dict[int, tuple[int, int]]]] = {}

    @classmethod
    def check_data(cls, cluster, n_features) -> None:
        if n_features < cluster.n_workers:
            raise TrainingError(
                "LightGBM backend needs at least one feature per worker "
                f"(features={n_features}, workers={cluster.n_workers})"
            )

    def aggregate_node(self, node, local_flats, clock, sums=None) -> None:
        owned, stats = reduce_scatter_halving(
            local_flats, self.cost, align=2 * self.n_bins
        )
        clock.advance_comm(stats.sim_seconds, phase="FIND_SPLIT")
        self._owned[node] = (owned, stats.segments)

    def find_splits(self, nodes, feature_valid, clock, timer):
        decisions: dict[int, SplitDecision | None] = {}
        block = 2 * self.n_bins
        for node in nodes:
            owned, segments = self._owned.pop(node)
            shard_decisions: list[SplitDecision | None] = []
            # Workers scan their ranges in parallel.
            for worker_id, (lo, hi) in segments.items():
                with timer.measure(worker_id):
                    shard_decisions.append(
                        self._scan_range(
                            owned[worker_id], lo // block, hi // block, feature_valid
                        )
                    )
            decisions[node] = combine_shard_decisions(shard_decisions)
        # Allgather of the per-range optima: log w exchange steps of tiny
        # messages, as in the halving topology run backwards.
        clock.advance_comm(
            log2_steps(self.cluster.n_workers)
            * point_to_point_time(len(nodes) * DECISION_BYTES, self.cost),
            phase="FIND_SPLIT",
        )
        return decisions


class _PSBackend(AggregationBackend):
    """What the two parameter-server backends share: a server group
    holding the ``grad_hist`` parameter, and the delivery of each node's
    deltas to it — at once, or a window at a time.

    At ``agg_window == 1`` a node's deltas go out immediately: one
    ``push_row`` / ``push_slab`` per worker under the ``(tree, worker)``
    token, one batched scatter charged per node.  At ``agg_window > 1``
    each worker buffers them in a
    :class:`~repro.ps.localagg.LocalAggregator` — Horovod's
    ``LocalGradientAggregationHelper`` applied to histogram deltas: a
    counter, a buffer, and the communication call they wrap — and one
    windowed push per worker (``push_window_rows`` for rows,
    ``push_window`` for slabs) carries them under the token ``(tree,
    window_index, worker)``.  All workers fill in lockstep (every node
    contributes one delta per worker), so a full window flushes the
    whole cluster together and is charged as one batched PS scatter —
    the latency term shrinks by the window size while the volume terms
    keep the payload mass.

    Every delta is encoded once, when it is produced, by the call its
    W=1 push makes: a dense row by
    :meth:`~repro.ps.group.ParameterServerGroup.encode_row`, a slab by
    :meth:`_wire_slab`; a window only batches delivery.  Every lossy
    encode draws its rounding stream from :meth:`_rng`, keyed ``(tree,
    node, worker)`` — the key a rollback-replay re-derives — so retries,
    duplicates and replays move identical payloads however delivery is
    scheduled.

    ``fabric``: optional ``chaos.FaultyFabric`` the server group routes
    every message through; pushes then carry a sequence token so retried
    or duplicated deliveries never double-count a histogram.
    """

    parameter_server = True

    def __init__(self, cluster, config, candidates, fabric=None) -> None:
        super().__init__(cluster, config, candidates)
        self.group = ParameterServerGroup(cluster.n_servers, fabric=fabric)
        self.layout = SlabLayout(self.n_features, self.n_bins, candidates.zero_bins)
        self.group.register(
            GRAD_HIST, self.flat_len, align=2 * self.n_bins, layout=self.layout
        )
        window = config.agg_window
        self._aggregators = [
            LocalAggregator(window)
            for _ in range(cluster.n_workers if window > 1 else 0)
        ]
        #: How a buffered window travels: the group call of the entry
        #: point that buffered it.
        self._push_window = self.group.push_window

    def begin_tree(self, tree_index: int) -> None:
        """Drop buffered deltas and rewind the window counters, so a chaos
        rollback-replay regenerates the identical token sequence."""
        super().begin_tree(tree_index)
        for aggregator in self._aggregators:
            aggregator.reset()

    def _rng(self, node: int, worker: int) -> np.random.Generator | None:
        """The codec's stochastic-rounding stream for one delta."""
        if not self.compression_bits:
            return None
        return spawn_rng(self.config.seed, "lowprec", self._tree_index, node, worker)

    def _wire_slab(
        self, node: int, worker: int, slab: SparseSlab
    ) -> SparseSlab | CompressedSlab:
        """``slab`` as it travels: value payload quantized once, before
        the partition fan-out, when the codec is on."""
        if not self.compression_bits:
            return slab
        return compress_slab(
            slab, self.layout, self.compression_bits, self._rng(node, worker)
        )

    def _charge(self, pushed: list[int], clock: SimClock) -> None:
        """One batched PS scatter at the *actual* average wire bytes, so
        compression and sparsity directly shrink the transfer term."""
        clock.advance_comm(
            general_ps_push_time(
                len(pushed),
                self.cluster.n_servers,
                sum(pushed) / len(pushed),
                self.cost,
            ),
            phase="FIND_SPLIT",
        )

    def _buffer(
        self, node: int, deltas: list[tuple[int, Any]], clock: SimClock
    ) -> None:
        """Buffer one node's encoded ``(worker, delta)`` pairs; flush
        when the lockstep windows are full."""
        for worker, delta in deltas:
            self._aggregators[worker].add(node, delta)
        if self._aggregators[0].full:
            self.flush(clock)

    def aggregate_node(self, node, local_flats, clock, sums=None) -> None:
        """One node's dense per-worker deltas, in worker-id order; a lossy
        delta ships its worker's ``sums`` as its header."""
        self._push_window = self.group.push_window_rows
        if sums is not None and len(sums) != len(local_flats):
            raise TrainingError(
                f"node {node}: {len(local_flats)} deltas but {len(sums)} node sums"
            )
        deltas = list(zip(local_flats, sums or [None] * len(local_flats)))
        if self.config.agg_window == 1:
            pushed = [
                self.group.push_row(
                    GRAD_HIST,
                    node,
                    flat,
                    compression_bits=self.compression_bits,
                    rng=self._rng(node, worker),
                    sums=worker_sums,
                    seq=(self._tree_index, worker),
                    worker=worker,
                ).bytes_up
                for worker, (flat, worker_sums) in enumerate(deltas)
            ]
            self._charge(pushed, clock)
            return
        self._buffer(
            node,
            [
                (
                    worker,
                    self.group.encode_row(
                        GRAD_HIST,
                        flat,
                        self.compression_bits,
                        self._rng(node, worker),
                        sums=worker_sums,
                    ),
                )
                for worker, (flat, worker_sums) in enumerate(deltas)
            ],
            clock,
        )

    def aggregate_node_slabs(self, node, slabs, clock) -> None:
        """One node's per-block sparse slabs, in block (worker-id) order —
        the order that makes the servers accumulate each feature's
        histogram with the same addends as the dense row-sharded pushes."""
        if not slabs:
            raise TrainingError(f"node {node}: no slabs to aggregate")
        self._push_window = self.group.push_window
        wire = [
            (block_id, self._wire_slab(node, block_id, slab))
            for block_id, slab in slabs
        ]
        if self.config.agg_window == 1:
            self._charge(
                [
                    self.group.push_slab(
                        GRAD_HIST,
                        node,
                        slab,
                        seq=(self._tree_index, block_id),
                        worker=block_id,
                    ).bytes_up
                    for block_id, slab in wire
                ],
                clock,
            )
            return
        self._buffer(node, wire, clock)

    def flush(self, clock: SimClock) -> None:
        """Push every worker's buffered window and charge one scatter.

        Called when the lockstep windows fill, and by ``find_splits``
        with partial buffers — a layer boundary drains stragglers so a
        window never spans layers (split finding needs every delta).
        Nothing buffered (always so at ``agg_window == 1``) is a no-op.
        """
        pushed: list[int] = []
        for worker, aggregator in enumerate(self._aggregators):
            if aggregator.pending == 0:
                continue
            window_index, entries = aggregator.drain()
            stats = self._push_window(
                GRAD_HIST,
                entries,
                seq=(self._tree_index, window_index, worker),
                worker=worker,
            )
            pushed.append(stats.bytes_up)
        if pushed:
            self._charge(pushed, clock)

    def _pull_and_scan(
        self,
        node: int,
        worker: int,
        feature_valid: np.ndarray | None,
        timer: WorkerTimer,
    ) -> tuple[SplitDecision | None, TransferStats]:
        """Pull ``node``'s whole merged histogram to ``worker``, scan it on
        that worker's lane and free the row; the caller charges the pull
        from the returned stats."""
        flat, stats = self.group.pull_row(GRAD_HIST, node, worker=worker)
        with timer.measure(worker):
            decision = self._scan_flat(flat, feature_valid)
        self.group.clear_row(GRAD_HIST, node)
        return decision, stats


class TencentBoostBackend(_PSBackend):
    """Parameter server without DimBoost's FIND_SPLIT optimizations.

    TencentBoost "simply applies the parameter server architecture to
    GBDT" (Section 8): histograms are pushed to servers (efficient
    aggregation), but one leader worker pulls every node's *full* merged
    histogram back and finds all splits itself — no scheduler, no
    two-phase split, no compression.
    """

    name = "tencentboost"
    build_mode = "dense"

    def find_splits(self, nodes, feature_valid, clock, timer):
        # Drain partial windows: a layer boundary must see every delta.
        self.flush(clock)
        decisions: dict[int, SplitDecision | None] = {}
        leader = 0  # the paper's "leader worker" pulls and scans everything
        for node in nodes:
            decisions[node], stats = self._pull_and_scan(
                node, leader, feature_valid, timer
            )
            # Full-histogram pull serialized at the leader's NIC.
            clock.advance_comm(stats.seconds(self.cost), phase="FIND_SPLIT")
        self._charge_decision_broadcast(clock, len(nodes))
        return decisions


class DimBoostBackend(_PSBackend):
    """The full DimBoost FIND_SPLIT pipeline (Sections 6.1-6.3).

    Compression keeps Algorithm 2's O(N) zero-bucket mass out of the
    codec: a lossy push ships each worker's exact node sums as a header
    and quantizes only the residual histogram, and the servers add the
    sums back on decode, so they store the folded histogram and split
    finding scans it as pulled
    (:meth:`~repro.ps.group.ParameterServerGroup.encode_row`).  With
    compression off the folded histogram is pushed as is, which keeps
    bit-identical parity with the other backends.

    Args:
        use_scheduler: Round-robin node assignment (True) or the naive
            single-agent strategy (False) — Table 3's scheduler ablation.
        two_phase: Server-side split UDF + tiny replies (True) or full
            histogram pulls by the responsible worker (False).

    The fixed-point width of pushed histograms is
    ``config.compression_bits`` (0 disables compression).
    """

    name = "dimboost"
    build_mode = "sparse"  # sparsity-aware histogram construction (C3)

    def __init__(
        self,
        cluster,
        config,
        candidates,
        use_scheduler: bool = True,
        two_phase: bool = True,
        fabric=None,
    ) -> None:
        super().__init__(cluster, config, candidates, fabric=fabric)
        self.compression_bits = config.compression_bits
        self.use_scheduler = use_scheduler
        self.two_phase = two_phase
        if not use_scheduler:
            self.scheduler = SingleAgentScheduler(cluster.n_workers)
        else:
            self.scheduler = RoundRobinScheduler(cluster.n_workers)

    def find_splits(self, nodes, feature_valid, clock, timer):
        # Drain partial windows: a layer boundary must see every delta,
        # so windows never span layers.
        self.flush(clock)
        assignment = self.scheduler.assign(nodes)
        decisions: dict[int, SplitDecision | None] = {}
        p = self.cluster.n_servers
        block = 2 * self.n_bins

        def udf(values: np.ndarray, partition: Partition) -> SplitDecision | None:
            """Server-side split scan over one stored feature range."""
            return self._scan_range(
                values, partition.lo // block, partition.hi // block, feature_valid
            )

        for worker_id, its_nodes in assignment.items():
            comm_seconds = 0.0
            for node in its_nodes:
                if self.two_phase:
                    started = wall_clock()
                    results, stats = self.group.pull_row_udf(
                        GRAD_HIST,
                        node,
                        udf,
                        result_bytes=DECISION_BYTES,
                        worker=worker_id,
                    )
                    # The p servers scan their ranges concurrently; the
                    # in-process wall time covers all of them, so one
                    # server's share is wall / p.
                    timer.add(worker_id, (wall_clock() - started) / p)
                    decisions[node] = combine_shard_decisions(
                        [decision for _part, decision in results]
                    )
                    self.group.clear_row(GRAD_HIST, node)
                else:
                    decisions[node], stats = self._pull_and_scan(
                        node, worker_id, feature_valid, timer
                    )
                comm_seconds += stats.seconds(self.cost)
            # Each worker's pulls serialize at its own NIC but run in
            # parallel across workers — fold into its compute lane so the
            # stage barrier models the round-robin balancing.
            timer.add(worker_id, comm_seconds)
        # Responsible workers push results to the PS; everyone pulls them.
        w = self.cluster.n_workers
        clock.advance_comm(
            point_to_point_time(len(nodes) * DECISION_BYTES, self.cost)
            + (w - 1) * point_to_point_time(len(nodes) * DECISION_BYTES, self.cost)
            if w > 1
            else 0.0,
            phase="FIND_SPLIT",
        )
        return decisions


_BACKENDS = {
    MLlibBackend.name: MLlibBackend,
    XGBoostBackend.name: XGBoostBackend,
    LightGBMBackend.name: LightGBMBackend,
    TencentBoostBackend.name: TencentBoostBackend,
    DimBoostBackend.name: DimBoostBackend,
}


def backend_class(system: str) -> type[AggregationBackend]:
    """The backend class registered under ``system``."""
    try:
        return _BACKENDS[system]
    except KeyError as exc:
        raise TrainingError(
            f"unknown system {system!r}; expected one of {BACKEND_NAMES}"
        ) from exc


def backend_options(system: str) -> tuple[str, ...]:
    """Keyword options a backend accepts beyond (cluster, config, candidates)
    and the chaos ``fabric``, which only ``RunPlan.make_backend`` wires in."""
    parameters = inspect.signature(backend_class(system).__init__).parameters
    return tuple(
        name
        for name in parameters
        if name not in ("self", "cluster", "config", "candidates", "fabric")
    )
