"""The distributed training engine (Section 4.4's worker execution).

One engine drives all five systems through the per-layer core operation:

1. partition the data over workers (DATA PARTITIONING),
2. propose split candidates from quantile summaries (CREATE_SKETCH /
   PULL_SKETCH),
3. per tree: compute gradients (NEW_TREE), build per-worker node
   histograms (BUILD_HISTOGRAM), aggregate + find splits through the
   system's backend (FIND_SPLIT), split the trees via the node-to-
   instance indexes (SPLIT_TREE), and
4. emit the model (FINISH).

The per-tree cycle itself lives in the shared
:class:`~repro.runtime.loop.BoostingLoop`; this module contributes the
cluster-specific :class:`~repro.runtime.loop.TreeGrowthStrategy`, one
object per fit that runs every stage over the plan's R×C grid of
row×feature blocks (row sharding is its C = 1 column).  All
phase transitions, lockstep checks, and time attribution flow through
:class:`~repro.runtime.phases.PhaseRunner` stages, and observability
(per-phase seconds, per-round telemetry) is populated by callbacks on
the :mod:`~repro.runtime.hooks` spine.

Time model: the workers' *computation* is measured for real (wall-clock
of the actual numpy kernels, with a barrier charging the slowest worker
of each phase), *communication* is charged by the cost model with real
byte counts, and *loading* is the shard bytes over the cluster's
configured ingest rate (``ClusterConfig.loading_bytes_per_second``).
See DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..boosting.losses import get_loss
from ..boosting.metrics import error_rate
from ..boosting.model import GBDTModel
from ..chaos import ChaosRuntime, FaultPlan, RoundRecovery
from ..cluster.collectives import point_to_point_time
from ..cluster.simclock import SimClock
from ..config import ClusterConfig, TrainConfig
from ..datasets.dataset import Dataset
from ..datasets.partition import BlockPartitioner, GridSpec
from ..histogram.binned import BinnedShard
from ..histogram.histogram import GradientHistogram
from ..histogram.index import NodeInstanceIndex
from ..ps.group import ParameterServerGroup, TransferStats
from ..ps.master import Master, WorkerPhase
from ..ps.partitioner import VectorPartitioner
from ..ps.slab import SparseSlab, slab_from_flat
from ..runtime.build import HistogramBuildStrategy
from ..runtime.hooks import (
    CallbackList,
    FaultAccountant,
    HistoryCollector,
    TrainerCallback,
)
from ..runtime.loop import BoostingLoop, TreeGrowthStrategy
from ..runtime.phases import PhaseRunner, WorkerTimer
from ..sketch.candidates import (
    CandidateSet,
    candidate_frame_bytes,
    propose_candidates,
)
from ..sketch.quantile import sketch_columns, sketch_columns_weighted
from ..tree.split import SplitDecision, leaf_weight
from ..tree.tree import RegressionTree
from ..utils.timing import TimeBreakdown, wall_clock
from .backends import AggregationBackend
from .plan import RunPlan

#: Approximate wire weight of one quantile-sketch entry (value + rank
#: bounds), charged for the modelled CREATE_SKETCH push of ``"exact"`` mode.
SKETCH_ENTRY_BYTES = 16.0


@dataclass
class RoundRecord:
    """Per-tree telemetry of a distributed run.

    ``sim_elapsed`` is the cluster time (loading + computation barriers +
    simulated communication) when the tree finished — the x-axis of the
    paper's convergence plots.
    """

    tree_index: int
    sim_elapsed: float
    train_loss: float
    train_error: float


@dataclass
class DistributedResult:
    """Outcome of a distributed training run.

    Attributes:
        model: The trained ensemble (identical across workers).
        system: Backend name.
        breakdown: loading / computation / communication decomposition.
        rounds: Per-tree convergence telemetry.
        phases: Simulated seconds charged per worker phase
            (CREATE_SKETCH ... SPLIT_TREE) — the Table 3 style view,
            read off the cluster clock's per-label totals.
            Fault-recovery time appears under ``FAULT_RECOVERY``.
        faults: The :class:`~repro.runtime.hooks.FaultAccountant` report
            (``{"per_round": ..., "totals": ...}``) when a fault plan was
            active, else None.
    """

    model: GBDTModel
    system: str
    breakdown: TimeBreakdown
    rounds: list[RoundRecord] = field(default_factory=list)
    phases: dict[str, float] = field(default_factory=dict)
    faults: dict | None = None

    @property
    def sim_seconds(self) -> float:
        """Total simulated cluster time."""
        return self.breakdown.total


class _GridFit(TreeGrowthStrategy):
    """One fit, from loading to the model, over the plan's R×C grid.

    Section 4.4's worker loop as stages on one object: construction is
    *load* (DATA PARTITIONING), then :meth:`sketch` (CREATE_SKETCH,
    PULL_SKETCH), :meth:`bin` (backend, build strategy, pre-bucketized
    blocks), :meth:`boost` (NEW_TREE, BUILD_HISTOGRAM, FIND_SPLIT,
    SPLIT_TREE per tree, through the shared loop and this object's
    :class:`~repro.runtime.loop.TreeGrowthStrategy` methods) and
    :meth:`finish` (FINISH).  The :class:`RunPlan` says *what* runs; the
    clock, phase master, chaos runtime, hook stack and phase runner it
    runs *on* live here and die with the fit, which is what lets one
    trainer ``fit`` twice.

    Worker ``r * C + c`` holds row band ``r`` × feature stripe ``c``.
    Row sharding is the ``C == 1`` column: a full-range column slice
    returns its input, so each block *is* its row band and its stripe
    is every feature.  The C blocks of a grid row
    share the band's labels, gradients and node index (replicated
    compute, charged to every block).  Each block's node histogram goes
    to the backend dense (:meth:`AggregationBackend.aggregate_node`)
    when ``C == 1`` and as a sparse slab
    (:meth:`AggregationBackend.aggregate_node_slabs`) when ``C > 1``.
    """

    #: Set by :meth:`sketch`: per worker, the candidates of its stripe
    #: (rebased to 0), as the worker pulled them.
    stripes: list[CandidateSet]
    #: Set by :meth:`bin`.
    backend: AggregationBackend
    build_strategy: HistogramBuildStrategy
    shards: list[BinnedShard]

    def __init__(self, plan: RunPlan, callbacks: Sequence, train: Dataset) -> None:
        """The *load* stage: DATA PARTITIONING, loading, and every
        data-dependent check — all before any callback fires.

        Loading is charged as block bytes over the ingest rate, workers
        loading in parallel (max block).

        Raises:
            DataError: The dataset cannot be cut into the plan's grid.
            TrainingError: The backend cannot train on this shape.
        """
        cluster, config = plan.cluster, plan.config
        plan.backend_cls.check_data(cluster, train.n_features)
        partitioner = BlockPartitioner(train, GridSpec(*plan.grid))
        self.plan, self.cluster, self.config = plan, cluster, config
        self.cost, self.grid, self.striped = plan.cost, plan.grid, plan.striped
        self.train, self.n_features = train, train.n_features
        #: The grid's blocks in worker-id order, and the stripe boundaries.
        self.blocks = partitioner.blocks
        self.col_boundaries = partitioner.col_boundaries
        self.loading = (
            max(b.data.X.nbytes for b in self.blocks) / cluster.loading_bytes_per_second
        )
        # Per-grid-row training state, read off the column-0 blocks: the
        # C blocks of a row band share its label and weight views.
        bands = [b.data for b in self.blocks[:: self.grid[1]]]
        self.loss = get_loss(config.loss)
        self.base_score = self.loss.base_score(train.y, train.weights)
        self.labels = [np.asarray(d.y, dtype=np.float64) for d in bands]
        self.weights = [d.weights for d in bands]
        self.raws = [
            np.full(d.n_instances, self.base_score, dtype=np.float64) for d in bands
        ]
        self._root_totals = (0.0, 0.0)
        self._leaf_assignments: list[np.ndarray] = []
        #: Bounded-staleness score queue: ``(tree_index, per-grid-row
        #: deltas)`` waiting to be applied.  Round ``t`` applies entries
        #: through ``t - staleness``, so gradients may lag the newest
        #: ``staleness`` trees; S=0 applies immediately (synchronous).
        self._pending_updates: list[tuple[int, list[np.ndarray]]] = []

        self.clock = SimClock()
        self.master = Master()
        self.chaos: ChaosRuntime | None = None
        self.fault_accountant: FaultAccountant | None = None
        if plan.fault_plan is not None:
            self.chaos = ChaosRuntime(
                plan.fault_plan,
                clock=self.clock,
                cost=cluster.network,
                max_retries=config.max_retries,
            )
            self.fault_accountant = FaultAccountant(self.chaos)
        #: What every PS group of this fit routes its messages through.
        self.fabric = self.chaos.fabric if self.chaos is not None else None
        self.rounds: list[RoundRecord] = []
        self.hooks = CallbackList(
            [
                HistoryCollector(self.rounds),
                *([self.fault_accountant] if self.fault_accountant else []),
                *callbacks,
            ]
        )
        # Every stage barrier charges through the runner's lanes: they
        # price worker seconds by speed and per-layer jitter (accounting
        # only: model bits unchanged) and settle at every barrier when
        # S = 0, every S + 1 tree layers (and once more at fit end) else.
        self.runner = PhaseRunner(
            self.hooks, self.master, self.clock, cluster, config.staleness, config.seed
        )

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def sketch(self) -> CandidateSet:
        """CREATE_SKETCH + PULL_SKETCH: the candidates the backends
        resolve splits against.

        Every worker pulls only the cuts of its own stripe, kept in
        :attr:`stripes` for :meth:`bin`; the PULL_SKETCH stage charges
        the slowest worker's pull, :meth:`TransferStats.seconds`.
        The global set is the first grid row's stripes joined.
        """
        with self.runner.stage(WorkerPhase.CREATE_SKETCH) as stage:
            timer = stage.worker_timer()
            source = self._create_sketch(timer)
            stage.barrier(timer)
        with self.runner.stage(WorkerPhase.PULL_SKETCH) as stage:
            pulls = [self._pull_stripe(source, wid) for wid in range(len(self.blocks))]
            self.stripes = [stripe for stripe, _ in pulls]
            stage.charge_comm(max(stats.seconds(self.cost) for _, stats in pulls))
        return CandidateSet.concat(
            self.stripes[: self.grid[1]], self.config.n_split_candidates
        )

    def bin(self, candidates: CandidateSet) -> None:
        """The backend, the build strategy and the pre-bucketized blocks.

        Binning is part of loading/ETL and measured.  A block bins
        against its stripe's candidate slice, so stripe-local bucket ids
        equal the global ones feature for feature.  Loading is not a
        barrier: the ETL seconds are spread over the workers.
        """
        self.backend = self.plan.make_backend(candidates, fabric=self.fabric)
        self.build_strategy = self.plan.make_build_strategy()
        started = wall_clock()
        self.shards = [
            BinnedShard(b.data.X, candidates.feature_range(b.col_lo, b.col_hi))
            for b in self.blocks
        ]
        self.loading += (wall_clock() - started) / self.cluster.n_workers

    def boost(self) -> list:
        """The boosting rounds (rollback-replay recovery under a fault plan)."""
        recovery = None
        if self.chaos is not None:
            recovery = RoundRecovery(
                capture=self.snapshot,
                restore=self.restore,
                master=self.master,
                clock=self.clock,
                injector=self.chaos.injector,
                policy=self.chaos.policy,
                checkpoint_every=self.config.checkpoint_every,
                records=self.rounds,
            )
        return BoostingLoop(self, self.config, self.hooks, recovery=recovery).run()

    def finish(self, trees: list) -> DistributedResult:
        """Close the books and assemble the deliverable (FINISH)."""
        clock = self.clock
        # Final sync: whatever lane time the last (< S + 1) layers
        # accumulated is paid before the fit's books close.
        self.runner.lanes.sync(clock)
        with self.runner.stage(WorkerPhase.FINISH):
            # FINISH assembles the deliverable: the model object plus its
            # compiled flat form, so downstream evaluation (cmd_compare,
            # tests) scores on the batched inference path immediately.
            model = GBDTModel(
                trees=trees,
                base_score=self.base_score,
                loss_name=self.config.loss,
                n_features=self.n_features,
            )
            if trees:
                model.compiled()
        result = DistributedResult(
            model=model,
            system=self.plan.system,
            breakdown=TimeBreakdown(
                loading=self.loading,
                computation=clock.computation,
                communication=clock.communication,
            ),
            rounds=self.rounds,
            # Rollbacks and lane syncs charge the clock between stages, so
            # its per-label totals — not a sum of per-stage deltas — are
            # the books.
            phases=clock.by_phase(),
            faults=self.fault_accountant.report() if self.fault_accountant else None,
        )
        self.hooks.on_fit_end(result)
        return result

    def _create_sketch(
        self, timer: WorkerTimer
    ) -> CandidateSet | ParameterServerGroup:
        """CREATE_SKETCH, with the sketch *push* charged.

        The ``"exact"`` path computes global quantiles centrally and
        charges the modelled summary size for the widest block (the
        whole row when C == 1), returning the candidates; the other
        modes merge real per-worker summaries on the servers, recording
        each worker's sketching seconds on ``timer``, and return the PS
        group the stripes are pulled from.
        """
        config = self.config
        if self.plan.sketch_mode != "exact":
            return self._merge_worker_sketches(timer)
        entries_per_sketch = int(1.0 / (2.0 * config.sketch_eps)) + 2
        per_push_features = max(b.n_cols for b in self.blocks)
        sketch_bytes = per_push_features * entries_per_sketch * SKETCH_ENTRY_BYTES
        self.clock.advance_comm(
            self.plan.push_seconds(sketch_bytes), phase="CREATE_SKETCH"
        )
        return propose_candidates(self.train.X, config.n_split_candidates)

    def _merge_worker_sketches(self, timer: WorkerTimer) -> ParameterServerGroup:
        """The ``"distributed"`` / ``"weighted"`` CREATE_SKETCH path.

        Every block summarizes its stripe's columns into one ragged batch
        and pushes it through a real :class:`ParameterServerGroup` (and
        the fault fabric, when chaos is active) as one frame per
        partition; the servers merge arrivals in delivery order.  Blocks
        push in worker-id order, so every feature is merged down its
        grid rows in increasing row order whatever C is, and candidates
        are bit-identical across layouts.
        """
        config = self.config
        weighted = self.plan.sketch_mode == "weighted"
        eps_local = config.sketch_eps / 2.0
        group = ParameterServerGroup(self.cluster.n_servers, fabric=self.fabric)
        group.register("sketch", self.n_features)
        per_worker_bytes = [0] * len(self.blocks)
        for wid, block in enumerate(self.blocks):
            X, n_cols, row_weights = block.data.X, block.n_cols, block.data.weights
            with timer.measure(wid):
                if weighted:
                    weights_arr = (
                        np.asarray(row_weights, dtype=np.float64)
                        if row_weights is not None
                        else np.ones(X.shape[0], dtype=np.float64)
                    )
                    local = sketch_columns_weighted(
                        X.indptr, X.indices, X.data, n_cols, weights_arr, eps=eps_local
                    )
                else:
                    local = sketch_columns(
                        X.indptr, X.indices, X.data, n_cols, eps=eps_local
                    )
            stats = group.push_sketch(
                "sketch", local.shifted(block.col_lo), seq=("sketch", wid), worker=wid
            )
            per_worker_bytes[wid] = stats.bytes_up
        # Real wire accounting: what a worker's serialized sketches weigh.
        self.clock.advance_comm(
            self.plan.push_seconds(max(per_worker_bytes)), phase="CREATE_SKETCH"
        )
        return group

    def _pull_stripe(
        self, source: CandidateSet | ParameterServerGroup, wid: int
    ) -> tuple[CandidateSet, TransferStats]:
        """Worker ``wid``'s PULL_SKETCH: its stripe's cuts and the bill.

        From the servers, a real pull: every stripe pushed every one of
        its columns (empty summaries included), so each partition holds
        a summary of every feature it hosts.  In ``"exact"`` mode the
        candidates are already global, so the same pull — one candidate
        frame per partition of the sketch parameter overlapping the
        stripe — is billed from their cuts.
        """
        block = self.blocks[wid]
        lo, hi = block.col_lo, block.col_hi
        if isinstance(source, ParameterServerGroup):
            return source.pull_sketches(
                "sketch", lo, hi, self.config.n_split_candidates, worker=wid
            )
        stats = TransferStats()
        cut_ends = source.offsets.tolist()
        parts = VectorPartitioner(self.n_features, self.cluster.n_servers)
        for part in parts.partitions_in_range(lo, hi):
            a, b = max(lo, part.lo), min(hi, part.hi)
            cuts = source.cuts[cut_ends[a] : cut_ends[b]]
            stats.bytes_down += candidate_frame_bytes(b - a, cuts, source.max_bins)
            stats.messages += 1
        return source.feature_range(lo, hi), stats

    def _site(self, point: str, worker: int, timer: WorkerTimer) -> None:
        """Fire an execution-site fault point (no-op without chaos)."""
        if self.chaos is not None:
            self.chaos.site_fault(point, worker=worker, timer=timer)

    def _barrier_faults(self, timer: WorkerTimer) -> None:
        """Every worker arrives at a stage barrier, in id order."""
        if self.chaos is not None:
            for wid in range(self.cluster.n_workers):
                self._site("barrier", wid, timer)

    def snapshot(self) -> tuple:
        """Deep copy of the boosting state a crash rollback rewinds
        (``chaos.RoundRecovery``'s capture; :meth:`restore` is its inverse).

        Raw scores plus the bounded-staleness pending queue: a rollback
        must replay from identical score state AND identical queued
        deltas (buffered push windows are dropped at tree start and
        re-encoded by the replay, so they need no snapshot of their
        own).
        """
        return (
            [raw.copy() for raw in self.raws],
            [
                (idx, [delta.copy() for delta in deltas])
                for idx, deltas in self._pending_updates
            ],
        )

    def restore(self, state: tuple) -> None:
        """Inverse of :meth:`snapshot` (the snapshot stays reusable)."""
        saved_raws, saved_pending = state
        for raw, saved in zip(self.raws, saved_raws):
            raw[:] = saved
        self._pending_updates = [
            (idx, [delta.copy() for delta in deltas])
            for idx, deltas in saved_pending
        ]

    # ------------------------------------------------------------------
    # TreeGrowthStrategy
    # ------------------------------------------------------------------

    def begin_tree(self, tree_index: int) -> None:
        self.backend.begin_tree(tree_index)

    def compute_gradients(self, tree_index: int):
        _, grid_cols = self.grid
        with self.runner.stage(WorkerPhase.NEW_TREE, tree_index) as stage:
            timer = stage.worker_timer()
            grads, hesses = [], []
            for r, (y, raw, w) in enumerate(
                zip(self.labels, self.raws, self.weights)
            ):
                # Every block of the grid row recomputes the row band's
                # gradients from its replicated labels/scores, so each is
                # charged the measured seconds.
                with timer.measure(*range(r * grid_cols, (r + 1) * grid_cols)):
                    g, h = self.loss.gradients(y, raw, w)
                grads.append(g)
                hesses.append(h)
            self._barrier_faults(timer)
            stage.barrier(timer)
            # Root totals: each worker contributes two floats (tiny push).
            total_g = float(sum(g.sum() for g in grads))
            total_h = float(sum(h.sum() for h in hesses))
            stage.charge_comm(self.plan.push_seconds(16))
            self._root_totals = (total_g, total_h)
        return grads, hesses

    def grow(self, tree_index: int, gradients, feature_valid) -> RegressionTree:
        grads, hesses = gradients
        config = self.config
        tree = RegressionTree(config.max_depth)
        # One node-to-instance index per grid row: the C blocks of a row
        # band hold the same instances, so they share its index.
        indexes = [NodeInstanceIndex(len(raw), config.max_nodes) for raw in self.raws]
        node_totals: dict[int, tuple[float, float]] = {0: self._root_totals}

        active = [0]
        for depth in range(1, config.max_depth + 1):
            if not active:
                break
            if depth == config.max_depth:
                for node in active:
                    self._set_leaf(tree, node, node_totals[node])
                break
            # BUILD_HISTOGRAM for the whole layer.  The aggregation's wire
            # cost is charged by the backend under FIND_SPLIT (the paper
            # accounts aggregation as part of split finding).
            with self.runner.stage(WorkerPhase.BUILD_HISTOGRAM, tree_index) as stage:
                timer = stage.worker_timer()
                for node in active:
                    if self.striped:
                        slabs = self._build_node_slabs(
                            indexes, grads, hesses, node, timer
                        )
                        self.backend.aggregate_node_slabs(node, slabs, self.clock)
                        continue
                    flats, sums = [], []
                    for _, _, histogram, node_sums in self._build_blocks(
                        indexes, grads, hesses, node, timer
                    ):
                        flats.append(histogram.to_flat_feature_major())
                        sums.append(node_sums)
                    # Only the flats are handed over, and one node's 2KM
                    # floats per worker must not outlive their aggregation.
                    del histogram
                    self.backend.aggregate_node(node, flats, self.clock, sums)
                    del flats
                self._barrier_faults(timer)
                stage.barrier(timer)
            with self.runner.stage(WorkerPhase.FIND_SPLIT, tree_index) as stage:
                timer = stage.worker_timer()
                decisions = self.backend.find_splits(
                    active, feature_valid, self.clock, timer
                )
                self._barrier_faults(timer)
                stage.barrier(timer)
            active = self._split_layer(
                tree_index, tree, active, decisions, node_totals, indexes
            )
            # One tree layer finished: the lanes sync every S + 1 layers
            # and roll the speed jitter to the next layer's factors.
            self.runner.lanes.layer_boundary(self.clock)

        # Leaf assignment per grid row from its index (free predictions).
        self._leaf_assignments = []
        for index, raw in zip(indexes, self.raws):
            assignment = np.zeros(len(raw), dtype=np.int64)
            for node in range(tree.max_nodes):
                if tree.is_leaf(node) and index.has_node(node):
                    assignment[index.rows_of(node)] = node
            self._leaf_assignments.append(assignment)
        self.backend.end_tree(self.clock)
        return tree

    def update_scores(self, tree_index: int, grown: RegressionTree) -> None:
        deltas = [
            grown.weight[assignment] for assignment in self._leaf_assignments
        ]
        self._pending_updates.append((tree_index, deltas))
        self._apply_pending(tree_index - self.config.staleness)

    def _apply_pending(self, through: int) -> None:
        """Apply queued score deltas for trees ``<= through``, in order."""
        while self._pending_updates and self._pending_updates[0][0] <= through:
            _, deltas = self._pending_updates.pop(0)
            for r, delta in enumerate(deltas):
                self.raws[r] += delta

    def finalize(self, grown_units: list) -> list:
        # The last ``staleness`` trees' deltas are still queued; the
        # final model must score with every tree applied.
        self._apply_pending(self.config.n_trees)
        return grown_units

    def finish_round(self, tree_index: int, grown: RegressionTree) -> RoundRecord:
        """Global train loss/error (observability only; not charged)."""
        loss = self.loss
        y_all = np.concatenate(self.labels)
        raw_all = np.concatenate(self.raws)
        if loss.name == "logistic":
            err = error_rate(y_all, loss.transform(raw_all))
        else:
            err = loss.loss(y_all, raw_all)
        return RoundRecord(
            tree_index=tree_index,
            sim_elapsed=self.loading + self.clock.time,
            train_loss=loss.loss(y_all, raw_all),
            train_error=err,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _set_leaf(self, tree: RegressionTree, node: int, totals: tuple) -> None:
        g, h = totals
        weight = self.config.learning_rate * leaf_weight(g, h, self.config.reg_lambda)
        tree.set_leaf(node, weight, cover=float(h))

    def _split_layer(
        self,
        tree_index: int,
        tree: RegressionTree,
        active: list[int],
        decisions: dict[int, SplitDecision | None],
        node_totals: dict[int, tuple[float, float]],
        indexes: list[NodeInstanceIndex],
    ) -> list[int]:
        """SPLIT_TREE for the whole layer; returns the next layer's nodes."""
        grid_rows, grid_cols = self.grid
        with self.runner.stage(WorkerPhase.SPLIT_TREE, tree_index) as stage:
            timer = stage.worker_timer()
            next_active: list[int] = []
            broadcast_seconds = 0.0
            for node in active:
                decision = decisions.get(node)
                if decision is None or decision.gain <= self.config.min_split_gain:
                    self._set_leaf(tree, node, node_totals[node])
                    continue
                left, right = tree.set_split(
                    node,
                    decision.feature,
                    decision.value,
                    gain=decision.gain,
                    cover=decision.total_hess,
                )
                node_totals[left] = (decision.left_grad, decision.left_hess)
                node_totals[right] = (decision.right_grad, decision.right_hess)
                # Only the stripe owning the split feature can evaluate
                # the predicate; its blocks broadcast the go-left bitmaps
                # to their C - 1 row peers (grid rows move in parallel, so
                # the slowest row's bitmap is charged; nothing when C == 1).
                owner_col = (
                    int(np.searchsorted(self.col_boundaries, decision.feature, "right"))
                    - 1
                )
                local_feature = decision.feature - int(self.col_boundaries[owner_col])
                max_rows = 0
                for r in range(grid_rows):
                    wid = r * grid_cols + owner_col
                    rows = indexes[r].rows_of(node)
                    max_rows = max(max_rows, len(rows))
                    with timer.measure(wid):
                        goes_left = self.shards[wid].split_mask(
                            rows, local_feature, decision.bucket
                        )
                        indexes[r].split(node, goes_left)
                broadcast_seconds += (grid_cols - 1) * point_to_point_time(
                    (max_rows + 7) // 8, self.cost
                )
                next_active.extend((left, right))
            self._barrier_faults(timer)
            stage.barrier(timer)
            if broadcast_seconds:
                stage.charge_comm(broadcast_seconds)
        return next_active

    def _build_blocks(
        self,
        indexes: list[NodeInstanceIndex],
        grads: list[np.ndarray],
        hesses: list[np.ndarray],
        node: int,
        timer: WorkerTimer,
    ) -> Iterator[tuple[int, np.ndarray, GradientHistogram, tuple[float, float]]]:
        """One node's local histogram per block, in worker-id order.

        Yields ``(wid, rows, histogram, sums)``.  Each block fires its
        ``histogram_build`` site fault, has its build timed on ``timer``,
        and gets its grid row's node rows and exact node sums
        (:func:`_node_sums`), which the C blocks of a row band share.
        """
        grid_rows, grid_cols = self.grid
        for r in range(grid_rows):
            rows = indexes[r].rows_of(node)
            grad, hess = grads[r], hesses[r]
            sums = _node_sums(rows, grad, hess)
            for wid in range(r * grid_cols, (r + 1) * grid_cols):
                self._site("histogram_build", wid, timer)
                with timer.measure(wid):
                    histogram = self.build_strategy.build(
                        self.shards[wid], rows, grad, hess
                    )
                yield wid, rows, histogram, sums

    def _build_node_slabs(
        self,
        indexes: list[NodeInstanceIndex],
        grads: list[np.ndarray],
        hesses: list[np.ndarray],
        node: int,
        timer: WorkerTimer,
    ) -> list[tuple[int, SparseSlab]]:
        """One node's sparse slabs, per block in worker-id order.

        Each block ships only the stripe features that have nonzeros
        among the node's rows — counted, not sorted: one unweighted
        ``bincount`` over the node's nonzeros, O(nnz + M) like the build
        itself.  The gradient sums are the builder's own
        (:func:`_node_sums`), so the server-side reconstruction of absent
        features is bitwise identical to the dense push.
        """
        grid_cols = self.grid[1]
        slabs: list[tuple[int, SparseSlab]] = []
        for wid, rows, histogram, (sum_g, sum_h) in self._build_blocks(
            indexes, grads, hesses, node, timer
        ):
            shard, c = self.shards[wid], wid % grid_cols
            present = np.flatnonzero(
                np.bincount(
                    shard.features[shard.positions_of_rows(rows)],
                    minlength=shard.n_features,
                )
            )
            # Only the present rows are interleaved for the wire.
            carried = GradientHistogram(
                histogram.grad[present], histogram.hess[present]
            )
            slab = slab_from_flat(
                carried.to_flat_feature_major(),
                present,
                int(self.col_boundaries[c]),
                int(self.col_boundaries[c + 1]),
                shard.n_bins,
                sum_g,
                sum_h,
            )
            slabs.append((wid, slab))
        return slabs


def _node_sums(
    rows: np.ndarray, grad: np.ndarray, hess: np.ndarray
) -> tuple[float, float]:
    """A node's exact gradient sums ``(sum_g, sum_h)`` over ``rows``.

    The expression the sparse builder folds into every zero bucket
    (Algorithm 2 lines 2-3), so its floats are bit for bit the ones the
    histogram holds: both build paths ship them beside their deltas as a
    header — a slab's, and each piece of a lossy dense row.
    """
    return float(grad[rows].sum()), float(hess[rows].sum())


class DistributedGBDT:
    """Distributed GBDT trainer over the simulated cluster.

    Construction resolves a :class:`~repro.distributed.plan.RunPlan`
    from the arguments: every unsupported combination of them raises
    here, before ``fit`` touches any data.

    Args:
        system: One of ``BACKEND_NAMES`` ("dimboost", "xgboost", ...).
        cluster: Cluster shape and network constants.
        config: GBDT hyper-parameters.
        sketch_mode: How CREATE_SKETCH proposes candidates.  ``"exact"``
            (default) computes exact global quantiles in the driver and
            charges modelled sketch bytes — it keeps the cross-system
            tree-identity guarantee.  ``"distributed"`` builds per-worker
            GK sketches and pushes them through the real PS fabric, where
            the servers merge them per feature (the faithful CREATE_SKETCH
            / PULL_SKETCH path).  ``"weighted"`` does the same with
            hessian/instance-weighted summaries (Huang & Yi), so cut
            points equalize weight mass per bucket.
        callbacks: Trainer hooks observing every fit (see
            :mod:`repro.runtime.hooks`).
        fault_plan: Optional :class:`~repro.chaos.FaultPlan`; when given,
            the fit runs under fault injection with bounded-retry +
            rollback-replay recovery (``config.max_retries`` /
            ``config.checkpoint_every``) and the result carries the
            :attr:`DistributedResult.faults` report.  Message faults
            (drop/duplicate/server_down) need a PS backend
            ("tencentboost" / "dimboost") or a server-merged
            ``sketch_mode``; an event that could never fire (also: a
            worker, server or round the run does not have) is rejected.
        backend_kwargs: Extra arguments for the backend (e.g. DimBoost's
            ``two_phase=False`` ablation); validated against the
            backend's accepted options.
    """

    def __init__(
        self,
        system: str = "dimboost",
        cluster: ClusterConfig | None = None,
        config: TrainConfig | None = None,
        *,
        sketch_mode: str = "exact",
        callbacks: Sequence[TrainerCallback] = (),
        fault_plan: FaultPlan | None = None,
        **backend_kwargs,
    ) -> None:
        self.plan = RunPlan(
            system,
            cluster or ClusterConfig(),
            config or TrainConfig(),
            sketch_mode=sketch_mode,
            fault_plan=fault_plan,
            backend_kwargs=backend_kwargs,
        )
        self.system = system
        self.cluster, self.config = self.plan.cluster, self.plan.config
        self.callbacks = list(callbacks)

    def fit(self, train: Dataset) -> DistributedResult:
        """Train on ``train`` and return the model plus time accounting.

        One :class:`_GridFit` runs Section 4.4's worker loop as its
        stages: *load*, *sketch*, *bin*, *boost* and *finish*.  What the
        data itself rules out raises in *load*, before any callback fires.
        """
        fit = _GridFit(self.plan, self.callbacks, train)
        fit.hooks.on_fit_start(self.config.n_trees)
        fit.bin(fit.sketch())
        return fit.finish(fit.boost())


def train_distributed(
    system: str,
    train: Dataset,
    cluster: ClusterConfig | None = None,
    config: TrainConfig | None = None,
    **kwargs,
) -> DistributedResult:
    """One-call convenience: build the trainer and fit.

    Example::

        result = train_distributed("dimboost", dataset,
                                   ClusterConfig(n_workers=8, n_servers=8))
        print(result.sim_seconds, result.breakdown.as_dict())
    """
    trainer = DistributedGBDT(system, cluster, config, **kwargs)
    return trainer.fit(train)
