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
cluster-specific :class:`~repro.runtime.loop.TreeGrowthStrategy`.  All
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
from typing import Sequence

import numpy as np

from ..boosting.losses import get_loss
from ..boosting.metrics import error_rate
from ..boosting.model import GBDTModel
from ..chaos import (
    FAULT_RECOVERY_PHASE,
    ChaosRuntime,
    FaultPlan,
    RoundRecovery,
)
from ..cluster.collectives import point_to_point_time
from ..cluster.costmodel import CostParams
from ..cluster.simclock import LayerSpeedJitter, SimClock
from ..config import ClusterConfig, TrainConfig
from ..datasets.dataset import Dataset
from ..datasets.partition import BlockPartitioner, DataBlock, GridSpec
from ..errors import ConfigError
from ..histogram.binned import BinnedShard
from ..histogram.buffers import HistogramBufferPool
from ..histogram.index import NodeInstanceIndex
from ..ps.group import ParameterServerGroup
from ..ps.master import Master, WorkerPhase
from ..ps.slab import SparseSlab, slab_from_flat
from ..runtime.build import HistogramBuildStrategy, resolve_build_strategy
from ..runtime.hooks import (
    CallbackList,
    FaultAccountant,
    HistoryCollector,
    PhaseAccountant,
    TrainerCallback,
)
from ..runtime.loop import BoostingLoop, TreeGrowthStrategy
from ..runtime.phases import PhaseRunner, StalenessLanes, scale_by_speeds
from ..sketch.candidates import (
    CandidateSet,
    propose_candidates,
    propose_candidates_from_sketches,
)
from ..sketch.quantile import (
    AnySketch,
    GKSketch,
    WeightedGKSketch,
    sketch_columns,
    sketch_columns_weighted,
)
from ..tree.split import leaf_weight
from ..tree.tree import RegressionTree
from ..utils.timing import Stopwatch, TimeBreakdown
from .backends import (
    AggregationBackend,
    backend_options,
    check_backend,
    general_ps_push_time,
    make_backend,
)


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
            (CREATE_SKETCH ... SPLIT_TREE) — the Table 3 style view.
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


class _ShardedGrowthStrategy(TreeGrowthStrategy):
    """The distributed per-round operations behind the shared loop.

    Holds the per-block shard state (binned rows) and the per-grid-row
    training state (labels, raw scores, node indexes) and executes each
    phase of the Section 4.4 cycle inside a
    :class:`~repro.runtime.phases.PhaseStage`, delegating histogram
    aggregation and split finding to the system's backend.

    The worker layout is an R×C grid (``grid``): worker ``r * C + c``
    holds row band ``r`` × feature stripe ``c``.  With ``C == 1`` — the
    plain row sharding every pre-existing configuration uses — blocks and
    grid rows coincide and the dense aggregation path runs unchanged.
    With ``C > 1`` the C blocks of a grid row share the row band's
    labels/gradients (replicated compute, charged to every block) and
    aggregation goes through sparse slabs
    (:meth:`AggregationBackend.aggregate_node_slabs`).
    """

    def __init__(
        self,
        *,
        cluster: ClusterConfig,
        config: TrainConfig,
        cost: CostParams,
        loss,
        shards: list[BinnedShard],
        labels: list[np.ndarray],
        weights: list[np.ndarray | None],
        raws: list[np.ndarray],
        backend: AggregationBackend,
        build_strategy: HistogramBuildStrategy,
        clock: SimClock,
        runner: PhaseRunner,
        loading: float,
        n_features: int,
        grid: tuple[int, int],
        col_boundaries: np.ndarray,
        chaos: ChaosRuntime | None = None,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.cost = cost
        self.loss = loss
        self.shards = shards
        self.labels = labels
        self.weights = weights
        self.raws = raws
        self.backend = backend
        self.build_strategy = build_strategy
        self.clock = clock
        self.runner = runner
        self.loading = loading
        self.n_features = n_features
        self.grid = grid
        self.col_boundaries = np.asarray(col_boundaries, dtype=np.int64)
        self.chaos = chaos
        self._root_totals = (0.0, 0.0)
        self._leaf_assignments: list[np.ndarray] = []
        #: Bounded-staleness score queue: ``(tree_index, per-grid-row
        #: deltas)`` waiting to be applied.  Round ``t`` applies entries
        #: through ``t - staleness``, so gradients may lag the newest
        #: ``staleness`` trees; S=0 applies immediately (synchronous).
        self._pending_updates: list[tuple[int, list[np.ndarray]]] = []

    def _site(self, point: str, worker: int, timer=None) -> None:
        """Fire an execution-site fault point (no-op without chaos)."""
        if self.chaos is not None:
            self.chaos.site_fault(point, worker=worker, timer=timer)

    def _barrier_faults(self, timer=None) -> None:
        """Every worker arrives at a stage barrier, in id order."""
        if self.chaos is not None:
            for wid in range(self.cluster.n_workers):
                self._site("barrier", wid, timer)

    # ------------------------------------------------------------------
    # TreeGrowthStrategy
    # ------------------------------------------------------------------

    def begin_tree(self, tree_index: int) -> None:
        self.backend.begin_tree(tree_index)

    def compute_gradients(self, tree_index: int):
        cluster = self.cluster
        _, grid_cols = self.grid
        with self.runner.stage(WorkerPhase.NEW_TREE, tree_index) as stage:
            timer = stage.worker_timer()
            grads, hesses = [], []
            for r, (y, raw, w) in enumerate(
                zip(self.labels, self.raws, self.weights)
            ):
                sw = Stopwatch()
                with sw:
                    g, h = self.loss.gradients(y, raw, w)
                # Every block of the grid row recomputes the row band's
                # gradients from its replicated labels/scores, so each is
                # charged the measured seconds.
                for c in range(grid_cols):
                    timer.add(r * grid_cols + c, sw.total)
                grads.append(g)
                hesses.append(h)
            self._barrier_faults(timer)
            stage.barrier(timer)
            # Root totals: each worker contributes two floats (tiny push).
            total_g = float(sum(g.sum() for g in grads))
            total_h = float(sum(h.sum() for h in hesses))
            stage.charge_comm(
                general_ps_push_time(
                    cluster.n_workers,
                    cluster.n_servers,
                    16,
                    self.cost,
                    cluster.colocated,
                )
            )
            self._root_totals = (total_g, total_h)
        return grads, hesses

    def grow(self, tree_index: int, gradients, feature_valid) -> RegressionTree:
        grads, hesses = gradients
        config = self.config
        runner = self.runner
        grid_rows, grid_cols = self.grid
        tree = RegressionTree(config.max_depth)
        # One node-to-instance index per grid row: the C blocks of a row
        # band hold the same instances, so they share its index.
        indexes = [
            NodeInstanceIndex(len(self.raws[r]), config.max_nodes)
            for r in range(grid_rows)
        ]
        node_totals: dict[int, tuple[float, float]] = {0: self._root_totals}

        active = [0]
        eta = config.learning_rate
        for depth in range(1, config.max_depth + 1):
            if not active:
                break
            if depth == config.max_depth:
                for node in active:
                    g, h = node_totals[node]
                    tree.set_leaf(
                        node,
                        eta * leaf_weight(g, h, config.reg_lambda),
                        cover=float(h),
                    )
                active = []
                break

            # BUILD_HISTOGRAM for the whole layer.  The aggregation's wire
            # cost is charged by the backend under FIND_SPLIT (the paper
            # accounts aggregation as part of split finding).
            with runner.stage(WorkerPhase.BUILD_HISTOGRAM, tree_index) as stage:
                timer = stage.worker_timer()
                for node in active:
                    if grid_cols == 1:
                        flats = self._build_node_histograms(
                            indexes, grads, hesses, node, timer
                        )
                        self.backend.aggregate_node(node, flats, self.clock)
                    else:
                        slabs = self._build_node_slabs(
                            indexes, grads, hesses, node, timer
                        )
                        self.backend.aggregate_node_slabs(
                            node, slabs, self.clock
                        )
                self._barrier_faults(timer)
                stage.barrier(timer)

            with runner.stage(WorkerPhase.FIND_SPLIT, tree_index):
                decisions = self.backend.find_splits(
                    active, feature_valid, self.clock
                )
                self._barrier_faults()

            with runner.stage(WorkerPhase.SPLIT_TREE, tree_index) as stage:
                timer = stage.worker_timer()
                next_active: list[int] = []
                broadcast_seconds = 0.0
                for node in active:
                    decision = decisions.get(node)
                    if decision is None or decision.gain <= config.min_split_gain:
                        g, h = node_totals[node]
                        tree.set_leaf(
                            node,
                            eta * leaf_weight(g, h, config.reg_lambda),
                            cover=float(h),
                        )
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
                    # the predicate; with C > 1 its blocks broadcast the
                    # go-left bitmaps to their row peers (grid rows move in
                    # parallel, so the slowest row's bitmap is charged).
                    owner_col = (
                        int(
                            np.searchsorted(
                                self.col_boundaries,
                                decision.feature,
                                side="right",
                            )
                        )
                        - 1
                    )
                    local_feature = decision.feature - int(
                        self.col_boundaries[owner_col]
                    )
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
                    if grid_cols > 1:
                        broadcast_seconds += (
                            grid_cols - 1
                        ) * point_to_point_time((max_rows + 7) // 8, self.cost)
                    next_active.extend((left, right))
                self._barrier_faults(timer)
                stage.barrier(timer)
                if broadcast_seconds:
                    stage.charge_comm(broadcast_seconds)
            if runner.lanes is not None:
                # One tree layer finished: bounded staleness syncs the
                # deferred barrier lanes every S + 1 layers.
                runner.lanes.layer_boundary(self.clock)
            # Roll the per-layer speed jitter regardless of staleness so
            # sync and async runs draw from the same factor stream.
            self.clock.next_layer()
            active = next_active

        # Leaf assignment per grid row from its index (free predictions).
        self._leaf_assignments = []
        for r in range(grid_rows):
            assignment = np.zeros(len(self.raws[r]), dtype=np.int64)
            for node in range(tree.max_nodes):
                if tree.is_leaf(node) and indexes[r].has_node(node):
                    assignment[indexes[r].rows_of(node)] = node
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

    def _build_node_histograms(
        self,
        indexes: list[NodeInstanceIndex],
        grads: list[np.ndarray],
        hesses: list[np.ndarray],
        node: int,
        timer,
    ) -> list[np.ndarray]:
        """One node's local histograms, feature-major flat, per worker."""
        flats = []
        for wid, shard in enumerate(self.shards):
            self._site("histogram_build", wid, timer)
            rows = indexes[wid].rows_of(node)
            histogram, seconds = self.build_strategy.build(
                shard, rows, grads[wid], hesses[wid]
            )
            timer.add(wid, seconds)
            flats.append(histogram.to_flat_feature_major())
            # The flat copy is what goes on the wire; the histogram's
            # buffers can be recycled for the next node.
            self.build_strategy.release(histogram)
        return flats

    def _build_node_slabs(
        self,
        indexes: list[NodeInstanceIndex],
        grads: list[np.ndarray],
        hesses: list[np.ndarray],
        node: int,
        timer,
    ) -> list[tuple[int, SparseSlab]]:
        """One node's sparse slabs, per block in worker-id order.

        Each block builds only its stripe's histogram and ships only the
        stripe features that have nonzeros among the node's rows.  The
        gradient sums are recomputed with the builder's exact expression
        so the server-side reconstruction of absent features is bitwise
        identical to the dense push.
        """
        grid_rows, grid_cols = self.grid
        slabs: list[tuple[int, SparseSlab]] = []
        for r in range(grid_rows):
            rows = indexes[r].rows_of(node)
            grad, hess = grads[r], hesses[r]
            sum_g = float(grad[rows].sum())
            sum_h = float(hess[rows].sum())
            for c in range(grid_cols):
                wid = r * grid_cols + c
                self._site("histogram_build", wid, timer)
                shard = self.shards[wid]
                histogram, seconds = self.build_strategy.build(
                    shard, rows, grad, hess
                )
                timer.add(wid, seconds)
                positions = shard.positions_of_rows(rows)
                present = (
                    np.unique(shard.features[positions])
                    if len(positions)
                    else np.empty(0, dtype=np.int64)
                )
                slab = slab_from_flat(
                    histogram.to_flat_feature_major(),
                    present,
                    int(self.col_boundaries[c]),
                    int(self.col_boundaries[c + 1]),
                    shard.n_bins,
                    sum_g,
                    sum_h,
                )
                self.build_strategy.release(histogram)
                slabs.append((wid, slab))
        return slabs


class DistributedGBDT:
    """Distributed GBDT trainer over the simulated cluster.

    Args:
        system: One of ``BACKEND_NAMES`` ("dimboost", "xgboost", ...).
        cluster: Cluster shape and network constants.
        config: GBDT hyper-parameters.
        sparse_build: Override the backend's histogram-build mode (the
            paper's baselines scan densely; DimBoost uses Algorithm 2).
        use_index: Node-to-instance index on workers (ablation hook).
        batched_build: Parallel batch construction with the simulated
            span accounting (Section 5.2).
        distributed_sketch: Back-compat alias for
            ``sketch_mode="distributed"``.
        sketch_mode: How CREATE_SKETCH proposes candidates.  ``"exact"``
            (default) computes exact global quantiles in the driver and
            charges modelled sketch bytes — it keeps the cross-system
            tree-identity guarantee.  ``"distributed"`` builds per-worker
            GK sketches and pushes them through the real PS fabric, where
            the servers merge them per feature (the faithful CREATE_SKETCH
            / PULL_SKETCH path).  ``"weighted"`` does the same with
            hessian/instance-weighted summaries (Huang & Yi), so cut
            points equalize weight mass per bucket.
        build_strategy: Explicit histogram build strategy; overrides the
            ``sparse_build`` / ``batched_build`` resolution when given.
        callbacks: Trainer hooks observing every fit (see
            :mod:`repro.runtime.hooks`).
        fault_plan: Optional :class:`~repro.chaos.FaultPlan`; when given,
            the fit runs under fault injection with bounded-retry +
            rollback-replay recovery (``config.max_retries`` /
            ``config.checkpoint_every``) and the result carries the
            :attr:`DistributedResult.faults` report.  Message faults
            (drop/duplicate/server_down) need a PS backend
            ("tencentboost" / "dimboost").
        backend_kwargs: Extra arguments for the backend (e.g. DimBoost's
            ``two_phase=False`` ablation); validated against the
            backend's accepted options.
    """

    def __init__(
        self,
        system: str = "dimboost",
        cluster: ClusterConfig | None = None,
        config: TrainConfig | None = None,
        sparse_build: bool | None = None,
        use_index: bool = True,
        batched_build: bool = False,
        distributed_sketch: bool = False,
        sketch_mode: str | None = None,
        build_strategy: HistogramBuildStrategy | None = None,
        callbacks: Sequence[TrainerCallback] = (),
        fault_plan: FaultPlan | None = None,
        **backend_kwargs,
    ) -> None:
        self.system = system
        self.cluster = cluster if cluster is not None else ClusterConfig()
        self.config = config if config is not None else TrainConfig()
        self._sparse_build_override = sparse_build
        self.use_index = use_index
        self.batched_build = batched_build
        if sketch_mode is None:
            sketch_mode = "distributed" if distributed_sketch else "exact"
        if sketch_mode not in ("exact", "distributed", "weighted"):
            raise ConfigError(
                f"sketch_mode must be 'exact', 'distributed', or "
                f"'weighted', got {sketch_mode!r}"
            )
        self.sketch_mode = sketch_mode
        self.distributed_sketch = sketch_mode != "exact"
        self._build_strategy_override = build_strategy
        self.callbacks = list(callbacks)
        self.fault_plan = fault_plan
        self._backend_kwargs = backend_kwargs
        # Fail fast: unknown system / option, grid or window on a backend
        # that cannot carry them — before fit does any work.
        check_backend(system, self.cluster, self.config, backend_kwargs)
        self.cost = CostParams(
            self.cluster.network.alpha,
            self.cluster.network.beta,
            self.cluster.network.gamma,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def fit(self, train: Dataset) -> DistributedResult:
        """Train on ``train`` and return the model plus time accounting."""
        config = self.config
        cluster = self.cluster
        loss = get_loss(config.loss)
        # Per-layer speed jitter (rotating stragglers) rides on the
        # clock so every parallel region — synchronous barriers and
        # deferred staleness lanes alike — prices compute with the same
        # seeded factor stream.  Accounting only: model bits unchanged.
        jitter = (
            LayerSpeedJitter(
                cluster.n_workers, cluster.speed_jitter, seed=config.seed
            )
            if cluster.speed_jitter > 0.0
            else None
        )
        clock = SimClock(jitter=jitter)
        master = Master(cluster.n_workers, staleness=config.staleness)

        chaos: ChaosRuntime | None = None
        fault_accountant: FaultAccountant | None = None
        if self.fault_plan is not None:
            chaos = ChaosRuntime(
                self.fault_plan,
                clock=clock,
                cost=cluster.network,
                max_retries=config.max_retries,
            )
            fault_accountant = FaultAccountant(chaos)

        accountant = PhaseAccountant()
        rounds: list[RoundRecord] = []
        hooks = CallbackList(
            [
                accountant,
                HistoryCollector(rounds),
                *((fault_accountant,) if fault_accountant else ()),
                *self.callbacks,
            ]
        )
        # Bounded staleness (S >= 1): stage barriers stop charging
        # immediately; per-worker seconds accumulate in lanes that sync
        # every S + 1 tree layers (and once more at fit end).
        lanes = (
            StalenessLanes(cluster.n_workers, config.staleness)
            if config.staleness > 0
            else None
        )
        runner = PhaseRunner(
            hooks, master=master, clock=clock, cluster=cluster, lanes=lanes
        )
        hooks.on_fit_start(config.n_trees)

        # DATA PARTITIONING + loading: block bytes over the ingest rate,
        # workers load in parallel (max block).  The R×C grid defaults to
        # (n_workers, 1) — plain row sharding.
        grid_rows, grid_cols = cluster.grid_shape
        partitioner = BlockPartitioner(train, GridSpec(grid_rows, grid_cols))
        shards_data = [partitioner.row_shard(r) for r in range(grid_rows)]
        blocks: list[DataBlock] | None = (
            partitioner.blocks if grid_cols > 1 else None
        )
        loading = (
            max(b.data.X.nbytes for b in blocks)
            if blocks is not None
            else max(s.X.nbytes for s in shards_data)
        ) / cluster.loading_bytes_per_second

        # CREATE_SKETCH / PULL_SKETCH.
        with runner.stage(WorkerPhase.CREATE_SKETCH):
            candidates, sketch_bytes = self._propose_candidates(
                train,
                shards_data,
                clock,
                blocks,
                fabric=chaos.fabric if chaos is not None else None,
            )
        with runner.stage(WorkerPhase.PULL_SKETCH) as stage:
            # Pull of the merged sketches by every worker.
            stage.charge_comm(
                cluster.n_servers * self.cost.alpha
                + sketch_bytes * self.cost.beta
            )

        backend_kwargs = dict(self._backend_kwargs)
        if chaos is not None and "fabric" in backend_options(self.system):
            backend_kwargs.setdefault("fabric", chaos.fabric)
        backend = make_backend(
            self.system, cluster, config, candidates, **backend_kwargs
        )
        build_strategy = self._resolve_build_strategy(backend)

        # Pre-bucketize every block (part of loading/ETL; measured).  A
        # block bins against its stripe's candidate slice, so stripe-local
        # bucket ids equal the global ones feature for feature.
        etl = Stopwatch()
        with etl:
            if blocks is not None:
                shards = [
                    BinnedShard(
                        b.data.X, candidates.feature_range(b.col_lo, b.col_hi)
                    )
                    for b in blocks
                ]
            else:
                shards = [BinnedShard(s.X, candidates) for s in shards_data]
        loading += etl.total / cluster.n_workers

        labels = [np.asarray(s.y, dtype=np.float64) for s in shards_data]
        weights = [
            s.weights if s.weights is not None else None for s in shards_data
        ]
        base = loss.base_score(train.y, train.weights)
        raws = [np.full(s.n_instances, base, dtype=np.float64) for s in shards_data]

        strategy = _ShardedGrowthStrategy(
            cluster=cluster,
            config=config,
            cost=self.cost,
            loss=loss,
            shards=shards,
            labels=labels,
            weights=weights,
            raws=raws,
            backend=backend,
            build_strategy=build_strategy,
            clock=clock,
            runner=runner,
            loading=loading,
            n_features=train.n_features,
            grid=(grid_rows, grid_cols),
            col_boundaries=partitioner.col_boundaries,
            chaos=chaos,
        )
        recovery = None
        if chaos is not None:

            def capture() -> tuple:
                # Raw scores plus the bounded-staleness pending queue: a
                # rollback must replay from identical score state AND
                # identical queued deltas (partial windows re-fold from
                # scratch, so they need no snapshot of their own).
                return (
                    [raw.copy() for raw in raws],
                    [
                        (idx, [delta.copy() for delta in deltas])
                        for idx, deltas in strategy._pending_updates
                    ],
                )

            def restore(state: tuple) -> None:
                saved_raws, saved_pending = state
                for raw, saved in zip(raws, saved_raws):
                    raw[:] = saved
                strategy._pending_updates = [
                    (idx, [delta.copy() for delta in deltas])
                    for idx, deltas in saved_pending
                ]

            recovery = RoundRecovery(
                capture=capture,
                restore=restore,
                master=master,
                clock=clock,
                injector=chaos.injector,
                policy=chaos.policy,
                checkpoint_every=config.checkpoint_every,
                records=rounds,
            )
        try:
            trees = BoostingLoop(
                strategy, config, callbacks=hooks, recovery=recovery
            ).run()
        finally:
            # Resources (process pools, shared memory) of a strategy this
            # fit resolved are this fit's to release; an injected strategy
            # stays open for its owner.
            if self._build_strategy_override is None:
                build_strategy.close()

        if lanes is not None:
            # Final staleness sync: whatever lane time the last (< S + 1)
            # layers accumulated is paid before the fit's books close.
            lanes.sync(clock)

        with runner.stage(WorkerPhase.FINISH):
            # FINISH assembles the deliverable: the model object plus its
            # compiled flat form, so downstream evaluation (cmd_compare,
            # tests) scores on the batched inference path immediately.
            model = GBDTModel(
                trees=trees,
                base_score=base,
                loss_name=config.loss,
                n_features=train.n_features,
            )
            if trees:
                model.compiled()

        if chaos is not None:
            # Rollback charges land between stages (the aborted stage's
            # accounting is skipped), so the per-stage accountant misses
            # them; the clock's per-label total is authoritative.
            recovery_seconds = clock.by_phase().get(FAULT_RECOVERY_PHASE, 0.0)
            if recovery_seconds > 0.0:
                accountant.phases[FAULT_RECOVERY_PHASE] = recovery_seconds
        if lanes is not None:
            # Lane syncs charge the clock between stages, so the
            # per-stage accountant misses them; like fault recovery, the
            # clock's per-label totals are authoritative.
            for label, seconds in clock.by_phase().items():
                accountant.phases[label] = seconds
        breakdown = TimeBreakdown(
            loading=loading,
            computation=clock.computation,
            communication=clock.communication,
        )
        result = DistributedResult(
            model=model,
            system=self.system,
            breakdown=breakdown,
            rounds=rounds,
            phases=accountant.phases,
            faults=(
                fault_accountant.report() if fault_accountant is not None else None
            ),
        )
        hooks.on_fit_end(result)
        return result

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _resolve_build_strategy(
        self, backend: AggregationBackend
    ) -> HistogramBuildStrategy:
        """The histogram build strategy for this fit.

        Precedence: explicit ``build_strategy`` > the ``sparse_build``
        override > the backend's own build mode.
        """
        if self._build_strategy_override is not None:
            return self._build_strategy_override
        sparse = (
            backend.build_mode == "sparse"
            if self._sparse_build_override is None
            else self._sparse_build_override
        )
        return resolve_build_strategy(
            self.config,
            sparse=sparse,
            batched=self.batched_build,
            pool=HistogramBufferPool(),
        )

    def _propose_candidates(
        self,
        train: Dataset,
        shards_data: list[Dataset],
        clock: SimClock,
        blocks: "list[DataBlock] | None" = None,
        fabric=None,
    ) -> tuple[CandidateSet, float]:
        """Candidate proposal with the sketch *push* charged.

        Returns the candidates plus the sketch wire bytes the PULL_SKETCH
        stage charges per worker.  On the ``"distributed"`` and
        ``"weighted"`` paths every worker serializes one summary per
        feature it holds and pushes it through a real
        :class:`ParameterServerGroup` (and ``fabric``, when chaos is
        active); the servers merge arrivals per feature in delivery
        order.  With a feature-striped grid (``blocks``), each block
        sketches only its stripe's columns and workers push in worker-id
        order, so every stripe's feature is merged down its grid rows in
        increasing row order — the same left-fold the row-sharded layout
        performs — and candidates are bit-identical across layouts.
        """
        config = self.config
        cluster = self.cluster

        def charge_sketch_push(sketch_bytes: float) -> None:
            clock.advance_comm(
                general_ps_push_time(
                    cluster.n_workers,
                    cluster.n_servers,
                    sketch_bytes,
                    self.cost,
                    cluster.colocated,
                ),
                phase="CREATE_SKETCH",
            )

        if self.sketch_mode == "exact":
            # Exact path: charge the modelled summary size for the widest
            # per-worker feature range (the whole row when C == 1, the
            # widest stripe otherwise).
            entries_per_sketch = int(1.0 / (2.0 * config.sketch_eps)) + 2
            per_push_features = (
                max(b.n_cols for b in blocks)
                if blocks is not None
                else train.n_features
            )
            sketch_bytes = (
                per_push_features
                * entries_per_sketch
                * cluster.network.sketch_entry_bytes
            )
            charge_sketch_push(sketch_bytes)
            return (
                propose_candidates(train.X, config.n_split_candidates),
                sketch_bytes,
            )

        # PS path: every worker pushes its serialized stripe-local
        # summaries through the group (and the fault fabric, if any); the
        # servers merge per feature in arrival order.
        weighted = self.sketch_mode == "weighted"
        eps_local = config.sketch_eps / 2.0
        group = ParameterServerGroup(cluster.n_servers, fabric=fabric)
        group.register("sketch", train.n_features)

        if blocks is None:
            units = [
                (wid, shard.X, 0, shard.n_features, shard.weights)
                for wid, shard in enumerate(shards_data)
            ]
        else:
            units = [
                (wid, b.data.X, b.col_lo, b.n_cols, b.data.weights)
                for wid, b in enumerate(blocks)
            ]
        per_worker_seconds = [0.0] * len(units)
        per_worker_bytes = [0] * len(units)
        for wid, X, col_lo, n_cols, row_weights in units:
            sw = Stopwatch()
            with sw:
                local: Sequence[AnySketch]
                if weighted:
                    weights_arr = (
                        np.asarray(row_weights, dtype=np.float64)
                        if row_weights is not None
                        else np.ones(X.shape[0], dtype=np.float64)
                    )
                    local = sketch_columns_weighted(
                        X.indptr,
                        X.indices,
                        X.data,
                        n_cols,
                        weights_arr,
                        eps=eps_local,
                    )
                else:
                    local = sketch_columns(
                        X.indptr, X.indices, X.data, n_cols, eps=eps_local
                    )
            per_worker_seconds[wid] = sw.total
            stats = group.push_sketch(
                "sketch",
                {col_lo + f: sk for f, sk in enumerate(local)},
                seq=("sketch", wid),
                worker=wid,
            )
            per_worker_bytes[wid] = stats.bytes_up
        # Real wire accounting: what a worker's serialized sketches weigh.
        sketch_bytes = max(per_worker_bytes)
        charge_sketch_push(sketch_bytes)
        clock.barrier(
            scale_by_speeds(per_worker_seconds, cluster), phase="CREATE_SKETCH"
        )
        merged_map, pull_stats = group.pull_sketches("sketch", worker=0)
        empty: AnySketch = (
            WeightedGKSketch(eps_local) if weighted else GKSketch(eps_local)
        )
        merged = [
            merged_map[f] if f in merged_map else empty
            for f in range(train.n_features)
        ]
        return (
            propose_candidates_from_sketches(merged, config.n_split_candidates),
            float(pull_stats.bytes_down),
        )


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
