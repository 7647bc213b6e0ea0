"""Layer-wise tree growth — the single-process reference engine.

"We use a layer-wise scheme to consecutively add active nodes — after
splitting the current layer, we set the tree nodes of the next layer to
active and continue to split the next layer" (Section 4.4).

The grower drives, per layer: sparsity-aware histogram construction
(Algorithm 2) for each active node, split finding over the histograms,
and node splitting through the node-to-instance index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import TrainingError
from ..histogram.binned import BinnedShard
from ..histogram.builder import build_node_histogram_sparse
from ..histogram.histogram import GradientHistogram
from ..histogram.index import NodeInstanceIndex
from ..sketch.candidates import CandidateSet
from .split import SplitDecision, find_best_split, leaf_weight
from .tree import RegressionTree


@dataclass
class GrownTree:
    """Result of growing one tree on one shard.

    Attributes:
        tree: The finished tree (leaf weights already shrunk by eta).
        leaf_of_rows: Leaf slot of every shard row — the training-set
            predictions come for free from the node-to-instance index.
        n_histograms: Histograms built (ablation metric).
    """

    tree: RegressionTree
    leaf_of_rows: np.ndarray
    n_histograms: int


class LayerwiseGrower:
    """Grows regression trees over one :class:`BinnedShard`.

    Args:
        shard: Pre-bucketized training data.
        candidates: The split candidates the shard was binned with.
        config: Hyper-parameters.
        subtraction: Derive each node's sibling histogram as parent
            minus child instead of building both — an extension beyond
            the paper (LightGBM's trick): only the smaller child of every
            split is built, roughly halving per-layer build work at the
            cost of keeping the parent histograms of one layer in memory.
    """

    def __init__(
        self,
        shard: BinnedShard,
        candidates: CandidateSet,
        config: TrainConfig,
        subtraction: bool = False,
    ) -> None:
        if shard.n_features != candidates.n_features:
            raise TrainingError(
                "shard and candidates disagree on the feature count"
            )
        self.shard = shard
        self.candidates = candidates
        self.config = config
        self.subtraction = subtraction

    # ------------------------------------------------------------------
    # growth
    # ------------------------------------------------------------------

    def grow(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        feature_valid: np.ndarray | None = None,
    ) -> GrownTree:
        """Grow one tree from per-row gradients.

        Args:
            grad, hess: First/second-order gradients per shard row.
            feature_valid: Optional per-feature sampling mask.

        Returns:
            The grown tree with per-row leaf assignments.
        """
        config = self.config
        shard = self.shard
        if len(grad) != shard.n_rows or len(hess) != shard.n_rows:
            raise TrainingError(
                f"gradients must match shard rows ({shard.n_rows}), got "
                f"{len(grad)}/{len(hess)}"
            )
        self._grad = np.asarray(grad, dtype=np.float64)
        self._hess = np.asarray(hess, dtype=np.float64)

        tree = RegressionTree(config.max_depth)
        index = NodeInstanceIndex(shard.n_rows, config.max_nodes)

        active = [0]
        n_histograms = 0
        eta = config.learning_rate
        # Parent histograms kept for one layer when subtraction is on.
        parent_hists: dict[int, GradientHistogram] = {}

        for depth in range(1, config.max_depth + 1):
            if not active:
                break
            if depth == config.max_depth:
                for node in active:
                    rows = index.rows_of(node)
                    g, h = self._grad[rows].sum(), self._hess[rows].sum()
                    tree.set_leaf(
                        node,
                        eta * leaf_weight(g, h, config.reg_lambda),
                        cover=float(h),
                    )
                active = []
                break

            layer_hists, n_built = self._layer_histograms(index, active, parent_hists)
            n_histograms += n_built
            next_active: list[int] = []
            parent_hists = {}
            for node in active:
                rows = index.rows_of(node)
                histogram = layer_hists.pop(node, None)
                if histogram is None:
                    g, h = self._grad[rows].sum(), self._hess[rows].sum()
                    tree.set_leaf(
                        node,
                        eta * leaf_weight(g, h, config.reg_lambda),
                        cover=float(h),
                    )
                    continue
                decision = find_best_split(
                    histogram,
                    self.candidates,
                    config.reg_lambda,
                    config.reg_gamma,
                    config.min_child_weight,
                    feature_valid,
                )
                if decision is None or decision.gain <= config.min_split_gain:
                    g, h = histogram.totals()
                    tree.set_leaf(
                        node,
                        eta * leaf_weight(g, h, config.reg_lambda),
                        cover=float(h),
                    )
                    continue
                left, right = self._apply_split(tree, index, node, rows, decision)
                if self.subtraction and depth + 1 < config.max_depth:
                    # Keep the parent histogram so one child per pair can
                    # be derived by subtraction next layer.
                    parent_hists[node] = histogram
                next_active.extend((left, right))
            active = next_active

        leaf_of_rows = self._final_leaves(tree, index)
        return GrownTree(tree=tree, leaf_of_rows=leaf_of_rows, n_histograms=n_histograms)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _layer_histograms(
        self,
        index: NodeInstanceIndex,
        active: list[int],
        parent_hists: dict[int, GradientHistogram],
    ) -> tuple[dict[int, GradientHistogram], int]:
        """Histograms for every sufficiently-populated node of a layer.

        With ``subtraction`` on and the parent's histogram cached, only
        the smaller sibling of each pair is built; the other is derived
        as ``parent - sibling``.  Nodes with fewer than two instances get
        no histogram (the caller turns them into leaves).

        Returns (histograms by node, number actually built).
        """
        hists: dict[int, GradientHistogram] = {}
        n_built = 0
        active_set = set(active)
        done: set[int] = set()
        for node in active:
            if node in done:
                continue
            rows = index.rows_of(node)
            sibling = node + 1 if node % 2 == 1 else node - 1
            parent = (node - 1) // 2 if node > 0 else -1
            phist = parent_hists.get(parent) if self.subtraction else None
            if phist is not None and sibling in active_set:
                sib_rows = index.rows_of(sibling)
                small, small_rows, large = (
                    (node, rows, sibling)
                    if len(rows) <= len(sib_rows)
                    else (sibling, sib_rows, node)
                )
                built = self._build(small_rows)
                n_built += 1
                hists[small] = built
                hists[large] = phist.subtract(built)
                done.update((node, sibling))
                continue
            if len(rows) >= 2:
                hists[node] = self._build(rows)
                n_built += 1
            done.add(node)
        return hists, n_built

    def _build(self, rows: np.ndarray) -> GradientHistogram:
        return build_node_histogram_sparse(self.shard, rows, self._grad, self._hess)

    def _apply_split(
        self,
        tree: RegressionTree,
        index: NodeInstanceIndex,
        node: int,
        rows: np.ndarray,
        decision: SplitDecision,
    ) -> tuple[int, int]:
        left, right = tree.set_split(
            node,
            decision.feature,
            decision.value,
            gain=decision.gain,
            cover=decision.total_hess,
        )
        goes_left = self.shard.split_mask(rows, decision.feature, decision.bucket)
        index.split(node, goes_left)
        return left, right

    def _final_leaves(
        self, tree: RegressionTree, index: NodeInstanceIndex
    ) -> np.ndarray:
        leaf_of_rows = np.zeros(self.shard.n_rows, dtype=np.int64)
        for node in range(tree.max_nodes):
            if tree.is_leaf(node) and index.has_node(node):
                leaf_of_rows[index.rows_of(node)] = node
        return leaf_of_rows
