"""Single-machine GBDT trainer — the reference implementation.

This is the w=1 ground truth the distributed trainers are tested
against: with exact aggregation every system must grow the *same trees*
as this trainer, because the merged histograms are identical.

The per-tree cycle (Section 2.2: gradients at the current predictions →
feature sampling → grow one tree → add its shrunk predictions to the
running scores) lives in the shared
:class:`~repro.runtime.loop.BoostingLoop`; this module contributes the
single-process :class:`~repro.runtime.loop.TreeGrowthStrategy` plus the
eval-set scoring and early-stopping policy.  Training predictions come
free from the grower's node-to-instance leaf assignment instead of
re-running tree inference on the training set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..config import TrainConfig
from ..datasets.dataset import Dataset
from ..errors import TrainingError
from ..histogram.binned import BinnedShard
from ..ps.master import WorkerPhase
from ..runtime.hooks import CallbackList, HistoryCollector, TrainerCallback
from ..runtime.loop import BoostingLoop, TreeGrowthStrategy, sample_features
from ..runtime.phases import PhaseRunner
from ..utils.timing import wall_clock
from ..sketch.candidates import CandidateSet, propose_candidates
from ..tree.grower import LayerwiseGrower
from .losses import get_loss
from .metrics import error_rate
from .model import GBDTModel

__all__ = ["BoostingRound", "GBDT", "sample_features"]


@dataclass
class BoostingRound:
    """Per-round telemetry recorded during training.

    Attributes:
        tree_index: 0-based boosting round.
        train_loss: Loss over the training set after this round.
        train_error: Classification error (logistic) or MSE (squared).
        seconds: Wall-clock time the round took.
        elapsed_seconds: Cumulative wall-clock since fit() started —
            the x-axis of the paper's convergence plots (Figure 12).
        n_histograms: Histograms built this round.
        eval_loss: Loss over the eval set, when one was provided.
        eval_error: Error over the eval set, when one was provided.
    """

    tree_index: int
    train_loss: float
    train_error: float
    seconds: float
    elapsed_seconds: float
    n_histograms: int
    eval_loss: float | None = None
    eval_error: float | None = None


class _SingleProcessStrategy(TreeGrowthStrategy):
    """One-process growth: a grower over one shard, scores in place.

    Also owns the eval-set policy: scoring after every round, tracking
    the best round, stopping when the eval loss stalls, and truncating
    the collected trees back to the best round in :meth:`finalize`.
    """

    def __init__(
        self,
        *,
        train: Dataset,
        loss,
        grower,
        raw: np.ndarray,
        eval_set: Dataset | None,
        eval_raw: np.ndarray | None,
        early_stopping_rounds: int | None,
        runner: PhaseRunner,
        fit_started_at: float,
    ) -> None:
        self.train = train
        self.loss = loss
        self.grower = grower
        self.raw = raw
        self.eval_set = eval_set
        self.eval_raw = eval_raw
        self.early_stopping_rounds = early_stopping_rounds
        self.runner = runner
        self.n_features = train.n_features
        self._fit_started_at = fit_started_at
        self._round_started_at = fit_started_at
        self.best_eval = np.inf
        self.best_round = -1

    def begin_tree(self, tree_index: int) -> None:
        self._round_started_at = wall_clock()

    def compute_gradients(self, tree_index: int):
        with self.runner.stage(WorkerPhase.NEW_TREE, tree_index):
            return self.loss.gradients(
                self.train.y, self.raw, self.train.weights
            )

    def grow(self, tree_index: int, gradients, feature_valid):
        grad, hess = gradients
        return self.grower.grow(grad, hess, feature_valid=feature_valid)

    def update_scores(self, tree_index: int, grown) -> None:
        # Training predictions come free from the leaf assignment.
        self.raw += grown.tree.weight[grown.leaf_of_rows]

    def finish_round(self, tree_index: int, grown) -> BoostingRound:
        loss = self.loss
        eval_loss = eval_error = None
        if self.eval_set is not None and self.eval_raw is not None:
            self.eval_raw += grown.tree.predict(self.eval_set.X)
            eval_loss = loss.loss(self.eval_set.y, self.eval_raw)
            eval_error = self._error(loss, self.eval_set.y, self.eval_raw)
            if eval_loss < self.best_eval - 1e-12:
                self.best_eval = eval_loss
                self.best_round = tree_index
        now = wall_clock()
        return BoostingRound(
            tree_index=tree_index,
            train_loss=loss.loss(self.train.y, self.raw, self.train.weights),
            train_error=self._error(loss, self.train.y, self.raw),
            seconds=now - self._round_started_at,
            elapsed_seconds=now - self._fit_started_at,
            n_histograms=grown.n_histograms,
            eval_loss=eval_loss,
            eval_error=eval_error,
        )

    def should_stop(self, tree_index: int) -> bool:
        return (
            self.early_stopping_rounds is not None
            and tree_index - self.best_round >= self.early_stopping_rounds
        )

    def finalize(self, grown_units: list) -> list:
        if self.early_stopping_rounds is not None and self.best_round >= 0:
            return grown_units[: self.best_round + 1]
        return grown_units

    @staticmethod
    def _error(loss, y: np.ndarray, raw: np.ndarray) -> float:
        if loss.name == "logistic":
            return error_rate(y, loss.transform(raw))
        return loss.loss(y, raw)


@dataclass
class GBDT:
    """Single-machine GBDT trainer.

    Usage::

        trainer = GBDT(TrainConfig(n_trees=20, max_depth=7))
        model = trainer.fit(train_dataset)
        proba = model.predict(test_dataset.X)

    Attributes:
        config: Hyper-parameters.
        subtraction: Derive sibling histograms as parent minus child
            (extension; halves per-layer build work).
        history: Per-round telemetry, populated by :meth:`fit`.
    """

    config: TrainConfig = field(default_factory=TrainConfig)
    subtraction: bool = False
    leaf_wise: bool = False
    max_leaves: int | None = None
    history: list[BoostingRound] = field(default_factory=list)

    def fit(
        self,
        train: Dataset,
        candidates: CandidateSet | None = None,
        eval_set: Dataset | None = None,
        early_stopping_rounds: int | None = None,
        callbacks: Sequence[TrainerCallback] = (),
    ) -> GBDTModel:
        """Train on ``train`` and return the model.

        Args:
            train: Training dataset.
            candidates: Precomputed split candidates; proposed from exact
                per-feature quantiles when omitted.
            eval_set: Optional held-out dataset evaluated after every
                round (recorded in :attr:`history`).
            early_stopping_rounds: Stop when the eval loss has not
                improved for this many consecutive rounds, and truncate
                the model to its best round.  Requires ``eval_set``.
            callbacks: Trainer hooks observing this fit (see
                :mod:`repro.runtime.hooks`).
        """
        config = self.config
        if early_stopping_rounds is not None:
            if eval_set is None:
                raise TrainingError("early stopping requires an eval_set")
            if early_stopping_rounds < 1:
                raise TrainingError(
                    f"early_stopping_rounds must be >= 1, got "
                    f"{early_stopping_rounds}"
                )
        loss = get_loss(config.loss)
        start = wall_clock()
        if candidates is None:
            candidates = propose_candidates(train.X, config.n_split_candidates)
        shard = BinnedShard(train.X, candidates)
        if self.leaf_wise:
            from ..tree.bestfirst import BestFirstGrower

            grower: LayerwiseGrower | BestFirstGrower = BestFirstGrower(
                shard, candidates, config, max_leaves=self.max_leaves
            )
        else:
            grower = LayerwiseGrower(
                shard, candidates, config, subtraction=self.subtraction
            )

        base = loss.base_score(train.y, train.weights)
        raw = np.full(train.n_instances, base, dtype=np.float64)
        eval_raw = (
            np.full(eval_set.n_instances, base, dtype=np.float64)
            if eval_set is not None
            else None
        )
        self.history = []
        hooks = CallbackList([HistoryCollector(self.history), *callbacks])
        runner = PhaseRunner(hooks)  # no master/clock: pure hook dispatch
        hooks.on_fit_start(config.n_trees)

        strategy = _SingleProcessStrategy(
            train=train,
            loss=loss,
            grower=grower,
            raw=raw,
            eval_set=eval_set,
            eval_raw=eval_raw,
            early_stopping_rounds=early_stopping_rounds,
            runner=runner,
            fit_started_at=start,
        )
        grown_units = BoostingLoop(strategy, config, callbacks=hooks).run()

        model = GBDTModel(
            trees=[grown.tree for grown in grown_units],
            base_score=base,
            loss_name=config.loss,
            n_features=train.n_features,
        )
        hooks.on_fit_end(model)
        return model
