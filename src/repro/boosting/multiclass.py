"""Multiclass GBDT via softmax boosting.

An extension beyond the paper (whose application is binary gender
prediction): K-class classification with the standard one-tree-per-
class-per-round scheme.  Each boosting round computes the softmax
gradients for every class and grows K regression trees over the same
binned shard; prediction sums each class's trees and applies softmax.

All of the paper's machinery is reused unchanged — candidates, binned
shards, Algorithm 2 histograms, the node-to-instance index, the gain
scan — only the loss and the model container are new.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from ..config import TrainConfig
from ..datasets.dataset import Dataset
from ..datasets.sparse import CSRMatrix
from ..errors import DataError, NotFittedError, TrainingError
from ..histogram.binned import BinnedShard
from ..inference.flat import FlatEnsemble
from .model import ARTIFACT_VERSION, artifact_header, read_artifact
from ..ps.master import WorkerPhase
from ..runtime.hooks import CallbackList, HistoryCollector, TrainerCallback
from ..runtime.loop import BoostingLoop, TreeGrowthStrategy
from ..runtime.phases import PhaseRunner
from ..utils.timing import wall_clock
from ..sketch.candidates import CandidateSet, propose_candidates
from ..tree.grower import LayerwiseGrower
from ..tree.tree import RegressionTree, artifact_field, artifact_value


def softmax(raw: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable."""
    shifted = raw - raw.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class SoftmaxLoss:
    """Cross-entropy over K classes with second-order diagonals.

    ``g_ik = p_ik - [y_i == k]``; ``h_ik = p_ik * (1 - p_ik)`` — the
    diagonal Hessian approximation every major GBDT system uses.
    """

    name = "softmax"

    def __init__(self, n_classes: int) -> None:
        if n_classes < 2:
            raise DataError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = n_classes

    def check_labels(self, y: np.ndarray) -> np.ndarray:
        labels = np.asarray(y)
        as_int = labels.astype(np.int64)
        if not np.array_equal(as_int, labels):
            raise DataError("multiclass labels must be integers")
        if as_int.min() < 0 or as_int.max() >= self.n_classes:
            raise DataError(
                f"labels must lie in [0, {self.n_classes}), got range "
                f"[{as_int.min()}, {as_int.max()}]"
            )
        return as_int

    def base_scores(self, y: np.ndarray) -> np.ndarray:
        """Per-class log prior (shape (n_classes,))."""
        labels = self.check_labels(y)
        counts = np.bincount(labels, minlength=self.n_classes).astype(np.float64)
        priors = np.clip(counts / counts.sum(), 1e-6, 1.0)
        return np.log(priors)

    def gradients(
        self, y: np.ndarray, raw: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-class (g, h), both of shape (n, n_classes)."""
        labels = self.check_labels(y)
        probs = softmax(np.asarray(raw, dtype=np.float64))
        grad = probs.copy()
        grad[np.arange(len(labels)), labels] -= 1.0
        hess = probs * (1.0 - probs)
        return grad, hess

    def loss(self, y: np.ndarray, raw: np.ndarray) -> float:
        """Mean cross-entropy."""
        labels = self.check_labels(y)
        probs = softmax(np.asarray(raw, dtype=np.float64))
        picked = np.clip(probs[np.arange(len(labels)), labels], 1e-12, 1.0)
        return float(-np.mean(np.log(picked)))


class MulticlassModel:
    """A K-class ensemble: ``rounds`` groups of ``n_classes`` trees."""

    def __init__(
        self,
        tree_groups: list[list[RegressionTree]],
        base_scores: np.ndarray,
        n_features: int,
    ) -> None:
        self.tree_groups = [list(group) for group in tree_groups]
        self.base_scores = np.asarray(base_scores, dtype=np.float64)
        self.n_features = int(n_features)
        self._flat: FlatEnsemble | None = None
        for group in self.tree_groups:
            if len(group) != self.n_classes:
                raise DataError(
                    f"every round must have {self.n_classes} trees, got "
                    f"{len(group)}"
                )

    @property
    def n_classes(self) -> int:
        """Number of classes K."""
        return len(self.base_scores)

    @property
    def n_rounds(self) -> int:
        """Boosting rounds T."""
        return len(self.tree_groups)

    def compiled(self) -> FlatEnsemble:
        """All K * T trees compiled round-major into one flat ensemble.

        Cached; recompiled if the round count changes.  One compiled
        traversal scores every class ensemble in a single pass.
        """
        if not self.tree_groups:
            raise NotFittedError("model has no trees")
        flat = self._flat
        expected = self.n_rounds * self.n_classes
        if flat is None or flat.n_trees != expected:
            trees = [tree for group in self.tree_groups for tree in group]
            flat = FlatEnsemble(trees, self.n_features)
            self._flat = flat
        return flat

    def predict_raw(
        self, X: CSRMatrix, batch_rows: int | None = None
    ) -> np.ndarray:
        """Per-class margins, shape (n_rows, n_classes).

        All K class ensembles are scored in one compiled traversal —
        bit-identical to :meth:`predict_raw_per_tree`.
        """
        if not self.tree_groups:
            raise NotFittedError("model has no trees")
        return self.compiled().predict_raw_classes(
            X, self.base_scores, self.n_classes, batch_rows=batch_rows
        )

    def predict_raw_per_tree(self, X: CSRMatrix) -> np.ndarray:
        """Reference oracle: the original group-by-group scoring loop."""
        if not self.tree_groups:
            raise NotFittedError("model has no trees")
        raw = np.tile(self.base_scores, (X.n_rows, 1))
        for group in self.tree_groups:
            for k, tree in enumerate(group):
                raw[:, k] += tree.predict(X)
        return raw

    def predict_proba(self, X: CSRMatrix) -> np.ndarray:
        """Class probabilities, rows summing to 1."""
        return softmax(self.predict_raw(X))

    def predict_labels(self, X: CSRMatrix) -> np.ndarray:
        """Hard argmax class labels."""
        return np.argmax(self.predict_raw(X), axis=1)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready structure."""
        return {
            "format": "repro-dimboost-gbdt-multiclass",
            "version": ARTIFACT_VERSION,
            "base_scores": self.base_scores.tolist(),
            "n_features": self.n_features,
            "rounds": [
                [tree.to_dict() for tree in group] for group in self.tree_groups
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MulticlassModel":
        """Inverse of :meth:`to_dict`, total over hostile input (the
        same ``DataError`` contract as :meth:`GBDTModel.from_dict`)."""
        n_features = artifact_header(payload, "repro-dimboost-gbdt-multiclass")
        return cls(
            tree_groups=[
                [
                    RegressionTree.from_dict(
                        tree, n_features, f"model.rounds[{r}][{k}]"
                    )
                    for k, tree in enumerate(
                        artifact_value(group, list, f"model.rounds[{r}]")
                    )
                ]
                for r, group in enumerate(
                    artifact_field(payload, "rounds", list, "model")
                )
            ],
            base_scores=[
                artifact_value(score, float, f"model.base_scores[{k}]")
                for k, score in enumerate(
                    artifact_field(payload, "base_scores", list, "model")
                )
            ],
            n_features=n_features,
        )

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "MulticlassModel":
        """Read a model written by :meth:`save` (same ``DataError``
        contract as :meth:`GBDTModel.load`)."""
        return cls.from_dict(read_artifact(path))

    def __repr__(self) -> str:
        return (
            f"MulticlassModel(n_rounds={self.n_rounds}, "
            f"n_classes={self.n_classes}, n_features={self.n_features})"
        )


@dataclass
class MulticlassRound:
    """Per-round telemetry: loss and error over the training set."""

    round_index: int
    train_loss: float
    train_error: float
    seconds: float


class _MulticlassStrategy(TreeGrowthStrategy):
    """One-tree-per-class growth over one shared binned shard.

    A grown unit is the round's list of K
    :class:`~repro.tree.grower.GrownTree` objects, one per class; the
    loop collects units per round and the trainer maps them back to the
    model's tree groups.
    """

    def __init__(
        self,
        *,
        train: Dataset,
        loss: SoftmaxLoss,
        grower: LayerwiseGrower,
        raw: np.ndarray,
        runner: PhaseRunner,
    ) -> None:
        self.train = train
        self.loss = loss
        self.grower = grower
        self.raw = raw
        self.runner = runner
        self.n_features = train.n_features
        self._round_started_at = 0.0

    def begin_tree(self, tree_index: int) -> None:
        self._round_started_at = wall_clock()

    def compute_gradients(self, tree_index: int):
        with self.runner.stage(WorkerPhase.NEW_TREE, tree_index):
            return self.loss.gradients(self.train.y, self.raw)

    def grow(self, tree_index: int, gradients, feature_valid) -> list:
        grad, hess = gradients
        return [
            self.grower.grow(grad[:, k], hess[:, k], feature_valid=feature_valid)
            for k in range(self.loss.n_classes)
        ]

    def update_scores(self, tree_index: int, grown: list) -> None:
        for k, class_grown in enumerate(grown):
            self.raw[:, k] += class_grown.tree.weight[class_grown.leaf_of_rows]

    def finish_round(self, tree_index: int, grown: list) -> MulticlassRound:
        predicted = np.argmax(self.raw, axis=1)
        return MulticlassRound(
            round_index=tree_index,
            train_loss=self.loss.loss(self.train.y, self.raw),
            train_error=float(
                np.mean(predicted != self.loss.check_labels(self.train.y))
            ),
            seconds=wall_clock() - self._round_started_at,
        )


@dataclass
class MulticlassGBDT:
    """K-class softmax GBDT trainer (single machine).

    Usage::

        trainer = MulticlassGBDT(n_classes=4, config=TrainConfig(n_trees=10))
        model = trainer.fit(dataset)          # labels in {0..3}
        labels = model.predict_labels(test.X)
    """

    n_classes: int = 3
    config: TrainConfig = field(default_factory=TrainConfig)
    subtraction: bool = False
    history: list[MulticlassRound] = field(default_factory=list)

    def fit(
        self,
        train: Dataset,
        candidates: CandidateSet | None = None,
        callbacks: Sequence[TrainerCallback] = (),
    ) -> MulticlassModel:
        """Train on ``train`` (integer labels) and return the model."""
        if self.n_classes < 2:
            raise TrainingError(f"n_classes must be >= 2, got {self.n_classes}")
        config = self.config
        loss = SoftmaxLoss(self.n_classes)
        labels = loss.check_labels(train.y)
        del labels  # validated; gradients re-derive them
        if candidates is None:
            candidates = propose_candidates(train.X, config.n_split_candidates)
        shard = BinnedShard(train.X, candidates)
        grower = LayerwiseGrower(
            shard, candidates, config, subtraction=self.subtraction
        )

        base = loss.base_scores(train.y)
        raw = np.tile(base, (train.n_instances, 1))
        self.history = []
        hooks = CallbackList([HistoryCollector(self.history), *callbacks])
        runner = PhaseRunner(hooks)  # no master/clock: pure hook dispatch
        hooks.on_fit_start(config.n_trees)

        strategy = _MulticlassStrategy(
            train=train, loss=loss, grower=grower, raw=raw, runner=runner
        )
        # The multiclass trainer historically draws feature masks from its
        # own RNG stream, kept for model reproducibility.
        groups = BoostingLoop(
            strategy, config, callbacks=hooks, rng_stream="feature_sampling_mc"
        ).run()

        tree_groups: list[list[RegressionTree]] = [
            [grown.tree for grown in group] for group in groups
        ]
        model = MulticlassModel(
            tree_groups=tree_groups,
            base_scores=base,
            n_features=train.n_features,
        )
        hooks.on_fit_end(model)
        return model
