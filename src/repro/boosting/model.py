"""The trained GBDT model: prediction and (de)serialization.

Equation (1): ``yhat_i = sum_t eta * f_t(x_i)`` — the shrinkage ``eta``
is already folded into each tree's leaf weights at training time, so
prediction is the base score plus the plain sum of tree outputs.

Prediction runs on the compiled flat ensemble
(:class:`~repro.inference.flat.FlatEnsemble`): the trees are stacked
into contiguous struct-of-arrays once (lazily, cached on the model) and
scored in row blocks across all trees simultaneously.  The tree-at-a-
time loop survives as :meth:`GBDTModel.predict_raw_per_tree`, the
reference oracle the compiled path is asserted bit-identical against.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import DataError, NotFittedError
from ..inference.flat import FlatEnsemble
from .losses import get_loss
from ..tree.tree import RegressionTree, artifact_field

#: The ``"version"`` every model artifact is written with — and the only
#: one the loaders read.
ARTIFACT_VERSION = 1


def read_artifact(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Parse a model JSON file, rejecting versions this build cannot read.

    A file without a ``"version"`` key predates the check and reads as
    version 1.  (The ``format`` tag is each model class's to check.)
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    version = payload.get("version", 1) if isinstance(payload, dict) else None
    if version != ARTIFACT_VERSION:
        raise DataError(
            f"{os.fspath(path)}: unsupported model artifact version "
            f"{version!r} (this build reads version {ARTIFACT_VERSION})"
        )
    return payload


def artifact_header(payload: Any, expected_format: str) -> int:
    """Check a parsed artifact's ``format`` tag; return its ``n_features``."""
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != expected_format:
        raise DataError(f"unrecognized model format {found!r}")
    n_features = artifact_field(payload, "n_features", int, "model")
    if n_features < 0:
        raise DataError(f"model.n_features: {n_features} is negative")
    return n_features


class GBDTModel:
    """An ensemble of regression trees plus prediction metadata.

    Attributes:
        trees: The fitted trees, in boosting order.
        base_score: Constant added to every raw prediction.
        loss_name: Which loss the model was trained with (decides the
            output transform: sigmoid for logistic, identity for squared).
        n_features: Dimensionality the model was trained on.
    """

    def __init__(
        self,
        trees: list[RegressionTree],
        base_score: float,
        loss_name: str,
        n_features: int,
    ) -> None:
        self.trees = list(trees)
        self.base_score = float(base_score)
        self.loss_name = loss_name
        self.n_features = int(n_features)
        self._loss = get_loss(loss_name)
        self._flat: "FlatEnsemble | None" = None

    @property
    def n_trees(self) -> int:
        """Number of boosting rounds T."""
        return len(self.trees)

    def _check_fitted(self) -> None:
        if not self.trees:
            raise NotFittedError("model has no trees")

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def compiled(self) -> "FlatEnsemble":
        """The flat struct-of-arrays form of this ensemble, compiled once.

        Cached on the model; recompiled if the tree count changes (e.g.
        trees appended after a first predict).  Mutating a tree's arrays
        *in place* after compiling is not supported.
        """
        self._check_fitted()
        flat = self._flat
        if flat is None or flat.n_trees != len(self.trees):
            flat = FlatEnsemble(self.trees, self.n_features)
            self._flat = flat
        return flat

    def predict_raw(
        self,
        X: CSRMatrix,
        n_trees: int | None = None,
        batch_rows: int | None = None,
        n_processes: int = 1,
    ) -> np.ndarray:
        """Raw margin scores, optionally truncated to the first trees.

        Scores on the compiled flat ensemble — bit-identical to
        :meth:`predict_raw_per_tree` for every ``batch_rows`` /
        ``n_processes`` setting.
        """
        self._check_fitted()
        if X.n_cols > self.n_features:
            raise DataError(
                f"input has {X.n_cols} features, model was trained on "
                f"{self.n_features}"
            )
        return self.compiled().predict_raw(
            X,
            base_score=self.base_score,
            n_trees=n_trees,
            batch_rows=batch_rows,
            n_processes=n_processes,
        )

    def predict_raw_per_tree(
        self, X: CSRMatrix, n_trees: int | None = None
    ) -> np.ndarray:
        """Reference oracle: the original tree-at-a-time scoring loop."""
        self._check_fitted()
        if X.n_cols > self.n_features:
            raise DataError(
                f"input has {X.n_cols} features, model was trained on "
                f"{self.n_features}"
            )
        use = self.trees if n_trees is None else self.trees[:n_trees]
        raw = np.full(X.n_rows, self.base_score, dtype=np.float64)
        for tree in use:
            raw += tree.predict(X)
        return raw

    def predict(
        self,
        X: CSRMatrix,
        batch_rows: int | None = None,
        n_processes: int = 1,
    ) -> np.ndarray:
        """Transformed predictions: probabilities (logistic) or values."""
        return self._loss.transform(
            self.predict_raw(X, batch_rows=batch_rows, n_processes=n_processes)
        )

    def predict_labels(
        self,
        X: CSRMatrix,
        threshold: float = 0.5,
        batch_rows: int | None = None,
        n_processes: int = 1,
    ) -> np.ndarray:
        """Hard 0/1 labels for classification models."""
        if self.loss_name != "logistic":
            raise DataError("predict_labels requires a logistic-loss model")
        scores = self.predict(X, batch_rows=batch_rows, n_processes=n_processes)
        return (scores >= threshold).astype(np.float32)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready structure (the FINISH phase's model output)."""
        return {
            "format": "repro-dimboost-gbdt",
            "version": ARTIFACT_VERSION,
            "base_score": self.base_score,
            "loss": self.loss_name,
            "n_features": self.n_features,
            "trees": [tree.to_dict() for tree in self.trees],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "GBDTModel":
        """Inverse of :meth:`to_dict`, total over hostile input.

        Raises:
            DataError: Naming the offending field (``base_score``,
                ``trees[3].nodes[5].weight``, ...) for any payload
                :meth:`to_dict` could not have written — see
                :meth:`RegressionTree.from_dict` for the per-tree cases.
        """
        n_features = artifact_header(payload, "repro-dimboost-gbdt")
        return cls(
            trees=[
                RegressionTree.from_dict(tree, n_features, f"model.trees[{t}]")
                for t, tree in enumerate(
                    artifact_field(payload, "trees", list, "model")
                )
            ],
            base_score=artifact_field(payload, "base_score", float, "model"),
            loss_name=artifact_field(payload, "loss", str, "model"),
            n_features=n_features,
        )

    def save(self, path: str | os.PathLike[str]) -> None:
        """Write the model as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "GBDTModel":
        """Read a model written by :meth:`save`.

        Raises:
            DataError: For an unrecognized ``format`` or a ``version``
                this build does not read.
        """
        return cls.from_dict(read_artifact(path))

    def __repr__(self) -> str:
        return (
            f"GBDTModel(n_trees={self.n_trees}, loss={self.loss_name!r}, "
            f"n_features={self.n_features})"
        )
