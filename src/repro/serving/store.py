"""Versioned model store with atomic hot-swap.

The store owns every model the runtime serves.  :meth:`ModelStore.load`
does all the heavy lifting on a *private* object — JSON parse, tree
reconstruction, flat-ensemble compilation — and publishes the finished
:class:`ModelVersion` with a single attribute assignment.  That
assignment is the swap: a pointer flip the GIL makes atomic, so a reader
can only ever observe the complete old version or the complete new one,
never a half-loaded model.  There is no lock anywhere near scoring; the
batch loop reads :meth:`ModelStore.current` once per flush and scores
the whole batch on that object, so in-flight batches simply finish on
the version they started with.

A failed load (missing file, corrupt JSON, wrong schema) raises before
the flip — the previously served version keeps serving.

A version holds nothing but memory, so a replaced one is not retired
explicitly: the flush that still holds its pointer keeps it alive, and
the garbage collector frees it when that flush returns.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from ..boosting.losses import get_loss
from ..boosting.model import GBDTModel
from ..datasets.sparse import CSRMatrix
from ..errors import ReproError, ServingError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..inference.flat import FlatEnsemble

__all__ = ["ModelStore", "ModelVersion"]


class ModelVersion:
    """One immutable, fully compiled, servable model.

    Everything scoring needs hangs off this object — the compiled
    :class:`FlatEnsemble`, the loss transform — so holding the pointer
    is holding a consistent model.

    Attributes:
        version: Monotonically increasing swap counter (first load = 1).
        path: Artifact path the version was loaded from.
        model: The deserialized :class:`GBDTModel`.
        flat: Its compiled flat ensemble (compiled before publication).
    """

    def __init__(self, version: int, path: str, model: GBDTModel) -> None:
        self.version = version
        self.path = path
        self.model = model
        self.flat: "FlatEnsemble" = model.compiled()
        self.n_features = model.n_features
        self.base_score = model.base_score
        self._transform = get_loss(model.loss_name).transform

    def predict_raw(self, X: CSRMatrix) -> np.ndarray:
        """Raw margin scores for one micro-batch."""
        return self.flat.predict_raw(X, base_score=self.base_score)

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """The model's output transform (sigmoid for logistic, etc.)."""
        return self._transform(raw)

    def __repr__(self) -> str:
        return (
            f"ModelVersion(version={self.version}, path={self.path!r}, "
            f"n_trees={self.model.n_trees}, n_features={self.n_features})"
        )


class ModelStore:
    """Loads FINISH artifacts and hot-swaps them atomically."""

    def __init__(self) -> None:
        self._current: ModelVersion | None = None
        # Serializes *writers* only (concurrent load() calls racing the
        # version counter).  Readers never take it: current() is a bare
        # attribute read, so no lock is ever held across scoring.
        self._swap_lock = threading.Lock()
        self._next_version = 1

    def load(self, path: str) -> ModelVersion:
        """Load, compile, and atomically publish one model artifact.

        Blocking and heavy (JSON parse + compile) — the runtime calls it
        in an executor so the event loop keeps serving the old version
        throughout.  Any failure raises before publication.
        """
        try:
            model = GBDTModel.load(path)
        except ReproError:
            raise
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Missing file, corrupt JSON, wrong schema: surface one
            # serving-typed error so front ends answer it explicitly
            # instead of dropping the connection.
            raise ServingError(
                f"failed to load artifact {path!r}: {exc}"
            ) from exc
        if not model.trees:
            raise ServingError(f"artifact {path!r} contains no trees")
        with self._swap_lock:
            version = ModelVersion(self._next_version, str(path), model)
            self._next_version += 1
            # The swap: one atomic pointer flip, nothing half-loaded is
            # ever reachable from current().
            self._current = version
        return version

    def current(self) -> ModelVersion:
        """The served version (lock-free pointer read)."""
        version = self._current
        if version is None:
            raise ServingError("no model loaded; call ModelStore.load first")
        return version

    @property
    def loaded(self) -> bool:
        """Whether a version has been published."""
        return self._current is not None

    def close(self) -> None:
        """Drop the served version (idempotent)."""
        with self._swap_lock:
            self._current = None

    def __enter__(self) -> "ModelStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        current = self._current
        label = f"v{current.version}" if current is not None else "empty"
        return f"ModelStore({label})"
