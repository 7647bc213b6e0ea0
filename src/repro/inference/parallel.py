"""Process-parallel flat-ensemble scoring over shared memory.

The numpy kernels in :mod:`repro.inference.flat` hold the GIL, so real
multicore prediction needs worker *processes* over
:mod:`repro.utils.arena`: the compiled ensemble's struct-of-arrays,
the input matrix's CSR arrays, and one float64 output vector go into a
shared arena; workers attach it once, score a disjoint row span directly
into the shared output, and pickle back only the measured seconds.  The
pool's fallback ladder (input too small, no ``fork``, no shared memory,
broken pool → the serial path) is the arena module's too.

Rows are scored independently, so any span chunking produces bit-
identical output to the serial path — asserted by the tests and
``benchmarks/bench_ext_inference.py``.
"""

from __future__ import annotations

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import DataError
from ..utils.arena import ForkPoolHost, SharedArena, attach
from ..utils.timing import wall_clock
from .flat import FlatEnsemble

__all__ = ["ParallelScorer", "SharedScoreContext", "score_span"]

#: Arrays of the compiled ensemble mirrored into shared memory — the
#: exact set ``FlatEnsemble.score_into`` reads (``leaf_origin`` and the
#: raw feature ids stay behind; workers only score).
_ENSEMBLE_FIELDS = (
    "level_col",
    "level_thresh",
    "leaf_weight",
    "col_of_feature",
)

#: CSR arrays of the input matrix mirrored into shared memory.
_MATRIX_FIELDS = ("indptr", "indices", "data")


class SharedScoreContext(SharedArena):
    """One (ensemble, matrix) pair plus the output vector in shared memory.

    The arena's arrays are the ensemble fields (``ens_*``), the matrix's
    CSR arrays (``mat_*``) and ``out``, the float64 score vector workers
    write their row spans into.
    """

    def __init__(self, ensemble: FlatEnsemble, X: CSRMatrix) -> None:
        arrays = {f"ens_{name}": getattr(ensemble, name) for name in _ENSEMBLE_FIELDS}
        arrays.update((f"mat_{name}", getattr(X, name)) for name in _MATRIX_FIELDS)
        arrays["out"] = np.zeros(max(1, X.n_rows), dtype=np.float64)
        super().__init__(
            arrays,
            n_rows=X.n_rows,
            n_cols=X.n_cols,
            n_trees=ensemble.n_trees,
            n_features=ensemble.n_features,
            max_depth=ensemble.max_depth,
            n_used=ensemble.n_used,
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _worker_view(
    manifest: dict, arrays: dict[str, np.ndarray]
) -> tuple[FlatEnsemble, CSRMatrix, np.ndarray]:
    """``(ensemble, X, out)`` over a worker's attached arrays; the
    ensemble is a scoring-only shell."""
    ensemble = FlatEnsemble.__new__(FlatEnsemble)
    ensemble.n_trees = manifest["n_trees"]
    ensemble.n_features = manifest["n_features"]
    ensemble.max_depth = manifest["max_depth"]
    ensemble.n_used = manifest["n_used"]
    # A manifest that lacks a field fails here, at attach, not at the
    # first block; _bind_levels cuts the per-level views the loop reads.
    for name in _ENSEMBLE_FIELDS:
        setattr(ensemble, name, arrays[f"ens_{name}"])
    ensemble._bind_levels()
    X = CSRMatrix(
        arrays["mat_indptr"],
        arrays["mat_indices"],
        arrays["mat_data"],
        (manifest["n_rows"], manifest["n_cols"]),
    )
    return ensemble, X, arrays["out"]


def score_span(
    manifest: dict,
    start: int,
    stop: int,
    n_use: int,
    base_score: float,
    batch_rows: int | None,
) -> float:
    """Pool task: score rows ``[start, stop)`` into the shared output.

    Returns the measured seconds (the only payload pickled back).
    """
    ensemble, X, out = attach(manifest, _worker_view)
    started = wall_clock()
    ensemble.score_into(
        X,
        out,
        base_score=base_score,
        n_use=n_use,
        batch_rows=batch_rows,
        start=start,
        stop=stop,
    )
    return wall_clock() - started


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------


class ParallelScorer(ForkPoolHost):
    """Scores row spans of a compiled ensemble on a persistent fork pool.

    Args:
        ensemble: The compiled :class:`FlatEnsemble`.
        n_processes: Worker processes; the fan-out uses at most
            ``ceil(n_rows / batch_rows)`` of them per call.
        batch_rows: Row-block size workers sub-chunk their span with
            (default: the ensemble's cache-sized block).

    Attributes:
        fallback_reason: Why the pool was permanently disabled, or None.
        last_task_seconds: Measured per-span seconds of the last pooled
            call (empty until one has run).
    """

    _pool_runs = "scoring"
    _pool_fallback = "serial flat scoring"

    def __init__(
        self,
        ensemble: FlatEnsemble,
        n_processes: int,
        batch_rows: int | None = None,
    ) -> None:
        if n_processes < 1:
            raise DataError(f"n_processes must be >= 1, got {n_processes}")
        super().__init__(n_processes)
        self.ensemble = ensemble
        self.batch_rows = batch_rows
        self.last_task_seconds: tuple[float, ...] = ()

    def predict_raw(
        self,
        X: CSRMatrix,
        base_score: float = 0.0,
        n_trees: int | None = None,
    ) -> np.ndarray:
        """Raw scores, bit-identical to the serial flat path."""
        n_use = self.ensemble._n_use(n_trees)
        batch = self.ensemble._resolve_batch(self.batch_rows, max(1, X.n_rows))
        n_tasks = min(self.n_processes, -(-X.n_rows // batch)) if X.n_rows else 0
        context = self._arena_for(X, self._share) if n_tasks >= 2 else None
        seconds = None
        if context is not None:
            bounds = [(i * X.n_rows) // n_tasks for i in range(n_tasks + 1)]
            seconds = self._run(
                score_span,
                [
                    (context.manifest, lo, hi, n_use, base_score, self.batch_rows)
                    for lo, hi in zip(bounds, bounds[1:])
                ],
            )
        if seconds is None:
            return self.ensemble.predict_raw(
                X, base_score, n_trees=n_trees, batch_rows=self.batch_rows
            )
        self.last_task_seconds = tuple(seconds)
        # Copy out of the shared segment: the caller's array must outlive
        # close()/unlink.
        return context.arrays["out"][: X.n_rows].copy()

    def _share(self, X: CSRMatrix) -> SharedScoreContext:
        return SharedScoreContext(self.ensemble, X)

    def release(self, X: CSRMatrix) -> bool:
        """Unpin one matrix: unlink its shared-memory context now.

        The context cache keys by ``id(X)`` and holds a strong reference,
        which is right for the offline pattern (score the same matrix
        many times) but pins one segment set per matrix forever under
        the serving pattern (a fresh matrix per micro-batch).  Callers
        that build throwaway matrices release them after scoring.

        Returns:
            True if a context for ``X`` existed and was released.
        """
        return self._release_arena(X)

    def close(self) -> None:
        """Shut the pool down and unlink every shared-memory segment."""
        self._shutdown()

    def __enter__(self) -> "ParallelScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ParallelScorer(n_processes={self.n_processes}, "
            f"batch_rows={self.batch_rows}, "
            f"fallback_reason={self.fallback_reason!r})"
        )
