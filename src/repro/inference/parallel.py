"""Process-parallel flat-ensemble scoring over shared memory.

The numpy kernels in :mod:`repro.inference.flat` hold the GIL, so real
multicore prediction needs worker *processes*.  Pickling a matrix per
task would copy it per task; instead :class:`ParallelScorer` copies the
compiled ensemble's struct-of-arrays, the input matrix's CSR arrays and
one float64 output vector into :mod:`multiprocessing.shared_memory`
segments once, and the only per-task pickling is a manifest plus a few
scalars.  Workers attach the segments once per context (one cached
entry per process) and score a disjoint row span directly into the
shared output.

The scorer keeps one shared context, for the last matrix it scored:
scoring that matrix again reuses it, scoring another unlinks it first.
When the pool is unusable — no ``fork`` start method, shared memory
unavailable, a broken pool — it warns once and scores serially from
then on.  Rows are scored independently, so any span chunking produces
bit-identical output to the serial path — asserted by the tests and
``benchmarks/bench_ext_inference.py``.
"""

from __future__ import annotations

import multiprocessing
import uuid
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from ..datasets.sparse import CSRMatrix
from ..errors import DataError
from .flat import FlatEnsemble

__all__ = ["SHM_PREFIX", "ParallelScorer", "score_span"]

#: Prefix of every shared-memory segment this module creates; tests scan
#: /dev/shm for it to prove segments are released.
SHM_PREFIX = "repro_shm_"

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


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: The worker's one attached context, ``{token: ((ensemble, X, out),
#: segments)}``; the segments ride along so they outlive the arrays
#: viewing them.  A new token evicts the old entry, so a worker never
#: keeps a context's memory alive past the next context it scores.
# Fork-safe by design: only worker tasks populate it, so it is empty in
# the parent at fork time and each child grows its own private copy.
_WORKER_VIEW: dict[str, tuple[tuple, list]] = {}  # reprolint: disable=RP004


def _attach(manifest: dict) -> tuple[FlatEnsemble, CSRMatrix, np.ndarray]:
    """``(ensemble, X, out)`` over the segments ``manifest`` names.

    The first call per process and token attaches every segment, after
    dropping the previous token's view and closing its segments; later
    calls return the cached view.  The ensemble is a scoring-only shell.
    """
    token = manifest["token"]
    entry = _WORKER_VIEW.get(token)
    if entry is not None:
        return entry[0]
    for stale in list(_WORKER_VIEW):
        old_view, old_segments = _WORKER_VIEW.pop(stale)
        del old_view  # views first: a segment with exported buffers cannot close
        for seg in old_segments:
            seg.close()
    segments: list[shared_memory.SharedMemory] = []
    arrays: dict[str, np.ndarray] = {}
    for name, (segment_name, shape, dtype) in manifest["arrays"].items():
        # Attach without resource-tracker ownership.  Python < 3.13 has
        # no ``track``; there the plain attach is safe for fork-context
        # workers (the only kind this module spawns): they share the
        # parent's tracker, where the duplicate registration dedups and
        # the parent's ``unlink`` sends the one matching unregister.
        try:
            shm = shared_memory.SharedMemory(name=segment_name, track=False)
        except TypeError:
            shm = shared_memory.SharedMemory(name=segment_name)
        segments.append(shm)
        arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
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
    view = (ensemble, X, arrays["out"])
    _WORKER_VIEW[token] = (view, segments)
    return view


def score_span(
    manifest: dict,
    start: int,
    stop: int,
    n_use: int,
    base_score: float,
    batch_rows: int | None,
) -> None:
    """Pool task: score rows ``[start, stop)`` into the shared output."""
    ensemble, X, out = _attach(manifest)
    ensemble.score_into(
        X,
        out,
        base_score=base_score,
        n_use=n_use,
        batch_rows=batch_rows,
        start=start,
        stop=stop,
    )


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------


class ParallelScorer:
    """Scores row spans of a compiled ensemble on a persistent fork pool.

    The pool is created lazily, so a scorer that only ever sees inputs
    too small to fan out never forks.  :meth:`close` (or leaving the
    ``with`` block) shuts the pool down, then unlinks the shared context.

    Args:
        ensemble: The compiled :class:`FlatEnsemble`.
        n_processes: Worker processes; the fan-out uses at most
            ``ceil(n_rows / batch_rows)`` of them per call.
        batch_rows: Row-block size workers sub-chunk their span with
            (default: the ensemble's cache-sized block).

    Attributes:
        fallback_reason: Why the pool was permanently disabled, or None.
    """

    def __init__(
        self,
        ensemble: FlatEnsemble,
        n_processes: int,
        batch_rows: int | None = None,
    ) -> None:
        if n_processes < 1:
            raise DataError(f"n_processes must be >= 1, got {n_processes}")
        self.ensemble = ensemble
        self.n_processes = n_processes
        self.batch_rows = batch_rows
        self.fallback_reason: str | None = None
        self._executor: ProcessPoolExecutor | None = None
        #: ``(X, manifest, out)`` of the one shared context, or None.  The
        #: strong reference to ``X`` keeps the identity check sound.
        self._context: tuple[CSRMatrix, dict, np.ndarray] | None = None
        self._segments: list[shared_memory.SharedMemory] = []

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
        manifest = self._context_for(X) if n_tasks >= 2 else None
        if manifest is not None:
            bounds = [(i * X.n_rows) // n_tasks for i in range(n_tasks + 1)]
            calls = [
                (manifest, lo, hi, n_use, base_score, self.batch_rows)
                for lo, hi in zip(bounds, bounds[1:])
            ]
            if self._run(calls):
                assert self._context is not None
                # Copy out of the shared segment: the caller's array must
                # outlive the context.
                return self._context[2][: X.n_rows].copy()
        return self.ensemble.predict_raw(
            X, base_score, n_trees=n_trees, batch_rows=self.batch_rows
        )

    def _context_for(self, X: CSRMatrix) -> dict | None:
        """The manifest of ``X``'s shared context, starting the pool and
        replacing the previous matrix's context as needed.

        Returns None — with the pool disabled — when the pool cannot
        start or shared memory is unavailable.
        """
        if self.fallback_reason is not None:
            return None
        if self._executor is None:
            # fork is required so workers exist cheaply and there is
            # nothing to re-import; on spawn-only platforms stay serial.
            if "fork" not in multiprocessing.get_all_start_methods():
                self._disable("fork start method unavailable")
                return None
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_processes,
                    mp_context=multiprocessing.get_context("fork"),
                )
            except OSError as exc:  # pragma: no cover - resource exhaustion
                self._disable(f"could not start process pool ({exc})")
                return None
        if self._context is None or self._context[0] is not X:
            try:
                self._share(X)
            except (OSError, ValueError) as exc:
                self._disable(f"shared memory unavailable ({exc})")
                return None
        assert self._context is not None
        return self._context[1]

    def _share(self, X: CSRMatrix) -> None:
        """Unlink the current context, then copy the ensemble, ``X`` and a
        zeroed output vector into one fresh segment per array.

        A failure part-way unlinks the segments already created.
        """
        self._unlink_context()
        token = SHM_PREFIX + uuid.uuid4().hex[:16]  # reprolint: disable=RP001 -- segment *names* must be unique per process, never replayed; no numeric state derives from them
        arrays = {f"ens_{n}": getattr(self.ensemble, n) for n in _ENSEMBLE_FIELDS}
        arrays.update((f"mat_{name}", getattr(X, name)) for name in _MATRIX_FIELDS)
        arrays["out"] = np.zeros(max(1, X.n_rows), dtype=np.float64)
        manifest: dict = {
            "token": token,
            "n_rows": X.n_rows,
            "n_cols": X.n_cols,
            "n_trees": self.ensemble.n_trees,
            "n_features": self.ensemble.n_features,
            "max_depth": self.ensemble.max_depth,
            "n_used": self.ensemble.n_used,
            "arrays": {},
        }
        try:
            for name, array in arrays.items():
                source = np.ascontiguousarray(array)
                segment_name = f"{token}_{name}"
                shm = shared_memory.SharedMemory(
                    name=segment_name,
                    create=True,
                    size=max(1, source.nbytes),  # zero-byte segments are invalid
                )
                self._segments.append(shm)
                np.copyto(
                    np.ndarray(source.shape, source.dtype, buffer=shm.buf), source
                )
                manifest["arrays"][name] = (
                    segment_name,
                    source.shape,
                    source.dtype.str,
                )
        except BaseException:
            self._unlink_context()
            raise
        out = np.ndarray(  # "out" went in last
            arrays["out"].shape, np.float64, buffer=self._segments[-1].buf
        )
        self._context = (X, manifest, out)

    def _run(self, calls: list[tuple]) -> bool:
        """:func:`score_span` per entry of ``calls`` on the pool.

        Returns False — with the pool disabled — when the pool broke; a
        task's own exception propagates.
        """
        assert self._executor is not None  # _context_for() built it
        try:
            futures = [self._executor.submit(score_span, *args) for args in calls]
            for future in futures:
                future.result()
        except BrokenProcessPool:
            self._disable("process pool broke")
            return False
        return True

    def _disable(self, reason: str) -> None:
        self.fallback_reason = reason
        warnings.warn(
            f"process-parallel scoring disabled: {reason}; "
            "falling back to serial flat scoring",
            RuntimeWarning,
            stacklevel=4,
        )
        self.close()

    def _unlink_context(self) -> None:
        """Release the shared context's segments (idempotent)."""
        # The views go first: a segment with exported buffers cannot close.
        self._context = None
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def close(self) -> None:
        """Stop the pool, then unlink the shared context — in that order,
        so no task is still running against a segment when it goes away."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._unlink_context()

    def __enter__(self) -> "ParallelScorer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ParallelScorer(n_processes={self.n_processes}, "
            f"batch_rows={self.batch_rows}, "
            f"fallback_reason={self.fallback_reason!r})"
        )
