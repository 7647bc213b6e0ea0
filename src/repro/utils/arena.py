"""The one shared-memory + fork-pool seam.

Python threads cannot speed up the numpy kernels much (the GIL), so real
multicore work — flat-ensemble scoring — runs in worker *processes*.
Pickling a matrix per task would copy it per task; instead a :class:`SharedArena` places named arrays in
:mod:`multiprocessing.shared_memory` segments once, workers
:func:`attach` them once per process (cached by token), and the only
per-task pickling is a manifest plus a few scalars.

Three pieces, each written once (the client is
:class:`~repro.inference.parallel.SharedScoreContext` with
:class:`~repro.inference.parallel.ParallelScorer`):

* :class:`SharedArena` — driver side: segment creation, the manifest
  workers attach from, and the release lifecycle.  The creating process
  owns the segments; :meth:`SharedArena.close` unlinks them.
* :func:`attach` — worker side: the per-process view cache.
* :class:`ForkPoolHost` — the lazy ``fork`` pool, the arenas its tasks
  read, and the fallback ladder: a host whose pool is unusable (no
  ``fork`` start method, shared memory unavailable, a broken pool) warns
  once and tells its subclass to take the serial path from then on.
"""

from __future__ import annotations

import multiprocessing
import uuid
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Any, Callable, Iterable, Mapping

import numpy as np

__all__ = ["SHM_PREFIX", "ForkPoolHost", "SharedArena", "attach"]

#: Prefix of every shared-memory segment this module creates; tests scan
#: /dev/shm for it to prove segments are released.
SHM_PREFIX = "repro_shm_"


class SharedArena:
    """Named arrays copied into shared-memory segments.

    Args:
        arrays: ``name -> array``; each is copied into its own segment
            once (the source is not retained).
        **meta: Picklable scalars workers need to rebuild their view;
            they ride in the manifest next to the array table.

    Attributes:
        token: Unique segment-name prefix (``repro_shm_...``).
        arrays: ``name -> ndarray`` views over the segments (emptied by
            :meth:`close`).
        manifest: Picklable description workers :func:`attach` from:
            ``{"token", **meta, "arrays": {name: (segment, shape, dtype)}}``.
    """

    def __init__(self, arrays: Mapping[str, np.ndarray], **meta: Any) -> None:
        self.token = SHM_PREFIX + uuid.uuid4().hex[:16]  # reprolint: disable=RP001 -- segment *names* must be unique per process, never replayed; no numeric state derives from them
        self._segments: list[shared_memory.SharedMemory] = []
        self.arrays: dict[str, np.ndarray] = {}
        self.manifest: dict = {"token": self.token, **meta, "arrays": {}}
        try:
            for name, source in arrays.items():
                self._add(name, np.ascontiguousarray(source))
        except BaseException:
            self.close()
            raise

    def _add(self, name: str, source: np.ndarray) -> None:
        """Create one segment holding a copy of ``source``."""
        segment_name = f"{self.token}_{name}"
        shm = shared_memory.SharedMemory(
            name=segment_name,
            create=True,
            size=max(1, source.nbytes),  # zero-byte segments are invalid
        )
        self._segments.append(shm)
        array = np.ndarray(source.shape, dtype=source.dtype, buffer=shm.buf)
        np.copyto(array, source)
        self.arrays[name] = array
        self.manifest["arrays"][name] = (
            segment_name,
            source.shape,
            source.dtype.str,
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held in shared memory."""
        return sum(seg.size for seg in self._segments)

    def close(self) -> None:
        """Release every segment (idempotent, also run by ``__del__``)."""
        # The views go first: a segment with exported buffers cannot close.
        self.arrays.clear()
        segments, self._segments = self._segments, []
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedArena":
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
            f"{type(self).__name__}(token={self.token!r}, "
            f"arrays={sorted(self.arrays)}, nbytes={self.nbytes})"
        )


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    On CPython < 3.13 attaching registers the segment with the resource
    tracker even though the attaching process does not own it.  Use
    ``track=False`` where available.  On older versions the plain attach
    is safe *for fork-context workers* (the only kind this module
    spawns): they share the parent's tracker, where the duplicate
    registration dedups to a no-op and the parent's ``unlink`` sends the
    single matching unregister.  (An extra ``unregister`` here would
    steal that registration and make the shared tracker complain at
    exit.)
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        return shared_memory.SharedMemory(name=name)


#: Per-process cache of attached views, keyed by arena token: ``(view,
#: segments)``, the segments riding along so they outlive the arrays
#: viewing them.  Entries live until the worker process exits; segments a
#: worker holds open keep their memory alive even after the parent
#: unlinks them, so a stale entry is memory held, never a crash.
# Fork-safe by design: only worker tasks populate it, so it is empty in
# the parent at fork time and each child grows its own private copy.
_WORKER_VIEWS: dict[str, tuple[Any, list]] = {}  # reprolint: disable=RP004


def attach(
    manifest: dict, build: Callable[[dict, dict[str, np.ndarray]], Any]
) -> Any:
    """A worker's view of the arena ``manifest`` describes.

    The first call per process and token attaches every segment and
    keeps ``build(manifest, arrays)`` — the client's view object over
    the attached arrays; later calls return that same object.
    """
    entry = _WORKER_VIEWS.get(manifest["token"])
    if entry is None:
        segments = []
        arrays: dict[str, np.ndarray] = {}
        for name, (segment_name, shape, dtype) in manifest["arrays"].items():
            shm = _attach_segment(segment_name)
            segments.append(shm)
            arrays[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        entry = _WORKER_VIEWS[manifest["token"]] = (build(manifest, arrays), segments)
    return entry[0]


# ----------------------------------------------------------------------
# driver side: the pool
# ----------------------------------------------------------------------


class ForkPoolHost:
    """A persistent ``fork`` pool plus the arenas its tasks read.

    Subclasses call :meth:`_arena_for` / :meth:`_run`; either returns
    ``None`` once the pool is unusable, which is the subclass's cue to
    take its serial path.  The pool is created lazily, so a host that
    only ever sees inputs too small to fan out never forks.

    Attributes:
        n_processes: Worker processes.
        fallback_reason: Why the pool was permanently disabled, or None.
    """

    #: What the pool runs and what replaces it, for the fallback warning.
    _pool_runs = "work"
    _pool_fallback = "the serial path"

    def __init__(self, n_processes: int) -> None:
        self.n_processes = n_processes
        self._executor: ProcessPoolExecutor | None = None
        #: id(key) -> (key, arena).  The strong reference pins the id, so
        #: the cache can never alias a freed object.
        self._arenas: dict[int, tuple[Any, SharedArena]] = {}
        self.fallback_reason: str | None = None

    def _ensure_executor(self) -> bool:
        if self._executor is not None:
            return True
        if self.fallback_reason is not None:
            return False
        # fork is required so workers exist cheaply and there is nothing
        # to re-import; on spawn-only platforms the host stays serial.
        if "fork" not in multiprocessing.get_all_start_methods():
            self._disable("fork start method unavailable")
            return False
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_processes,
                mp_context=multiprocessing.get_context("fork"),
            )
        except OSError as exc:  # pragma: no cover - resource exhaustion
            self._disable(f"could not start process pool ({exc})")
            return False
        return True

    def _arena_for(
        self, key: Any, create: Callable[[Any], SharedArena]
    ) -> SharedArena | None:
        """The arena mirroring ``key``, created on first use.

        Returns None — with the pool disabled — when the pool cannot
        start or shared memory is unavailable.
        """
        if not self._ensure_executor():
            return None
        entry = self._arenas.get(id(key))
        if entry is None:
            try:
                entry = (key, create(key))
            except (OSError, ValueError) as exc:
                self._disable(f"shared memory unavailable ({exc})")
                return None
            self._arenas[id(key)] = entry
        return entry[1]

    def _run(self, task: Callable, calls: Iterable[tuple]) -> list | None:
        """``task(*args)`` per entry of ``calls`` on the pool, in order.

        ``task`` must be a module-level function (it is pickled by
        import path).  Returns None — with the pool disabled — when the
        pool broke; a task's own exception propagates.
        """
        assert self._executor is not None  # _arena_for() built it
        try:
            futures = [self._executor.submit(task, *args) for args in calls]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            self._disable("process pool broke")
            return None

    def _release_arena(self, key: Any) -> bool:
        """Unlink ``key``'s arena now; whether one existed."""
        entry = self._arenas.pop(id(key), None)
        if entry is None:
            return False
        entry[1].close()
        return True

    def _disable(self, reason: str) -> None:
        self.fallback_reason = reason
        warnings.warn(
            f"process-parallel {self._pool_runs} disabled: {reason}; "
            f"falling back to {self._pool_fallback}",
            RuntimeWarning,
            stacklevel=4,
        )
        self._shutdown()

    def _shutdown(self) -> None:
        """Stop the pool, then unlink every arena — in that order, so no
        task is still running against a segment when it goes away."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for _, arena in self._arenas.values():
            arena.close()
        self._arenas.clear()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._shutdown()
        except Exception:
            pass
