"""One parameter-server shard (Section 4.2, "Server").

A :class:`PSServer` stores, for each registered parameter, the element
ranges the partitioner assigned to it.  Rows (e.g. one gradient histogram
per tree node, Section 4.3 "Parameter Layout") are allocated lazily on
first push and freed explicitly — the GradHist parameter would otherwise
occupy ``(2**d - 1) * 2KM`` floats even for nodes never built.

Push semantics: the default push "adds updates to the parameter"
(Section 4.3) — exactly the histogram merge.  Pull semantics: plain pull
returns the stored range; *UDF pulls* run a caller-supplied function over
the stored range server-side and return only its (small) result — the
mechanism behind two-phase split finding (Section 6.3).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import PSError
from ..sketch.candidates import CandidateSet, propose_candidates_from_sketches
from ..sketch.quantile import SketchBatch
from .partitioner import Partition
from .slab import CompressedSlab, SlabLayout, SparseSlab

#: A server-side pull function: (stored_values, partition) -> small result.
PullUDF = Callable[[np.ndarray, Partition], Any]


class PSServer:
    """A single server shard.

    Attributes:
        server_id: This shard's id within the group.
    """

    def __init__(self, server_id: int) -> None:
        self.server_id = server_id
        # name -> list of partitions this server hosts
        self._hosted: dict[str, list[Partition]] = {}
        # name -> row -> partition_id -> values
        self._rows: dict[str, dict[int, dict[int, np.ndarray]]] = {}
        # name -> row -> partition_id -> applied sequence tokens; freed
        # together with the rows they guard.
        self._applied: dict[str, dict[int, dict[int, set]]] = {}
        # name -> histogram layout, for parameters accepting sparse slabs
        self._layouts: dict[str, SlabLayout] = {}
        # name -> partition_id -> merged quantile summaries (CREATE_SKETCH state)
        self._sketches: dict[str, dict[int, SketchBatch]] = {}
        # name -> partition_id -> applied sketch-push sequence tokens
        self._sketch_applied: dict[str, dict[int, set]] = {}
        # name -> partition_id -> (max_bins, cuts proposed from the merged
        # summaries): proposed at the first candidate pull, dropped by the
        # next push into the partition.
        self._proposals: dict[str, dict[int, tuple[int, CandidateSet]]] = {}
        self.duplicate_pushes = 0

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        hosted: list[Partition],
        layout: SlabLayout | None = None,
    ) -> None:
        """Declare a parameter and the ranges this server hosts for it.

        ``layout`` marks the parameter as a per-feature histogram row and
        enables the sparse slab push path (:meth:`handle_push_slab`).
        """
        if name in self._hosted:
            raise PSError(f"parameter {name!r} already registered on server "
                          f"{self.server_id}")
        self._hosted[name] = list(hosted)
        self._rows[name] = {}
        self._applied[name] = {}
        self._sketches[name] = {}
        self._sketch_applied[name] = {}
        self._proposals[name] = {}
        if layout is not None:
            self._layouts[name] = layout

    def _partition(self, name: str, partition_id: int) -> Partition:
        try:
            hosted = self._hosted[name]
        except KeyError as exc:
            raise PSError(
                f"parameter {name!r} not registered on server {self.server_id}"
            ) from exc
        for part in hosted:
            if part.partition_id == partition_id:
                return part
        raise PSError(
            f"partition {partition_id} of {name!r} is not hosted on server "
            f"{self.server_id}"
        )

    # ------------------------------------------------------------------
    # push / pull
    # ------------------------------------------------------------------

    def handle_push(
        self,
        name: str,
        row: int,
        partition_id: int,
        values: np.ndarray,
        seq: object | None = None,
    ) -> None:
        """Apply the default additive push to one hosted range of ``row``.

        ``seq`` makes the push idempotent: a hashable token identifying
        the logical message (the engine uses ``(tree_index, worker_id)``
        — one push per worker per round per row range).  A second push
        carrying an already-applied token is counted and otherwise
        ignored, so delivery retries and injected duplicates never
        double-count a histogram.  Tokens are freed with the rows they
        guard (``clear_row`` / ``clear_parameter``), which is what scopes
        them "per round".
        """
        part = self._partition(name, partition_id)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (part.length,):
            raise PSError(
                f"push to {name!r} partition {partition_id}: expected "
                f"{part.length} values, got {values.shape}"
            )
        self._apply(name, row, partition_id, seq, values, owned=False)

    def handle_push_slab(
        self,
        name: str,
        row: int,
        partition_id: int,
        slab: SparseSlab | CompressedSlab,
        seq: object | None = None,
    ) -> None:
        """Apply a sparse slab push to one hosted range of ``row``.

        The slab speaks for the features of its stripe that fall inside
        this partition: listed features contribute their carried values,
        omitted stripe features contribute the Algorithm-2 closed form
        (``sum_g`` / ``sum_h`` folded into the zero bucket, zeros
        elsewhere), and features outside the stripe contribute nothing —
        their stripes' own slabs cover them.  The contribution is merged
        additively, so a row-sharded dense push equals the element-wise
        sum of its stripes' slab pushes, addend for addend.

        A :class:`CompressedSlab` partition decodes only its share — the
        carried features it hosts — never the whole slab; decoding is
        deterministic, so duplicate deliveries of the same compressed
        slab would reconstruct identical values even without the seq
        guard.

        ``seq`` carries the same per-round idempotency contract as
        :meth:`handle_push` (token per logical message; duplicates are
        counted and ignored; freed with the row).  A slab that
        does not fit the layout raises before anything is recorded.
        """
        layout, f_lo, f_hi = self._slab_range(name, partition_id)
        layout.check_slab(slab)
        contrib = self._materialize_slab(layout, slab, f_lo, f_hi)
        self._apply(name, row, partition_id, seq, contrib, owned=True)

    def _slab_range(
        self, name: str, partition_id: int
    ) -> tuple[SlabLayout, int, int]:
        """Resolve a slab-capable partition to its layout and feature range."""
        part = self._partition(name, partition_id)
        layout = self._layouts.get(name)
        if layout is None:
            raise PSError(
                f"parameter {name!r} has no histogram layout registered; "
                f"sparse slab pushes need one"
            )
        width = layout.feature_width
        if part.lo % width or part.hi % width:
            raise PSError(
                f"partition {partition_id} of {name!r} is not feature-aligned "
                f"(align {width}); cannot apply slabs"
            )
        return layout, part.lo // width, part.hi // width

    def _apply(
        self,
        name: str,
        row: int,
        partition_id: int,
        seq: object | None,
        values: np.ndarray,
        owned: bool,
    ) -> None:
        """Add ``values`` to one stored range unless ``seq`` was already
        applied there (a duplicate is counted and dropped).  The range's
        first push stores ``values`` itself when it is ``owned`` (made by
        the server), a copy otherwise."""
        if seq is not None:
            applied = self._applied[name].setdefault(row, {}).setdefault(
                partition_id, set()
            )
            if seq in applied:
                self.duplicate_pushes += 1
                return
            applied.add(seq)
        rows = self._rows[name].setdefault(row, {})
        stored = rows.get(partition_id)
        if stored is None:
            rows[partition_id] = values if owned else values.copy()
        else:
            stored += values

    @staticmethod
    def _materialize_slab(
        layout: SlabLayout, slab: SparseSlab | CompressedSlab, f_lo: int, f_hi: int
    ) -> np.ndarray:
        """Materialize a slab's contribution over features [f_lo, f_hi).

        Only the carried features this range hosts are read — and, for a
        compressed slab, decoded: the partition's share.
        """
        lo = max(f_lo, slab.col_lo)
        hi = min(f_hi, slab.col_hi)
        contrib = np.zeros((f_hi - f_lo) * layout.feature_width, dtype=np.float64)
        if lo < hi:
            view = contrib.reshape(f_hi - f_lo, 2, layout.n_bins)
            local = np.arange(lo - f_lo, hi - f_lo, dtype=np.int64)
            zero_bins = layout.zero_bins[lo:hi]
            view[local, 0, zero_bins] = slab.sum_g
            view[local, 1, zero_bins] = slab.sum_h
            first, last = (int(i) for i in np.searchsorted(slab.features, (lo, hi)))
            if isinstance(slab, CompressedSlab):
                values = slab.decode(layout, first, last)
            else:
                values = slab.values[first:last]
            view[slab.features[first:last] - f_lo] = values.reshape(
                last - first, 2, layout.n_bins
            )
        return contrib

    def handle_push_window(
        self,
        name: str,
        partition_id: int,
        entries: list[tuple[int, SparseSlab | CompressedSlab]],
        seq: object | None = None,
    ) -> None:
        """Apply one locally-aggregated window of slab pushes.

        ``entries`` is an ordered batch of ``(row, slab)`` deltas a
        worker folded across an aggregation window — the whole batch
        travelled as one message.  Each entry merges exactly like an
        individual :meth:`handle_push_slab` would, so windowing never
        changes stored bits.

        ``seq`` must extend the per-round token with the window index —
        ``(round, window, worker)`` — because consecutive windows of one
        worker legitimately touch the same rows: a per-round token would
        wrongly swallow the second window, while a retried delivery of
        the *same* window must still deduplicate.  Tokens are recorded
        per entry row, so :meth:`clear_row` frees them with the row and
        a post-rollback replay into a cleared row is never misread as a
        duplicate.  Every entry is checked against the layout before the
        first one is applied, so a window that raises leaves no trace.
        """
        layout, f_lo, f_hi = self._slab_range(name, partition_id)
        for _, slab in entries:
            layout.check_slab(slab)
        for row, slab in entries:
            contrib = self._materialize_slab(layout, slab, f_lo, f_hi)
            self._apply(name, row, partition_id, seq, contrib, owned=True)

    def handle_push_sketch(
        self,
        name: str,
        partition_id: int,
        frame: bytes,
        seq: object | None = None,
    ) -> None:
        """Merge one worker's sketch frame into the hosted state.

        ``frame`` is one :meth:`repro.sketch.SketchBatch.to_frame` — the
        summaries of every feature the pushing worker holds inside this
        partition's element range (one element per feature).  The whole
        range merges at once (GK merge, errors add) into the stored
        batch, feature by feature in arrival order — the left-fold order
        the driver-side merge used — so the merged result is
        bit-identical to centralizing the sketches.

        ``seq`` follows the :meth:`handle_push` idempotency contract:
        one token per logical message (the engine uses
        ``("sketch", worker_id)``), duplicates counted and ignored.
        Tokens are freed with :meth:`clear_parameter`.
        """
        part = self._partition(name, partition_id)
        # All or nothing: the frame is parsed, range-checked and merged on
        # the side before the token is recorded, so a push that raises
        # leaves no trace and its corrected retry is not taken for a
        # duplicate.
        incoming = SketchBatch.from_frame(frame)
        if len(incoming) and not (
            part.lo <= incoming.features[0] and incoming.features[-1] < part.hi
        ):
            raise PSError(
                f"sketch frame for features [{incoming.features[0]}, "
                f"{incoming.features[-1]}] pushed to partition {partition_id} "
                f"of {name!r} ([{part.lo}, {part.hi}))"
            )
        applied = self._sketch_applied[name].setdefault(partition_id, set())
        if seq in applied:
            self.duplicate_pushes += 1
            return
        stored = self._sketches[name].get(partition_id)
        merged = incoming if stored is None else stored.merge(incoming)
        if seq is not None:
            applied.add(seq)
        self._sketches[name][partition_id] = merged
        self._proposals[name].pop(partition_id, None)

    def handle_pull_candidates(
        self, name: str, partition_id: int, lo: int, hi: int, max_bins: int
    ) -> bytes:
        """Return the split candidates of features ``[lo, hi)``, as one frame.

        The pull function of PULL_SKETCH: the server turns the merged
        summaries of the whole partition into cuts
        (:func:`~repro.sketch.candidates.propose_candidates_from_sketches`)
        at the partition's first pull and keeps them, so however many
        workers pull, each partition is proposed once; only the
        :meth:`~repro.sketch.CandidateSet.to_frame` of the requested
        features crosses the wire.

        Raises:
            PSError: ``[lo, hi)`` is not inside the partition, or some
                feature of the partition has no summary.
        """
        part = self._partition(name, partition_id)
        if not part.lo <= lo <= hi <= part.hi:
            raise PSError(
                f"candidate pull of features [{lo}, {hi}) from partition "
                f"{partition_id} of {name!r} ([{part.lo}, {part.hi}))"
            )
        cached = self._proposals[name].get(partition_id)
        if cached is None or cached[0] != max_bins:
            stored = self._sketches[name].get(partition_id)
            if stored is None or len(stored) != part.length:
                raise PSError(
                    f"partition {partition_id} of {name!r} holds summaries of "
                    f"{0 if stored is None else len(stored)} of its "
                    f"{part.length} features; candidates need all of them"
                )
            cached = max_bins, propose_candidates_from_sketches(
                stored.shifted(-part.lo), max_bins
            )
            self._proposals[name][partition_id] = cached
        return cached[1].feature_range(lo - part.lo, hi - part.lo).to_frame(lo)

    def handle_pull(self, name: str, row: int, partition_id: int) -> np.ndarray:
        """Return the stored values of one hosted range of ``row``."""
        part = self._partition(name, partition_id)
        stored = self._rows[name].get(row, {}).get(partition_id)
        if stored is None:
            stored = np.zeros(part.length, dtype=np.float64)
        return stored.copy()

    def handle_pull_udf(
        self, name: str, row: int, partition_id: int, udf: PullUDF
    ) -> Any:
        """Run ``udf`` over a hosted range server-side; return its result.

        This is the customizable *pull* function of Section 6.3: "we move
        the split finding operation ... to the pull function".  Only the
        UDF's result crosses the wire, not the stored range.
        """
        part = self._partition(name, partition_id)
        stored = self._rows[name].get(row, {}).get(partition_id)
        if stored is None:
            stored = np.zeros(part.length, dtype=np.float64)
        return udf(stored, part)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def clear_row(self, name: str, row: int) -> None:
        """Free the storage of one row (e.g. a finished tree node)."""
        if name not in self._rows:
            raise PSError(
                f"parameter {name!r} not registered on server {self.server_id}"
            )
        self._rows[name].pop(row, None)
        self._applied[name].pop(row, None)

    def clear_parameter(self, name: str) -> None:
        """Free all rows of a parameter (e.g. between trees)."""
        if name not in self._rows:
            raise PSError(
                f"parameter {name!r} not registered on server {self.server_id}"
            )
        self._rows[name] = {}
        self._applied[name] = {}
        self._sketches[name] = {}
        self._sketch_applied[name] = {}
        self._proposals[name] = {}

    def stored_rows(self, name: str) -> list[int]:
        """Row ids currently materialized for ``name`` (sorted)."""
        if name not in self._rows:
            raise PSError(
                f"parameter {name!r} not registered on server {self.server_id}"
            )
        return sorted(self._rows[name])

    def memory_bytes(self) -> int:
        """Approximate bytes of parameter data held by this shard."""
        total = 0
        for rows in self._rows.values():
            for parts in rows.values():
                for values in parts.values():
                    total += values.nbytes
        return total
