"""Client-facing ensemble of parameter-server shards.

A :class:`ParameterServerGroup` owns ``p`` :class:`PSServer` shards and a
:class:`VectorPartitioner` per registered parameter.  Workers interact
only with the group: it splits a pushed row into per-range slices, routes
them to the hosting servers (decoding low-precision payloads server-side
before the additive merge), gathers pulls, and dispatches pull UDFs.

Every call returns a :class:`TransferStats`: the one count of the bytes
and messages a PS interaction put on the wire, which trainers bill to
the simulated clock (the servers count nothing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cluster.costmodel import CostParams
from ..compression.lowprec import compress_blocked, decompress_blocked
from ..errors import PSError
from ..sketch.candidates import CandidateSet
from ..sketch.quantile import SketchBatch
from .partitioner import Partition, VectorPartitioner
from .server import PSServer, PullUDF
from .slab import CompressedSlab, SlabLayout, SparseSlab

#: Header bytes of a lossy row slice: the delta's sum_g / sum_h.
ROW_SUMS_BYTES = 8


@dataclass
class TransferStats:
    """Wire accounting of one PS interaction.

    Attributes:
        bytes_up: Bytes sent from the caller to servers.
        bytes_down: Bytes sent from servers to the caller.
        messages: Point-to-point messages involved.
    """

    bytes_up: int = 0
    bytes_down: int = 0
    messages: int = 0

    def seconds(self, cost: CostParams) -> float:
        """The alpha-beta bill of the interaction: ``messages * alpha +
        (bytes_up + bytes_down) * beta``."""
        wire = self.bytes_up + self.bytes_down
        return self.messages * cost.alpha + wire * cost.beta


class ParameterServerGroup:
    """The ``p`` servers of Figure 4 behind one facade.

    Args:
        n_servers: Number of shards p.
        fabric: Optional delivery fabric (``chaos.FaultyFabric``).  When
            set, every per-partition message goes through
            ``fabric.deliver`` — which may drop, duplicate, delay, or
            crash it per the active fault plan — and pushes must carry a
            ``seq`` token so retried deliveries stay idempotent.
    """

    def __init__(self, n_servers: int, fabric=None) -> None:
        if n_servers < 1:
            raise PSError(f"n_servers must be >= 1, got {n_servers}")
        self.servers = [PSServer(sid) for sid in range(n_servers)]
        self._partitioners: dict[str, VectorPartitioner] = {}
        self._layouts: dict[str, SlabLayout] = {}
        self.fabric = fabric

    def _deliver(self, point, send, *, server, worker, payload_bytes):
        if self.fabric is None:
            return send()
        return self.fabric.deliver(
            point, send, server=server, worker=worker, payload_bytes=payload_bytes
        )

    def _require_seq(self, op: str, seq: object | None) -> None:
        """A push under a fault fabric must carry its idempotence token."""
        if self.fabric is not None and seq is None:
            raise PSError(
                f"{op} without a seq token while a fault fabric is "
                "attached: retried pushes would double-count"
            )

    def _push(self, stats, send, server, worker, payload_bytes) -> None:
        """Deliver one push message and account it in ``stats``."""
        self._deliver(
            "push", send, server=server, worker=worker, payload_bytes=payload_bytes
        )
        stats.bytes_up += payload_bytes
        stats.messages += 1

    @property
    def n_servers(self) -> int:
        """Number of shards."""
        return len(self.servers)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register(
        self,
        name: str,
        row_length: int,
        n_partitions: int | None = None,
        align: int = 1,
        layout: SlabLayout | None = None,
    ) -> VectorPartitioner:
        """Register a (row-organized) parameter of ``row_length`` elements.

        ``align`` forces range boundaries onto multiples of that many
        elements (e.g. ``2 * n_bins`` so whole features stay on one
        server).  ``layout`` declares the row a per-feature histogram and
        enables the sparse slab push path (:meth:`push_slab`); it implies
        feature-aligned ranges.  Returns the partitioner so callers can
        map ranges.
        """
        if name in self._partitioners:
            raise PSError(f"parameter {name!r} already registered")
        if layout is not None:
            if layout.row_length != row_length:
                raise PSError(
                    f"layout row length {layout.row_length} does not match "
                    f"registered length {row_length}"
                )
            if align % layout.feature_width != 0:
                raise PSError(
                    f"slab layout needs feature-aligned ranges: align "
                    f"{align} is not a multiple of {layout.feature_width}"
                )
        partitioner = VectorPartitioner(
            row_length, self.n_servers, n_partitions, align=align
        )
        self._partitioners[name] = partitioner
        if layout is not None:
            self._layouts[name] = layout
        for server in self.servers:
            hosted = partitioner.partitions_on_server(server.server_id)
            server.register(name, hosted, layout=layout)
        return partitioner

    def partitioner(self, name: str) -> VectorPartitioner:
        """The partitioner of a registered parameter."""
        try:
            return self._partitioners[name]
        except KeyError as exc:
            raise PSError(f"parameter {name!r} not registered") from exc

    def _layout(self, name: str) -> SlabLayout:
        """The histogram layout ``name`` was registered with."""
        layout = self._layouts.get(name)
        if layout is None:
            raise PSError(
                f"parameter {name!r} was registered without a slab layout"
            )
        return layout

    # ------------------------------------------------------------------
    # push / pull
    # ------------------------------------------------------------------

    def encode_row(
        self,
        name: str,
        flat: np.ndarray,
        compression_bits: int = 0,
        rng: np.random.Generator | None = None,
        *,
        sums: tuple[float, float] | None = None,
    ) -> list[tuple[Partition, np.ndarray, int]]:
        """Slice a dense row by range and run each slice through the codec.

        The one place a dense row meets the lossy codec.  Returns, in
        partition order, ``(partition, values, wire_bytes)``: the floats
        the hosting server will add (the *decoded* slice when
        ``compression_bits > 0``, so the stored parameter accumulates
        the unbiased decoded values) and the bytes that slice costs on
        the wire.  Both dense deliveries encode here, once per delta:
        :meth:`push_row` sends the slices at once, and a windowed push
        (``agg_window > 1``) buffers the returned pieces for
        :meth:`push_window_rows`.

        A lossy slice travels like a slab share: a header with the
        delta's exact node sums ``sums = (sum_g, sum_h)`` — the floats
        the builder folded into every zero bucket, O(N) mass that would
        set every hessian scale — and the residual with that fold
        subtracted, behind a presence bitmap, one bit per feature of the
        registered :class:`SlabLayout`.  Only the features with a
        nonzero residual are encoded — by ``compress_blocked`` over
        them, compacted in feature order, one fixed-point scale per
        ``n_bins`` values (Section 6.1's "the maximal absolute value in
        the histogram") — so the stochastic-rounding stream ``rng`` is
        drawn for present features only, in partition order.  Decoding
        adds the sums back into every feature's zero buckets, so the
        server stores the folded histogram, and a feature the node never
        touched decodes to exactly its closed form.  A slice of ``F``
        features is billed the frame's payload (dense or zero-level
        bitmap form, whichever is smaller:
        :meth:`~repro.compression.lowprec.BlockCompressedHistogram.payload_bytes`)
        + present scales + ``ceil(F / 8)`` bitmap bytes + the 8 header
        bytes.

        Raises:
            PSError: wrong row length, a lossy encode without ``rng`` or
                ``sums``, or a lossy encode of a parameter registered
                without a layout (it has no scale block).
        """
        partitioner = self.partitioner(name)
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (partitioner.length,):
            raise PSError(
                f"push_row to {name!r}: expected {partitioner.length} values, "
                f"got {flat.shape}"
            )
        if not compression_bits:
            return [
                (part, flat[part.lo : part.hi], part.length * 4)
                for part in partitioner.partitions
            ]
        if rng is None:
            raise PSError("compression requires an rng for stochastic rounding")
        if sums is None:
            raise PSError("compression requires the delta's exact node sums")
        layout = self._layout(name)
        width = layout.feature_width
        pieces: list[tuple[Partition, np.ndarray, int]] = []
        for part in partitioner.partitions:
            features = slice(part.lo // width, part.hi // width)
            residual = flat[part.lo : part.hi].reshape(-1, width).copy()
            layout.fold_sums(residual, features, *sums, sign=-1.0)
            present = np.flatnonzero((residual != 0.0).any(axis=1))
            blocked = compress_blocked(
                residual[present].ravel(), layout.n_bins, compression_bits, rng
            )
            decoded = np.zeros_like(residual)
            decoded[present] = decompress_blocked(blocked).reshape(len(present), width)
            layout.fold_sums(decoded, features, *sums)
            bitmap_bytes = -(-len(residual) // 8)
            piece_bytes = blocked.wire_bytes + bitmap_bytes + ROW_SUMS_BYTES
            pieces.append((part, decoded.ravel(), piece_bytes))
        return pieces

    def push_row(
        self,
        name: str,
        row: int,
        flat: np.ndarray,
        compression_bits: int = 0,
        rng: np.random.Generator | None = None,
        sums: tuple[float, float] | None = None,
        seq: object | None = None,
        worker: int | None = None,
    ) -> TransferStats:
        """Push one row, split by ranges, optionally low-precision.

        With ``compression_bits > 0`` each range slice is quantized by the
        Section 6.1 codec before "transmission" and decoded on the server
        (:meth:`encode_row`, which needs ``rng`` and the row's exact node
        ``sums``), so only the compressed bytes count on the wire.

        ``seq`` is the idempotence token forwarded to
        :meth:`PSServer.handle_push`; required when a fault fabric is
        attached (a retried delivery must not double-count), optional —
        but honored — otherwise.  ``worker`` identifies the pushing
        worker for fault filtering.
        """
        self._require_seq("push_row", seq)
        stats = TransferStats()
        for part, piece, piece_bytes in self.encode_row(
            name, flat, compression_bits, rng, sums=sums
        ):
            server = self.servers[part.server_id]

            def send(server=server, part=part, piece=piece):
                return server.handle_push(name, row, part.partition_id, piece, seq=seq)

            self._push(stats, send, part.server_id, worker, piece_bytes)
        return stats

    def push_slab(
        self,
        name: str,
        row: int,
        slab: SparseSlab | CompressedSlab,
        seq: object | None = None,
        worker: int | None = None,
    ) -> TransferStats:
        """Push one block's sparse histogram slab for ``row``.

        The slab is routed to every range overlapping its feature stripe
        — *every* such range, even where the slab lists no features,
        because the block's gradient sums must fold into the zero buckets
        of its stripe's empty features there.  Each range is billed only
        the slab's share: header plus the listed features inside the
        range.  ``seq``/``worker`` follow the :meth:`push_row` contract
        (seq required under a fault fabric).

        A lossy push hands in the :class:`CompressedSlab` that
        :func:`~repro.ps.slab.compress_slab` made: quantized once, before
        the fan-out, so every overlapping range receives (and decodes)
        the same payload, billed at its packed wire size.
        """
        partitioner = self.partitioner(name)
        layout = self._layout(name)
        self._require_seq("push_slab", seq)
        width = layout.feature_width
        stats = TransferStats()
        for part in partitioner.partitions_in_range(
            slab.col_lo * width, slab.col_hi * width
        ):
            piece_bytes = slab.wire_bytes_for(part.lo // width, part.hi // width)
            server = self.servers[part.server_id]

            def send(server=server, part=part):
                return server.handle_push_slab(
                    name, row, part.partition_id, slab, seq=seq
                )

            self._push(stats, send, part.server_id, worker, piece_bytes)
        return stats

    def push_window(
        self,
        name: str,
        entries: list[tuple[int, SparseSlab | CompressedSlab]],
        seq: object | None = None,
        worker: int | None = None,
    ) -> TransferStats:
        """Push one locally-aggregated window of ``(row, slab)`` deltas.

        The caller has already batched the window's node deltas
        (:class:`repro.ps.localagg.LocalAggregator`, one per row) and
        encoded each slab *once* — entries may be :class:`CompressedSlab`
        or plain :class:`SparseSlab`; this method only routes.  Every
        server partition receives at most one message
        carrying its shares of all entries, so a window of ``W`` node
        deltas costs one latency term per partition instead of ``W``.
        Each entry's share is billed as 4 bytes of row id plus its slab
        wire share; entries whose stripe misses a partition are skipped
        (their own stripes' windows cover those).

        ``seq``/``worker`` follow the :meth:`push_row` contract (seq
        required under a fault fabric), with one extension the windowed
        seam demands: the token must identify the *window*, not just the
        round — ``(round, window, worker)`` — so a retry inside a window
        deduplicates while the next window's touch of the same rows
        applies.
        """
        partitioner = self.partitioner(name)
        layout = self._layout(name)
        self._require_seq("push_window", seq)
        width = layout.feature_width
        stats = TransferStats()
        for part in partitioner.partitions:
            f_lo, f_hi = part.lo // width, part.hi // width
            billed = [
                (row, slab, slab.wire_bytes_for(f_lo, f_hi)) for row, slab in entries
            ]
            share = [(row, slab) for row, slab, nbytes in billed if nbytes]
            if not share:
                continue
            piece_bytes = sum(4 + nbytes for *_entry, nbytes in billed if nbytes)
            server = self.servers[part.server_id]

            def send(server=server, part=part, share=share):
                return server.handle_push_window(
                    name, part.partition_id, share, seq=seq
                )

            self._push(stats, send, part.server_id, worker, piece_bytes)
        return stats

    def push_window_rows(
        self,
        name: str,
        entries: list[tuple[int, list[tuple[Partition, np.ndarray, int]]]],
        seq: object | None = None,
        worker: int | None = None,
    ) -> TransferStats:
        """Push one window of encoded dense row deltas.

        ``entries`` is a list of ``(row, pieces)``, ``pieces`` exactly
        what :meth:`encode_row` returned for that delta — the very call
        :meth:`push_row` makes.  This method only batches delivery: one
        message per server, in server-id order, carries all of its
        pieces, applied in entry order, so the stored floats and their
        addend order match the per-delta pushes bit for bit while the
        window pays one latency term per server.  Each piece is billed
        4 bytes of row id plus its wire bytes.

        ``seq``/``worker`` follow the :meth:`push_window` contract: the
        token must identify the window — ``(round, window, worker)`` —
        so a retried delivery deduplicates per ``(row, partition)``
        while later windows still apply.
        """
        self.partitioner(name)  # raises if unknown
        self._require_seq("push_window_rows", seq)
        by_server: dict[int, list[tuple[int, int, np.ndarray, int]]] = {}
        for row, pieces in entries:
            for part, piece, piece_bytes in pieces:
                by_server.setdefault(part.server_id, []).append(
                    (row, part.partition_id, piece, piece_bytes)
                )
        stats = TransferStats()
        for server_id in sorted(by_server):
            share = by_server[server_id]
            payload_bytes = sum(4 + piece_bytes for *_rest, piece_bytes in share)
            server = self.servers[server_id]

            def send(server=server, share=share):
                for row, partition_id, piece, _bytes in share:
                    server.handle_push(name, row, partition_id, piece, seq=seq)
                return None

            self._push(stats, send, server_id, worker, payload_bytes)
        return stats

    def push_sketch(
        self,
        name: str,
        sketches: SketchBatch,
        seq: object | None = None,
        worker: int | None = None,
    ) -> TransferStats:
        """Push one worker's per-feature quantile summaries.

        ``sketches`` lists global feature ids (elements of the registered
        parameter, one element per feature).  Every partition hosting
        some of them receives one message: the frame of its share, cut
        from the batch by feature range
        (:meth:`~repro.sketch.SketchBatch.to_frame`) and billed at its
        length.  The servers merge
        arrivals in delivery order, so a fixed push order across workers
        yields a deterministic merged summary.  ``seq``/``worker`` follow
        the :meth:`push_row` contract (seq required under a fault fabric;
        the engine uses ``("sketch", worker_id)``).
        """
        partitioner = self.partitioner(name)
        self._require_seq("push_sketch", seq)
        stats = TransferStats()
        if len(sketches) == 0:
            return stats
        first, last = int(sketches.features[0]), int(sketches.features[-1])
        for part in partitioner.partitions_in_range(first, last + 1):
            share = sketches.span(part.lo, part.hi)
            if len(share) == 0:
                continue
            frame = share.to_frame()
            server = self.servers[part.server_id]

            def send(server=server, part=part, frame=frame):
                return server.handle_push_sketch(
                    name, part.partition_id, frame, seq=seq
                )

            self._push(stats, send, part.server_id, worker, len(frame))
        return stats

    def pull_sketches(
        self,
        name: str,
        lo: int,
        hi: int,
        max_bins: int,
        worker: int | None = None,
    ) -> tuple[CandidateSet, TransferStats]:
        """Pull the split candidates of features ``[lo, hi)`` — one
        worker's stripe — proposed by the servers from their merged
        summaries.

        Every partition overlapping the stripe answers one message: the
        candidate frame of its share
        (:meth:`PSServer.handle_pull_candidates`), billed at its length,
        :func:`~repro.sketch.candidates.candidate_frame_bytes` — a lost
        or duplicated frame too, under a fault fabric.  Returns
        the stripe's cuts rebased to 0 (global feature ``lo + f`` is
        stripe feature ``f``, as
        :meth:`~repro.sketch.CandidateSet.feature_range` cuts them) plus
        the transfer accounting — the PULL_SKETCH bytes the engine
        charges this worker.
        """
        partitioner = self.partitioner(name)
        shares: list[CandidateSet] = []
        stats = TransferStats()
        for part in partitioner.partitions_in_range(lo, hi):
            a, b = max(lo, part.lo), min(hi, part.hi)
            server = self.servers[part.server_id]

            def send(server=server, part=part, a=a, b=b):
                return server.handle_pull_candidates(
                    name, part.partition_id, a, b, max_bins
                )

            frame = self._deliver(
                "pull", send, server=part.server_id, worker=worker, payload_bytes=len
            )
            shares.append(CandidateSet.from_frame(frame, max_bins, a, b))
            stats.bytes_down += len(frame)
            stats.messages += 1
        return CandidateSet.concat(shares, max_bins), stats

    def pull_row(
        self, name: str, row: int, worker: int | None = None
    ) -> tuple[np.ndarray, TransferStats]:
        """Pull a full row, reassembled from all ranges."""
        partitioner = self.partitioner(name)
        flat = np.empty(partitioner.length, dtype=np.float64)
        stats = TransferStats()
        for part in partitioner.partitions:
            server = self.servers[part.server_id]

            def send(server=server, part=part):
                return server.handle_pull(name, row, part.partition_id)

            piece = self._deliver(
                "pull",
                send,
                server=part.server_id,
                worker=worker,
                payload_bytes=(part.length * 4),
            )
            flat[part.lo : part.hi] = piece
            stats.bytes_down += piece.size * 4
            stats.messages += 1
        return flat, stats

    def pull_row_udf(
        self,
        name: str,
        row: int,
        udf: PullUDF,
        result_bytes: int = 12,
        worker: int | None = None,
    ) -> tuple[list[tuple[Partition, Any]], TransferStats]:
        """Run ``udf`` on every range of ``row`` server-side.

        Args:
            name, row: The parameter row.
            udf: Server-side function ``(values, partition) -> result``.
            result_bytes: Wire size charged per UDF result; the two-phase
                split reply is "one integer and two floating-point
                numbers" (Section 6.3), hence the 12-byte default.
            worker: Requesting worker id (fault filtering).

        Returns:
            ([(partition, result), ...] in partition order, stats).
        """
        partitioner = self.partitioner(name)
        results: list[tuple[Partition, Any]] = []
        stats = TransferStats()
        for part in partitioner.partitions:
            server = self.servers[part.server_id]

            def send(server=server, part=part):
                return server.handle_pull_udf(name, row, part.partition_id, udf)

            result = self._deliver(
                "pull_udf",
                send,
                server=part.server_id,
                worker=worker,
                payload_bytes=result_bytes,
            )
            results.append((part, result))
            stats.bytes_down += result_bytes
            stats.messages += 1
        return results, stats

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def clear_row(self, name: str, row: int) -> None:
        """Free one row on every shard."""
        self.partitioner(name)  # raises if unknown
        for server in self.servers:
            server.clear_row(name, row)

    def clear_parameter(self, name: str) -> None:
        """Free all rows of a parameter on every shard."""
        self.partitioner(name)
        for server in self.servers:
            server.clear_parameter(name)

    def memory_bytes(self) -> int:
        """Total parameter bytes across shards."""
        return sum(server.memory_bytes() for server in self.servers)
