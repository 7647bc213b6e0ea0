"""Hybrid range-hash parameter partitioning (Section 4.3).

"We first partition a vector to several ranges based on feature indexes,
then use hash partition to put each partition onto one node."  Ranges
keep range queries (contiguous feature slices) cheap; the hash step
balances which server hosts which range.  The default partition count is
the number of parameter servers, as in the paper.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import PSError


@dataclass(frozen=True)
class Partition:
    """One contiguous index range of a parameter vector on one server.

    Attributes:
        partition_id: Position of the range within the vector.
        lo: First global index (inclusive).
        hi: Last global index (exclusive).
        server_id: The server hosting this range.
    """

    partition_id: int
    lo: int
    hi: int
    server_id: int

    @property
    def length(self) -> int:
        """Number of elements in the range."""
        return self.hi - self.lo


class VectorPartitioner:
    """Splits a vector of ``length`` elements into ranges hashed to servers.

    Args:
        length: Total vector length.
        n_servers: Number of parameter servers p.
        n_partitions: Number of ranges; defaults to ``n_servers``
            ("The default number of partitions is the number of parameter
            servers").
        salt: Perturbs the hash, letting tests exercise different
            placements.
    """

    def __init__(
        self,
        length: int,
        n_servers: int,
        n_partitions: int | None = None,
        salt: int = 0,
        align: int = 1,
    ) -> None:
        if length < 0:
            raise PSError(f"length must be >= 0, got {length}")
        if n_servers < 1:
            raise PSError(f"n_servers must be >= 1, got {n_servers}")
        if align < 1:
            raise PSError(f"align must be >= 1, got {align}")
        if length % align != 0:
            raise PSError(f"length {length} is not a multiple of align {align}")
        n_partitions = n_partitions if n_partitions is not None else n_servers
        if n_partitions < 1:
            raise PSError(f"n_partitions must be >= 1, got {n_partitions}")
        n_units = length // align
        n_partitions = max(1, min(n_partitions, n_units))
        self.length = length
        self.n_servers = n_servers
        self.align = align

        # Range boundaries in units of `align` elements, so aligned blocks
        # (e.g. one feature's 2K histogram buckets) never straddle servers.
        boundaries = np.linspace(0, n_units, n_partitions + 1).astype(np.int64) * align
        # Hash step: shuffle the ranges deterministically, then deal them
        # round-robin so every server hosts ⌈n_partitions / p⌉ or
        # ⌊n_partitions / p⌋ ranges — hash placement with guaranteed
        # balance (plain modulo hashing can leave servers empty).
        order = sorted(
            range(n_partitions),
            key=lambda pid: zlib.crc32(f"{salt}:{pid}".encode("utf-8")),
        )
        server_of = {}
        for position, pid in enumerate(order):
            server_of[pid] = position % n_servers
        self.partitions: tuple[Partition, ...] = tuple(
            Partition(
                partition_id=pid,
                lo=int(boundaries[pid]),
                hi=int(boundaries[pid + 1]),
                server_id=server_of[pid],
            )
            for pid in range(n_partitions)
        )
        # Range starts, precomputed once: range queries sit on hot paths
        # and must not rebuild the boundary list.
        self._los = np.asarray(boundaries[:-1], dtype=np.int64)

    @property
    def n_partitions(self) -> int:
        """Number of ranges."""
        return len(self.partitions)

    def partition_of_index(self, index: int) -> Partition:
        """The range containing global element ``index`` (a range query)."""
        return self.partitions[self.partition_ids_of((index,))[0]]

    def partition_ids_of(self, indices) -> np.ndarray:
        """Partition id of every global element in ``indices``, in one pass."""
        indices = np.asarray(indices, dtype=np.int64)
        bad = indices[(indices < 0) | (indices >= self.length)]
        if len(bad):
            raise PSError(f"index {bad[0]} out of range [0, {self.length})")
        return np.searchsorted(self._los, indices, side="right") - 1

    def partitions_in_range(self, lo: int, hi: int) -> list[Partition]:
        """All ranges overlapping global elements ``[lo, hi)``, in
        partition order — the range query behind sparse slab routing."""
        if not 0 <= lo <= hi <= self.length:
            raise PSError(f"range [{lo}, {hi}) invalid for length {self.length}")
        if lo == hi:
            return []
        first = int(np.searchsorted(self._los, lo, side="right")) - 1
        last = int(np.searchsorted(self._los, hi - 1, side="right")) - 1
        return list(self.partitions[first : last + 1])

    def partitions_on_server(self, server_id: int) -> list[Partition]:
        """All ranges hosted by ``server_id``."""
        if not 0 <= server_id < self.n_servers:
            raise PSError(
                f"server_id {server_id} out of range [0, {self.n_servers})"
            )
        return [p for p in self.partitions if p.server_id == server_id]

    def server_loads(self) -> np.ndarray:
        """Elements stored per server — the balance the hash step buys."""
        loads = np.zeros(self.n_servers, dtype=np.int64)
        for part in self.partitions:
            loads[part.server_id] += part.length
        return loads
