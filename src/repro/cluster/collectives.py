"""The four aggregation operators as real algorithms (Section 3, Figure 3).

Each collective takes one contribution array per worker, performs the
*actual* data movement of the modelled system — the binomial tree of
XGBoost, the recursive halving of LightGBM, the all-to-one reduce of
MLlib, the scatter-to-servers of DimBoost — and returns the numerically
real result together with a :class:`CollectiveResult` accounting record:
communication steps, bytes moved, and the simulated elapsed time charged
per the paper's Table 1 cost model.

Payloads travel as float32 on the wire (the paper's 4-byte gradients), so
``wire bytes = 4 * n_values`` unless a caller supplies compressed sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import CommunicationError
from .costmodel import (
    CostParams,
    dimboost_aggregation_time,
    general_ps_push_time,
    lightgbm_aggregation_time,
    log2_steps,
    mllib_aggregation_time,
    xgboost_aggregation_time,
)

#: Bytes per histogram value on the wire (float32).
WIRE_BYTES_PER_VALUE = 4


@dataclass
class CollectiveResult:
    """Accounting record of one collective invocation.

    Attributes:
        steps: Communication steps taken (Table 1's ``# comm steps``
            column counts logical steps; the pre-step for non-power-of-two
            halving is included here).
        total_bytes: Bytes moved across all links.
        sim_seconds: Simulated elapsed time per the Table 1 model.
        messages: Number of point-to-point messages sent.
        segments: For scatter-type collectives, the element range
            ``[lo, hi)`` each worker/server ended up owning.
    """

    steps: int
    total_bytes: int
    sim_seconds: float
    messages: int
    segments: dict[int, tuple[int, int]] = field(default_factory=dict)


def _as_matrix(contributions: list[np.ndarray]) -> np.ndarray:
    """Stack and validate per-worker contributions."""
    if not contributions:
        raise CommunicationError("at least one contribution is required")
    shapes = {c.shape for c in contributions}
    if len(shapes) != 1:
        raise CommunicationError(f"contribution shapes differ: {sorted(shapes)}")
    first = contributions[0]
    if first.ndim != 1:
        raise CommunicationError(
            f"contributions must be 1-D flat arrays, got ndim={first.ndim}"
        )
    return np.stack([np.asarray(c, dtype=np.float64) for c in contributions])


def point_to_point_time(n_bytes: float, cost: CostParams) -> float:
    """Time for one package of ``n_bytes``: ``alpha + n * beta``."""
    if n_bytes < 0:
        raise CommunicationError(f"message size must be >= 0, got {n_bytes}")
    return cost.alpha + n_bytes * cost.beta


def reduce_to_coordinator(
    contributions: list[np.ndarray], cost: CostParams
) -> tuple[np.ndarray, CollectiveResult]:
    """MLlib-style all-to-one reduce: every worker ships to one coordinator.

    Worker 0 is the coordinator (MLlib's ``reduceByKey`` target for a tree
    node).  All w contributions funnel through its NIC, hence the
    ``h * beta * w`` transfer term of Table 1.
    """
    data = _as_matrix(contributions)
    w = len(contributions)
    h = data.shape[1] * WIRE_BYTES_PER_VALUE
    result = data.sum(axis=0)
    moved = (w - 1) * h
    stats = CollectiveResult(
        steps=1 if w > 1 else 0,
        total_bytes=moved,
        sim_seconds=mllib_aggregation_time(w, h, cost),
        messages=w - 1,
    )
    return result, stats


def allreduce_binomial(
    contributions: list[np.ndarray], cost: CostParams
) -> tuple[np.ndarray, CollectiveResult]:
    """XGBoost-style binomial-tree reduce to the root worker.

    Leaf pairs merge bottom-up in ``ceil(log2 w)`` non-overlapping steps
    (Section 2.3: "these steps cannot overlap in XGBoost's
    implementation").  The root (worker 0) holds the sum.  XGBoost then
    broadcasts only the small split decision, so the full histogram is
    *not* sent back down.
    """
    data = _as_matrix(contributions)
    w = len(contributions)
    h = data.shape[1] * WIRE_BYTES_PER_VALUE
    partial = [row.copy() for row in data]
    alive = list(range(w))
    moved = 0
    messages = 0
    steps = 0
    while len(alive) > 1:
        steps += 1
        survivors = []
        for j in range(0, len(alive) - 1, 2):
            dst, src = alive[j], alive[j + 1]
            partial[dst] += partial[src]
            moved += h
            messages += 1
            survivors.append(dst)
        if len(alive) % 2 == 1:
            survivors.append(alive[-1])
        alive = survivors
    stats = CollectiveResult(
        steps=steps,
        total_bytes=moved,
        sim_seconds=xgboost_aggregation_time(w, h, cost),
        messages=messages,
    )
    return partial[alive[0]], stats


def reduce_scatter_halving(
    contributions: list[np.ndarray], cost: CostParams, align: int = 1
) -> tuple[list[np.ndarray | None], CollectiveResult]:
    """LightGBM-style recursive-halving ReduceScatter.

    Workers are split into two sublists that exchange the histogram half
    the *other* sublist is responsible for; recursion halves the exchanged
    size every step (Section 2.3, Figure 3).  Each participant ends up
    owning the fully merged sum of one contiguous element range.

    For non-power-of-two ``w``, the excess workers first fold their data
    into a partner (a pre-step) and own no segment afterwards — and, per
    the paper, the charged time doubles.

    ``align`` snaps segment boundaries to multiples of that many elements
    (e.g. one feature's ``2 * n_bins`` histogram block), so every owned
    segment covers whole features and its owner can find splits locally.

    Returns:
        (owned, stats) where ``owned[i]`` is worker i's merged segment
        (None for folded-away workers) and ``stats.segments[i]`` its
        ``[lo, hi)`` element range.
    """
    data = _as_matrix(contributions)
    w, n = data.shape
    if align < 1:
        raise CommunicationError(f"align must be >= 1, got {align}")
    if n % align != 0:
        raise CommunicationError(
            f"array length {n} is not a multiple of align {align}"
        )
    h = n * WIRE_BYTES_PER_VALUE
    buffers = [row.copy() for row in data]
    moved = 0
    messages = 0
    k = 1 << (w.bit_length() - 1)
    if k > w:
        k >>= 1
    pre_steps = 0
    if k != w:
        # Fold extras into the first (w - k) participants.
        pre_steps = 1
        for i in range(k, w):
            buffers[i - k] += buffers[i]
            moved += h
            messages += 1

    segments: dict[int, tuple[int, int]] = {}

    def halve(workers: list[int], lo: int, hi: int) -> None:
        nonlocal moved, messages
        if len(workers) == 1:
            segments[workers[0]] = (lo, hi)
            return
        half = len(workers) // 2
        units = (hi - lo) // align
        mid = lo + max(1, units // 2) * align if units > 1 else lo + (hi - lo) // 2
        left_ws, right_ws = workers[:half], workers[half:]
        seg_bytes_left = (mid - lo) * WIRE_BYTES_PER_VALUE
        seg_bytes_right = (hi - mid) * WIRE_BYTES_PER_VALUE
        for a, b in zip(left_ws, right_ws):
            # b ships its copy of [lo, mid) to a; a ships [mid, hi) to b.
            buffers[a][lo:mid] += buffers[b][lo:mid]
            buffers[b][mid:hi] += buffers[a][mid:hi]
            moved += seg_bytes_left + seg_bytes_right
            messages += 2
        halve(left_ws, lo, mid)
        halve(right_ws, mid, hi)

    halve(list(range(k)), 0, n)
    owned: list[np.ndarray | None] = [None] * w
    for i, (lo, hi) in segments.items():
        owned[i] = buffers[i][lo:hi]
    stats = CollectiveResult(
        steps=pre_steps + (log2_steps(k) if k > 1 else 0),
        total_bytes=moved,
        sim_seconds=lightgbm_aggregation_time(w, h, cost),
        messages=messages,
        segments=segments,
    )
    return owned, stats


def ps_aggregate(
    contributions: list[np.ndarray],
    cost: CostParams,
    n_servers: int | None = None,
    colocated: bool = True,
) -> tuple[list[np.ndarray], CollectiveResult]:
    """DimBoost-style PS aggregation: scatter slices to servers, merge there.

    Every worker cuts its histogram into ``p`` contiguous slices and sends
    slice ``j`` to server ``j`` in one batch — one logical communication
    step.  With co-located workers/servers (the paper's deployment,
    ``p == w``), each worker keeps its own slice local, giving the
    ``(w-1)/w * h * beta + (w-1) * alpha + h * gamma`` row of Table 1.

    Returns:
        (server_slices, stats): ``server_slices[j]`` is the merged slice
        held by server j; ``stats.segments[j]`` its element range.
    """
    data = _as_matrix(contributions)
    w, n = data.shape
    p = n_servers if n_servers is not None else w
    if p < 1:
        raise CommunicationError(f"n_servers must be >= 1, got {p}")
    h = n * WIRE_BYTES_PER_VALUE
    boundaries = np.linspace(0, n, p + 1).astype(np.int64)
    server_slices: list[np.ndarray] = []
    segments: dict[int, tuple[int, int]] = {}
    moved = 0
    messages = 0
    co = 1 if (colocated and p <= w) else 0
    for j in range(p):
        lo, hi = int(boundaries[j]), int(boundaries[j + 1])
        segments[j] = (lo, hi)
        merged = data[:, lo:hi].sum(axis=0)
        server_slices.append(merged)
        slice_bytes = (hi - lo) * WIRE_BYTES_PER_VALUE
        # Remote pushes into this server (its co-located worker is local).
        moved += (w - co) * slice_bytes
        messages += w - co
    if p == w and colocated:
        sim = dimboost_aggregation_time(w, h, cost)
    else:
        sim = general_ps_push_time(w, p, h, cost, colocated)
    stats = CollectiveResult(
        steps=1 if (w > 1 or p > 1) else 0,
        total_bytes=moved,
        sim_seconds=sim,
        messages=messages,
        segments=segments,
    )
    return server_slices, stats
