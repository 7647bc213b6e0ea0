"""Parallel batch construction of a single histogram (Section 5.2).

The "cold-start" problem: in the first tree layers there are few nodes,
so node-level parallelism leaves cores idle.  The paper divides a node's
instance range into batches of size ``b``, builds a sub-histogram per
batch on its own thread, and sums the sub-histograms.

The batches run one after another in this process, so this module
reports the *span* — the simulated parallel makespan with ``n_threads``
workers, computed from the measured per-batch times by greedy (LPT-free,
arrival-order) scheduling.  The Table 3 bench reports the span, which
is what a multi-core Java worker would observe; training builds each
histogram in one pass.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import TrainingError
from ..utils.timing import wall_clock
from .binned import BinnedShard
from .builder import build_node_histogram_sparse
from .histogram import GradientHistogram

#: Signature of a per-batch histogram kernel.
BuildKernel = Callable[
    [BinnedShard, np.ndarray, np.ndarray, np.ndarray], GradientHistogram
]


@dataclass(frozen=True)
class ParallelBuildResult:
    """Outcome of a batched histogram build.

    Attributes:
        histogram: The summed histogram (identical to a sequential build).
        n_batches: Number of batches the range was divided into.
        batch_seconds: Measured build time of each batch, indexed by
            batch.
        span_seconds: Simulated makespan on ``n_threads`` threads.
    """

    histogram: GradientHistogram
    n_batches: int
    batch_seconds: tuple[float, ...]
    span_seconds: float


def simulate_span(batch_seconds: list[float], n_threads: int) -> float:
    """Makespan of running ``batch_seconds`` jobs on ``n_threads`` threads.

    Jobs are assigned in arrival order to the earliest-free thread — the
    schedule an executor with a shared queue produces.
    """
    if n_threads < 1:
        raise TrainingError(f"n_threads must be >= 1, got {n_threads}")
    free_at = [0.0] * min(n_threads, max(1, len(batch_seconds)))
    heapq.heapify(free_at)
    finish = 0.0
    for cost in batch_seconds:
        start = heapq.heappop(free_at)
        end = start + cost
        finish = max(finish, end)
        heapq.heappush(free_at, end)
    return finish


def build_histogram_batched(
    shard: BinnedShard,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    batch_size: int,
    n_threads: int = 1,
    kernel: BuildKernel = build_node_histogram_sparse,
) -> ParallelBuildResult:
    """Build one node histogram from batches of its instance range.

    Args:
        shard: Pre-bucketized shard.
        rows: Row ids of the node (from the node-to-instance index).
        grad, hess: Per-shard-row gradients.
        batch_size: Instances per batch ``b`` (paper default 10000).
        n_threads: Thread count ``q`` used for the span account.
        kernel: Per-batch histogram kernel.

    Returns:
        A :class:`ParallelBuildResult`; ``histogram`` equals the
        sequential single-pass build.
    """
    if batch_size < 1:
        raise TrainingError(f"batch_size must be >= 1, got {batch_size}")
    rows = np.asarray(rows, dtype=np.int64)
    batches = [rows[lo : lo + batch_size] for lo in range(0, len(rows), batch_size)]
    if not batches:
        batches = [rows]

    batch_seconds = []
    parts = []
    for batch in batches:
        t0 = wall_clock()
        parts.append(kernel(shard, batch, grad, hess))
        batch_seconds.append(wall_clock() - t0)

    total = parts[0]
    for part in parts[1:]:
        total.add_(part)
    return ParallelBuildResult(
        histogram=total,
        n_batches=len(batches),
        batch_seconds=tuple(batch_seconds),
        span_seconds=simulate_span(batch_seconds, n_threads),
    )
