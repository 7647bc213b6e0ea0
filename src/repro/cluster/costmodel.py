"""The alpha-beta-gamma communication cost model (Section 3, Table 1).

"We model the time needed for a worker to send or receive a package as
``alpha + n * beta`` where ``alpha`` is the latency for each package,
``beta`` is the transfer time per byte ... ``gamma`` is the computation
cost per byte for merging two histograms."

The four closed forms below are the rows of Table 1 verbatim:

=========  ============  ==============================================
System     # comm steps  communication time
=========  ============  ==============================================
MLlib      1             ``h*beta*w + alpha + h*gamma``
XGBoost    log w         ``(h*beta + alpha + h*gamma) * log w``
LightGBM   log w         ``(w-1)/w*h*beta + (alpha + h*gamma) * log w``
                         (doubled when w is not a power of two)
DimBoost   1             ``(w-1)/w*h*beta + (w-1)*alpha + h*gamma``
=========  ============  ==============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CommunicationError, ConfigError

#: Names of the modelled systems in the paper's Table 1 order.
SYSTEM_NAMES = ("mllib", "xgboost", "lightgbm", "dimboost")


@dataclass(frozen=True)
class CostParams:
    """Per-message network cost constants of the Section 3 model
    (``ClusterConfig.network``).

    The time for one node to send or receive a package of ``n`` bytes is
    ``alpha + n * beta``; merging ``n`` bytes of histograms costs
    ``n * gamma``.  The defaults approximate the paper's 1 GbE cluster:
    0.1 ms latency, ~8 ns/byte transfer (≈1 Gbit/s), 1 ns/byte merge.

    Attributes:
        alpha: Latency per package (seconds).
        beta: Transfer time per byte (seconds).
        gamma: Merge time per byte (seconds); a negative constant is a
            ``ConfigError``, as in every ``ClusterConfig`` field.
    """

    alpha: float = 1e-4
    beta: float = 8e-9
    gamma: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def _check(w: int, h: float) -> None:
    if w < 1:
        raise CommunicationError(f"worker count must be >= 1, got {w}")
    if h < 0:
        raise CommunicationError(f"histogram size must be >= 0, got {h}")


def is_power_of_two(w: int) -> bool:
    """Whether ``w`` is a power of two (w >= 1)."""
    return w >= 1 and (w & (w - 1)) == 0


def log2_steps(w: int) -> int:
    """``ceil(log2 w)`` — the step count of tree/halving collectives."""
    return max(1, math.ceil(math.log2(w))) if w > 1 else 0


def mllib_aggregation_time(w: int, h: float, cost: CostParams) -> float:
    """Table 1, MLlib row: all-to-one reduce; one step, ``h*beta*w`` transfer."""
    _check(w, h)
    if w == 1:
        return h * cost.gamma
    return h * cost.beta * w + cost.alpha + h * cost.gamma


def xgboost_aggregation_time(w: int, h: float, cost: CostParams) -> float:
    """Table 1, XGBoost row: binomial-tree AllReduce, ``log w`` serial steps."""
    _check(w, h)
    steps = log2_steps(w)
    return (h * cost.beta + cost.alpha + h * cost.gamma) * steps


def lightgbm_aggregation_time(w: int, h: float, cost: CostParams) -> float:
    """Table 1, LightGBM row: recursive-halving ReduceScatter.

    "If w is not a power of two, the time taken by LightGBM is doubled."
    """
    _check(w, h)
    if w == 1:
        return h * cost.gamma
    steps = log2_steps(w)
    base = (w - 1) / w * h * cost.beta + (cost.alpha + h * cost.gamma) * steps
    return base if is_power_of_two(w) else 2.0 * base


def dimboost_aggregation_time(w: int, h: float, cost: CostParams) -> float:
    """Table 1, DimBoost row: PS scatter-aggregate in one batched step."""
    _check(w, h)
    if w == 1:
        return h * cost.gamma
    return (w - 1) / w * h * cost.beta + (w - 1) * cost.alpha + h * cost.gamma


def general_ps_push_time(
    w: int, p: int, h: float, cost: CostParams, colocated: bool = True
) -> float:
    """PS aggregation time for ``w`` workers pushing ``h`` bytes to ``p`` servers.

    Reduces to the Table 1 DimBoost row when ``p == w`` and co-located:
    per-server inbound transfer ``(w-1) * h/p * beta``, batched per-worker
    latency ``(p-1) * alpha``, and per-server merge ``w * h/p * gamma``.
    """
    if w < 1 or p < 1:
        raise CommunicationError(f"w and p must be >= 1, got w={w}, p={p}")
    co = 1 if (colocated and p <= w) else 0
    slice_h = h / p
    return (
        (w - co) * slice_h * cost.beta
        + (p - co) * cost.alpha
        + w * slice_h * cost.gamma
    )


_TIME_FUNCS = {
    "mllib": mllib_aggregation_time,
    "xgboost": xgboost_aggregation_time,
    "lightgbm": lightgbm_aggregation_time,
    "dimboost": dimboost_aggregation_time,
}


def aggregation_time(system: str, w: int, h: float, cost: CostParams) -> float:
    """Dispatch on the Table 1 row name (see ``SYSTEM_NAMES``)."""
    try:
        func = _TIME_FUNCS[system]
    except KeyError as exc:
        raise CommunicationError(
            f"unknown system {system!r}; expected one of {SYSTEM_NAMES}"
        ) from exc
    return func(w, h, cost)


def comm_steps(system: str, w: int) -> int:
    """The ``# comm steps`` column of Table 1."""
    if system in ("mllib", "dimboost"):
        return 1 if w > 1 else 0
    if system in ("xgboost", "lightgbm"):
        return log2_steps(w)
    raise CommunicationError(
        f"unknown system {system!r}; expected one of {SYSTEM_NAMES}"
    )


def dense_histogram_bytes(n_features: int, n_bins: int) -> int:
    """Wire bytes of one dense flat node histogram: ``2 * K * M`` float32.

    The per-worker push size of row-sharded training (Section 4.3's
    parameter layout) — what the Table 1 ``h`` stands for.
    """
    if n_features < 0 or n_bins < 1:
        raise CommunicationError(
            f"invalid histogram shape M={n_features}, K={n_bins}"
        )
    return 2 * n_features * n_bins * 4


def sparse_slab_bytes(
    n_present: int, n_bins: int, header_bytes: int = 16
) -> int:
    """Wire bytes of one sparse histogram slab (block-distributed push).

    A slab ships a small header (stripe range + the block's exact
    gradient sums), a presence tag byte, and per feature that actually
    has nonzeros in the node a 4-byte feature id and its ``2 * K``
    float32 values.  Compare with :func:`dense_histogram_bytes` over the
    stripe to see the sparsity win.  This is the id-list form: the upper
    bound of :meth:`repro.ps.SparseSlab.wire_bytes_for`, which names the
    present features by a bitmap of the share's range where that is
    smaller.
    """
    if n_present < 0 or n_bins < 1 or header_bytes < 0:
        raise CommunicationError(
            f"invalid slab shape: present={n_present}, K={n_bins}, "
            f"header={header_bytes}"
        )
    return header_bytes + 1 + n_present * (4 + 2 * n_bins * 4)


def compressed_slab_bytes(
    n_present: int,
    n_bins: int,
    bits: int,
    block_size: int | None = None,
    header_bytes: int = 16,
) -> int:
    """Wire bytes of one *compressed* sparse histogram slab.

    The Section 6.1 codec replaces each present feature's ``2 * K``
    float32 values with ``ceil(2 * K * bits / 8)`` packed bytes plus one
    float32 scale per ``block_size`` values (default ``n_bins``: one
    scale per g- and one per h-histogram).  The header — stripe range and
    exact gradient sums — stays uncompressed, as do the presence tag byte
    and the 4-byte feature ids.  This is the upper bound of
    :meth:`repro.ps.CompressedSlab.wire_bytes_for`, which names a share's
    present features by a bitmap of its range where that is smaller than
    the ids, and bills its levels as one message in the smaller of the
    dense form and a zero-level bitmap plus the nonzero levels; the two
    agree when the ids are the smaller presence form and no level is 0
    (and, at 2 bits with odd ``n_bins``, no feature ends mid-byte).
    """
    if n_present < 0 or n_bins < 1 or header_bytes < 0:
        raise CommunicationError(
            f"invalid slab shape: present={n_present}, K={n_bins}, "
            f"header={header_bytes}"
        )
    if bits < 1:
        raise CommunicationError(f"bits must be >= 1, got {bits}")
    block = n_bins if block_size is None else block_size
    width = 2 * n_bins
    if block < 1 or width % block != 0:
        raise CommunicationError(
            f"block_size {block} must divide the feature width {width}"
        )
    payload = -(-width * bits // 8)
    scales = (width // block) * 4
    return header_bytes + 1 + n_present * (4 + payload + scales)


def crossover_workers(
    system_a: str,
    system_b: str,
    h: float,
    cost: CostParams,
    max_workers: int = 1024,
) -> int | None:
    """Smallest worker count at which ``system_b`` beats ``system_a``.

    Scans ``w`` = 2..max_workers; returns None if ``system_b`` never wins.
    Used to locate the crossovers the paper's "Remarks" paragraph
    describes (DimBoost/LightGBM overtake MLlib/XGBoost as w grows).
    """
    for w in range(2, max_workers + 1):
        if aggregation_time(system_b, w, h, cost) < aggregation_time(
            system_a, w, h, cost
        ):
            return w
    return None
