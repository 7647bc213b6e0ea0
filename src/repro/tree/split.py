"""Split finding over gradient histograms (Algorithm 1 lines 10-17).

For every feature and every candidate cut, the scan accumulates the left
sums ``G_L, H_L``, derives the right sums from the node totals, and
scores the split with the regularized gain::

    Gain = 1/2 * [ G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda)
                   - G^2/(H+lambda) ] - gamma

The scan is vectorized across all (feature, cut) pairs via a cumulative
sum over histogram buckets.  :func:`best_split_in_range` operates on a
*feature-major flat* histogram slice covering features ``[f_lo, f_hi)`` —
the exact computation a parameter server runs inside the two-phase pull
UDF (Section 6.3) — and :func:`find_best_split` is the whole-histogram
convenience wrapper used by the single-machine grower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrainingError
from ..histogram.histogram import GradientHistogram
from ..sketch.candidates import CandidateSet


@dataclass(frozen=True)
class SplitDecision:
    """The outcome of a best-split scan.

    ``feature`` is a *global* feature id; ``value`` is the split
    threshold (instances with ``x[feature] < value`` go left);
    ``bucket`` is the cut's index among the feature's candidates.
    ``gain`` includes the 1/2 factor and the ``-gamma`` penalty.
    The child gradient sums let callers compute leaf weights and
    objectives without another histogram pass.
    """

    feature: int
    bucket: int
    value: float
    gain: float
    left_grad: float
    left_hess: float
    right_grad: float
    right_hess: float
    total_grad: float
    total_hess: float

    @property
    def wire_bytes(self) -> int:
        """Size on the wire: "one integer and two floating-point numbers"
        (Section 6.3) plus the child sums piggybacked as four floats."""
        return 4 + 2 * 4 + 4 * 4


def leaf_weight(grad_sum: float, hess_sum: float, reg_lambda: float) -> float:
    """Optimal leaf weight ``-G / (H + lambda)`` (Section 2.2)."""
    denominator = hess_sum + reg_lambda
    if denominator <= 0.0:
        return 0.0
    return -grad_sum / denominator


def _gain_term(
    g: np.ndarray, h: np.ndarray, reg_lambda: float, valid: np.ndarray
) -> np.ndarray:
    """``g^2 / (h + lambda)`` per cut; clears ``valid`` where the
    denominator is not positive."""
    term = h + reg_lambda
    valid &= term > 0.0
    np.divide(np.square(g), term, out=term)
    return term


def best_split_in_range(
    flat_slice: np.ndarray,
    f_lo: int,
    f_hi: int,
    candidates: CandidateSet,
    reg_lambda: float,
    reg_gamma: float = 0.0,
    min_child_weight: float = 0.0,
    feature_valid: np.ndarray | None = None,
) -> SplitDecision | None:
    """Best split among features ``[f_lo, f_hi)`` of a flat histogram slice.

    Args:
        flat_slice: Feature-major flat values (``2 * n_bins`` per feature)
            of the covered features — what one PS shard stores.
        f_lo, f_hi: Global feature range the slice covers.
        candidates: Global candidate cuts (for thresholds and cut counts).
        reg_lambda: L2 regularization on leaf weights.
        reg_gamma: Per-leaf complexity penalty subtracted from the gain.
        min_child_weight: Minimal hessian sum required on each side.
        feature_valid: Optional boolean mask over global features (the
            per-tree feature sampling); unsampled features never split.

    Returns:
        The best :class:`SplitDecision` with positive gain, or None.
    """
    n_features = f_hi - f_lo
    n_bins = candidates.max_bins
    if flat_slice.size != 2 * n_features * n_bins:
        raise TrainingError(
            f"slice has {flat_slice.size} values; features [{f_lo}, {f_hi}) "
            f"with {n_bins} bins need {2 * n_features * n_bins}"
        )
    if n_features == 0:
        return None
    blocks = np.asarray(flat_slice, dtype=np.float64).reshape(n_features, 2, n_bins)

    # Node totals: every feature row sums to the node totals; they are
    # read off the slice's first feature (global feature ``f_lo``), so
    # each partition of a split scan re-derives them from its own first
    # row, equal to the exact totals up to summation rounding.
    total_grad = float(blocks[0, 0].sum())
    total_hess = float(blocks[0, 1].sum())

    # Left sums at cut j = buckets 0..j (prefix sums, dropping the final
    # prefix which would put everything left).  The scan runs bucket-major
    # — (grad|hess, cut, feature) — so every pass below walks contiguous
    # rows of n_features values; the prefix sums are the additions cumsum
    # makes, in its order, as n_bins - 2 row additions.
    left = np.ascontiguousarray(blocks[:, :, : n_bins - 1].transpose(1, 2, 0))
    for cut in range(1, n_bins - 1):
        left[:, cut] += left[:, cut - 1]
    left_g, left_h = left
    right_g = total_grad - left_g
    right_h = total_hess - left_h

    # Validity: cut j exists only for j < n_cuts(feature); both children
    # must satisfy the hessian floor and have positive denominators.
    n_cuts = np.diff(candidates.offsets[f_lo : f_hi + 1])
    valid = np.arange(n_bins - 1)[:, None] < n_cuts
    valid &= left_h >= min_child_weight
    valid &= right_h >= min_child_weight
    if feature_valid is not None:
        valid &= np.asarray(feature_valid[f_lo:f_hi], dtype=bool)

    # Low-precision decoding can make hessian sums slightly negative;
    # suppress the resulting divide warnings and mask those cuts invalid.
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = _gain_term(left_g, left_h, reg_lambda, valid)
        gains += _gain_term(right_g, right_h, reg_lambda, valid)
        gains -= np.square(total_grad) / (total_hess + reg_lambda)
    gains *= 0.5
    gains -= reg_gamma
    valid &= np.isfinite(gains)
    gains = np.where(valid, gains, -np.inf)

    # argmax over the (feature, cut) view: among equal gains the first in
    # feature-major order wins — the order Algorithm 1's serial scan visits.
    local_f, bucket = divmod(int(np.argmax(gains.T)), n_bins - 1)
    best_gain = float(gains[bucket, local_f])
    if not np.isfinite(best_gain) or best_gain <= 0.0:
        return None
    feature = f_lo + local_f
    return SplitDecision(
        feature=feature,
        bucket=bucket,
        value=candidates.split_value(feature, bucket),
        gain=best_gain,
        left_grad=float(left_g[bucket, local_f]),
        left_hess=float(left_h[bucket, local_f]),
        right_grad=float(right_g[bucket, local_f]),
        right_hess=float(right_h[bucket, local_f]),
        total_grad=total_grad,
        total_hess=total_hess,
    )


def find_best_split(
    histogram: GradientHistogram,
    candidates: CandidateSet,
    reg_lambda: float,
    reg_gamma: float = 0.0,
    min_child_weight: float = 0.0,
    feature_valid: np.ndarray | None = None,
) -> SplitDecision | None:
    """Best split over a whole node histogram (Algorithm 1 lines 10-17)."""
    if histogram.n_features != candidates.n_features:
        raise TrainingError(
            f"histogram covers {histogram.n_features} features but candidates "
            f"cover {candidates.n_features}"
        )
    return best_split_in_range(
        histogram.to_flat_feature_major(),
        0,
        histogram.n_features,
        candidates,
        reg_lambda,
        reg_gamma,
        min_child_weight,
        feature_valid,
    )


def combine_shard_decisions(
    decisions: list[SplitDecision | None],
) -> SplitDecision | None:
    """Worker-side phase of two-phase split finding (Section 6.3).

    Each server returned its local optimum; "the worker selects the one
    with the maximal objective gain as the global best split."  The local
    optima include the global optimum, so this is exact.
    """
    best: SplitDecision | None = None
    for decision in decisions:
        if decision is None:
            continue
        if best is None or decision.gain > best.gain:
            best = decision
    return best
