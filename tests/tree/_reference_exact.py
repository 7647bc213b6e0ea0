"""Exact greedy split finding (Section 2.2's "exact method").

"The exact method sorts all the instances by each feature and uses all
possible splits.  When the exact method is too time-consuming, previous
work uses percentiles of feature distribution."  The library's path is
the percentile (histogram) method; this test oracle is the exact
enumerator, for small data and for quantifying the approximation gap.
Never imported by ``src/``.

For each feature the node's instances are sorted by value and every
boundary between distinct values is scored with the same regularized
gain as Algorithm 1 — zeros (absent entries) included, since a sparse
zero is a real value here as everywhere else in this library.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.sparse import CSRMatrix
from repro.errors import TrainingError
from repro.tree.split import SplitDecision


def exact_best_split(
    X: CSRMatrix,
    rows: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    reg_lambda: float,
    reg_gamma: float = 0.0,
    min_child_weight: float = 0.0,
    feature_valid: np.ndarray | None = None,
    csc: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> SplitDecision | None:
    """Best split over *all* boundaries of every feature.

    Args:
        X: The full feature matrix (rows indexed by ``rows``).
        rows: Instance ids belonging to the node.
        grad, hess: Per-instance gradients (full-length arrays).
        reg_lambda, reg_gamma, min_child_weight: As in Algorithm 1.
        feature_valid: Optional feature-sampling mask.
        csc: Optional precomputed ``X.to_csc()`` to amortize the column
            transpose across many node calls.

    Returns:
        The gain-maximal :class:`SplitDecision` (``bucket`` is -1 since
        no binning is involved; ``value`` is the midpoint between the
        adjacent distinct values), or None when no positive-gain split
        exists.

    Complexity: O(M * N log N) per node — the cost the percentile
    method's O(z N + M K) avoids.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) < 2:
        return None
    total_grad = float(grad[rows].sum())
    total_hess = float(hess[rows].sum())
    col_indptr, row_indices, col_values = csc if csc is not None else X.to_csc()
    # Node membership lookup for the per-column gathers.
    in_node = np.zeros(X.n_rows, dtype=bool)
    in_node[rows] = True

    best: SplitDecision | None = None
    node_grad = grad[rows]
    node_hess = hess[rows]
    n_node = len(rows)

    for feature in range(X.n_cols):
        if feature_valid is not None and not feature_valid[feature]:
            continue
        lo, hi = int(col_indptr[feature]), int(col_indptr[feature + 1])
        member = in_node[row_indices[lo:hi]]
        nz_rows = row_indices[lo:hi][member]
        nz_vals = col_values[lo:hi][member].astype(np.float64)
        n_zero = n_node - len(nz_rows)
        if len(nz_rows) == 0:
            continue  # constant zero inside this node: nothing to split
        # Dense value vector of this feature over the node: nonzeros plus
        # the implicit zeros, with their gradient mass.
        values = np.concatenate([nz_vals, np.zeros(n_zero, dtype=np.float64)])
        g_vec = np.concatenate(
            [
                grad[nz_rows],
                np.full(
                    n_zero,
                    (node_grad.sum() - grad[nz_rows].sum()) / n_zero,
                    dtype=np.float64,
                )
                if n_zero
                else np.empty(0, dtype=np.float64),
            ]
        )
        h_vec = np.concatenate(
            [
                hess[nz_rows],
                np.full(
                    n_zero,
                    (node_hess.sum() - hess[nz_rows].sum()) / n_zero,
                    dtype=np.float64,
                )
                if n_zero
                else np.empty(0, dtype=np.float64),
            ]
        )
        order = np.argsort(values, kind="stable")
        sorted_vals = values[order]
        prefix_g = np.cumsum(g_vec[order])
        prefix_h = np.cumsum(h_vec[order])
        # Boundaries only between distinct adjacent values.
        distinct = sorted_vals[1:] != sorted_vals[:-1]
        if not distinct.any():
            continue
        idx = np.nonzero(distinct)[0]
        left_g = prefix_g[idx]
        left_h = prefix_h[idx]
        right_g = total_grad - left_g
        right_h = total_hess - left_h
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                left_g**2 / (left_h + reg_lambda)
                + right_g**2 / (right_h + reg_lambda)
                - total_grad**2 / (total_hess + reg_lambda)
            ) - reg_gamma
        valid = (
            (left_h >= min_child_weight)
            & (right_h >= min_child_weight)
            & (left_h + reg_lambda > 0)
            & (right_h + reg_lambda > 0)
        )
        gains = np.where(valid & np.isfinite(gains), gains, -np.inf)
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if gain <= 0.0:
            continue
        if best is None or gain > best.gain:
            boundary = idx[k]
            threshold = 0.5 * (sorted_vals[boundary] + sorted_vals[boundary + 1])
            best = SplitDecision(
                feature=feature,
                bucket=-1,
                value=float(threshold),
                gain=gain,
                left_grad=float(left_g[k]),
                left_hess=float(left_h[k]),
                right_grad=float(right_g[k]),
                right_hess=float(right_h[k]),
                total_grad=total_grad,
                total_hess=total_hess,
            )
    return best


def exact_split_mask(
    X: CSRMatrix, rows: np.ndarray, feature: int, value: float
) -> np.ndarray:
    """Which of ``rows`` go left under ``x[feature] < value`` (zeros real)."""
    if not 0 <= feature < X.n_cols:
        raise TrainingError(f"feature {feature} out of range [0, {X.n_cols})")
    rows = np.asarray(rows, dtype=np.int64)
    col_indptr, row_indices, col_values = X.to_csc()
    dense = np.zeros(X.n_rows, dtype=np.float64)
    lo, hi = int(col_indptr[feature]), int(col_indptr[feature + 1])
    dense[row_indices[lo:hi]] = col_values[lo:hi]
    return dense[rows] < value
