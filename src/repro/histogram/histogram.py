"""The gradient histogram data structure.

For each feature ``m`` and bucket ``k``, ``grad[m, k]`` sums the
first-order gradients of the instances whose feature ``m`` falls in
bucket ``k``, and ``hess[m, k]`` sums the second-order gradients
(Algorithm 1 lines 4-8).  One histogram summarizes one tree node; the
parameter server stores one row of size ``2 * K * M`` floats per node
(Section 4.3, "Parameter Layout").
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError


class GradientHistogram:
    """First/second-order gradient sums per (feature, bucket).

    Attributes:
        grad: float64 array of shape ``(n_features, n_bins)``.
        hess: float64 array of the same shape.
    """

    __slots__ = ("grad", "hess")

    def __init__(self, grad: np.ndarray, hess: np.ndarray) -> None:
        grad = np.asarray(grad, dtype=np.float64)
        hess = np.asarray(hess, dtype=np.float64)
        if grad.ndim != 2 or grad.shape != hess.shape:
            raise DataError(
                f"grad and hess must be equal-shape 2-D arrays, got "
                f"{grad.shape} and {hess.shape}"
            )
        self.grad = grad
        self.hess = hess

    @classmethod
    def zeros(cls, n_features: int, n_bins: int) -> "GradientHistogram":
        """An all-zero histogram of the given layout."""
        return cls(
            np.zeros((n_features, n_bins), dtype=np.float64),
            np.zeros((n_features, n_bins), dtype=np.float64),
        )

    @property
    def n_features(self) -> int:
        """Number of feature rows M."""
        return self.grad.shape[0]

    @property
    def n_bins(self) -> int:
        """Buckets per feature K."""
        return self.grad.shape[1]

    @property
    def wire_bytes(self) -> int:
        """Bytes this histogram occupies on the wire uncompressed.

        Histograms travel as float32 (the paper's 4-byte floats), so the
        size is ``2 * K * M * 4`` bytes.
        """
        return 2 * self.grad.size * 4

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def add_(self, other: "GradientHistogram") -> "GradientHistogram":
        """In-place elementwise sum (the PS merge function). Returns self."""
        self._check_layout(other)
        self.grad += other.grad
        self.hess += other.hess
        return self

    def subtract(self, other: "GradientHistogram") -> "GradientHistogram":
        """Elementwise difference, as a new histogram.

        Used by the histogram-subtraction extension: the sibling's
        histogram equals parent minus child.
        """
        self._check_layout(other)
        return GradientHistogram(self.grad - other.grad, self.hess - other.hess)

    def copy(self) -> "GradientHistogram":
        """Deep copy."""
        return GradientHistogram(self.grad.copy(), self.hess.copy())

    def _check_layout(self, other: "GradientHistogram") -> None:
        if self.grad.shape != other.grad.shape:
            raise DataError(
                f"histogram layout mismatch: {self.grad.shape} vs {other.grad.shape}"
            )

    # ------------------------------------------------------------------
    # totals and slicing
    # ------------------------------------------------------------------

    def totals(self) -> tuple[float, float]:
        """(sum of all gradients G, sum of all hessians H) of the node.

        Every feature row sums to the same node totals, so row 0 suffices;
        using a single row avoids floating-point drift between features.
        """
        return float(self.grad[0].sum()), float(self.hess[0].sum())

    def feature_slice(self, start: int, stop: int) -> "GradientHistogram":
        """Histogram restricted to features ``[start, stop)`` (views)."""
        if not 0 <= start <= stop <= self.n_features:
            raise DataError(
                f"feature_slice [{start}, {stop}) invalid for {self.n_features} features"
            )
        return GradientHistogram(self.grad[start:stop], self.hess[start:stop])

    # ------------------------------------------------------------------
    # wire (de)serialization
    # ------------------------------------------------------------------

    def to_flat_feature_major(self) -> np.ndarray:
        """Flatten with per-feature blocks: ``[g_f, h_f]`` of ``2K`` values.

        This is the layout the parameter server stores: slicing the flat
        vector at multiples of ``2 * n_bins`` keeps whole features
        together, which is what lets a server shard find splits over its
        feature range without seeing the rest (Section 6.3).
        """
        return np.stack([self.grad, self.hess], axis=1).ravel()

    @classmethod
    def from_flat_feature_major(
        cls, flat: np.ndarray, n_features: int, n_bins: int
    ) -> "GradientHistogram":
        """Inverse of :meth:`to_flat_feature_major`."""
        flat = np.asarray(flat, dtype=np.float64)
        expected = 2 * n_features * n_bins
        if flat.size != expected:
            raise DataError(
                f"flat histogram has {flat.size} values, expected {expected}"
            )
        blocks = flat.reshape(n_features, 2, n_bins)
        return cls(blocks[:, 0, :].copy(), blocks[:, 1, :].copy())

    def allclose(self, other: "GradientHistogram", atol: float = 1e-6) -> bool:
        """Approximate equality (test helper)."""
        return (
            self.grad.shape == other.grad.shape
            and np.allclose(self.grad, other.grad, atol=atol)
            and np.allclose(self.hess, other.hess, atol=atol)
        )

    def __repr__(self) -> str:
        return (
            f"GradientHistogram(n_features={self.n_features}, n_bins={self.n_bins})"
        )
