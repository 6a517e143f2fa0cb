"""Clamped uniform B-spline basis on the unit interval.

`eval_batch` is the one evaluation: the local triangular (de Boor) scheme
over the degree+1 functions active at each point of an array, so the cost
per point is O(degree^2) regardless of the basis size. It runs row by row,
so a point's values do not depend on the points evaluated with it:
`schema.encode_columns` evaluates the points of several fields that share
a basis in one call. `eval_sparse` and `eval_many` are views of its result.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = ["SplineBasis", "build_uniform"]


@dataclass(frozen=True)
class SplineBasis:
    """Immutable basis of `num_functions` B-splines of the given degree.

    The knot vector follows from those two: it is clamped (end knots
    repeated degree+1 times) with uniformly spaced interior break-points,
    so the basis interpolates at 0 and 1 and forms a partition of unity on
    the whole interval. Two bases compare and hash equal when their degree
    and size are equal.
    """

    degree: int
    num_functions: int
    knots: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.degree
        if d < 0:
            raise ConfigError(f"degree must be non-negative, got {d}")
        if self.num_functions < d + 1:
            raise ConfigError(
                f"need at least degree+1 = {d + 1} basis functions, "
                f"got {self.num_functions}"
            )
        breaks = np.linspace(0.0, 1.0, self.num_functions - d + 1)
        knots = np.concatenate([np.zeros(d), breaks, np.ones(d)])
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    def eval_sparse(self, z: float) -> tuple[int, np.ndarray]:
        """`eval_batch` at the one point `z`: (first_index, values)."""
        first, values = self.eval_batch(z)
        return int(first[0]), values[0]

    def eval_batch(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the degree+1 active functions at every point of `z`.

        Returns (first[n], values[n, degree+1]) such that values[r, i] is
        basis function first[r]+i evaluated at z[r]; all other functions
        vanish there. Out-of-range points are clamped to [0, 1]. Each row
        depends on its own point only.
        """
        z = np.asarray(z, dtype=float).ravel()
        if not np.isfinite(z).all():
            bad = float(z[~np.isfinite(z)][0])
            raise ConfigError(f"cannot evaluate basis at non-finite point {bad!r}")
        # Clamp to [0, 1], keeping -0.0 as min(max(z, 0.0), 1.0) does.
        z = np.where(z < 0.0, 0.0, z)
        z = np.where(z > 1.0, 1.0, z)
        d = self.degree
        t = self.knots
        # Knot span: largest s with t[s] <= z < t[s+1]; z == 1 takes the last non-empty one.
        s = np.searchsorted(t, z, side="right") - 1
        s = np.minimum(np.maximum(s, d), self.num_functions - 1)

        # Triangular scheme ("BasisFuns"), one contiguous row per function
        # while it runs: a column of an (n, d+1) array is strided, which
        # slows large batches.
        values = np.empty((d + 1, z.size))
        left = np.empty((d + 1, z.size))
        right = np.empty((d + 1, z.size))
        values[0] = 1.0
        for j in range(1, d + 1):
            left[j] = z - t[s + 1 - j]
            right[j] = t[s + j] - z
            saved = np.zeros(z.size)
            for r in range(j):
                denom = right[r + 1] + left[j - r]
                term = values[r] / denom
                values[r] = saved + right[r + 1] * term
                saved = left[j - r] * term
            values[j] = saved
        del left, right  # before the transposed copy, so the peak stays 3 arrays
        return s - d, np.ascontiguousarray(values.T)

    def eval_many(self, z: np.ndarray) -> np.ndarray:
        """Dense basis matrix of shape (len(z), num_functions)."""
        first, values = self.eval_batch(z)
        out = np.zeros((first.size, self.num_functions))
        rows = np.arange(first.size)[:, None]
        out[rows, first[:, None] + np.arange(self.degree + 1)] = values
        return out

    def to_dict(self) -> dict:
        return {"degree": self.degree, "num_functions": self.num_functions}

    @staticmethod
    def from_dict(doc: dict) -> "SplineBasis":
        return build_uniform(doc["num_functions"], doc["degree"])


def build_uniform(num_functions: int, degree: int = 3) -> SplineBasis:
    """Build a clamped basis with uniformly spaced interior break-points.

    `num_functions` must be at least degree+1; the basis then has
    num_functions - degree sub-intervals.
    """
    return SplineBasis(degree=degree, num_functions=num_functions)
