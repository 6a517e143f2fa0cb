"""Clamped uniform B-spline basis on the unit interval.

Evaluation uses the local triangular (de Boor) scheme over the degree+1
functions active at a point, so the cost per point is O(degree^2)
regardless of the basis size. `eval_batch` runs the same scheme over a
whole array of points at once, row by row, so a point's values do not
depend on the points evaluated with it: `schema.encode_columns` evaluates
the points of several fields that share a basis in one call.
"""
from __future__ import annotations

import math
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
        """Evaluate the degree+1 functions active at `z`.

        Returns (first_index, values) such that values[i] is basis
        function first_index+i evaluated at `z`; all other functions
        vanish there. Out-of-range `z` is clamped to [0, 1].
        """
        if not math.isfinite(z):
            raise ConfigError(f"cannot evaluate basis at non-finite point {z!r}")
        z = min(max(float(z), 0.0), 1.0)
        d = self.degree
        t = self.knots
        # Knot span: largest s with t[s] <= z < t[s+1]; z == 1 uses the
        # last non-empty span so the clamped end stays well defined.
        s = int(np.searchsorted(t, z, side="right")) - 1
        s = min(max(s, d), self.num_functions - 1)

        # Triangular scheme ("BasisFuns"): builds degrees 0..d in place.
        values = np.empty(d + 1)
        left = np.empty(d + 1)
        right = np.empty(d + 1)
        values[0] = 1.0
        for j in range(1, d + 1):
            left[j] = z - t[s + 1 - j]
            right[j] = t[s + j] - z
            saved = 0.0
            for r in range(j):
                denom = right[r + 1] + left[j - r]
                term = values[r] / denom
                values[r] = saved + right[r + 1] * term
                saved = left[j - r] * term
            values[j] = saved
        return s - d, values

    def eval_batch(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the degree+1 active functions at every point of `z`.

        Returns (first[n], values[n, degree+1]) with the meaning of
        `eval_sparse` row by row. The recurrence is the same, with the
        same operations in the same order, vectorized over points, so
        each row equals `eval_sparse` of that point bit for bit.
        """
        z = np.asarray(z, dtype=float).ravel()
        if not np.isfinite(z).all():
            bad = float(z[~np.isfinite(z)][0])
            raise ConfigError(f"cannot evaluate basis at non-finite point {bad!r}")
        # min(max(z, 0), 1) as the scalar path computes it (keeps -0.0).
        z = np.where(z < 0.0, 0.0, z)
        z = np.where(z > 1.0, 1.0, z)
        d = self.degree
        t = self.knots
        s = np.searchsorted(t, z, side="right") - 1
        s = np.minimum(np.maximum(s, d), self.num_functions - 1)

        # One contiguous row per function while the recurrence runs: a
        # column of an (n, d+1) array is strided, which slows large batches.
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
