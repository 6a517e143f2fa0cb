"""Monotone maps from raw numerical field values to the unit interval.

The default is an empirical quantile transform: piecewise-linear
interpolation through (quantile, level) pairs, which roughly follows the
field's CDF and therefore spreads the data evenly over [0, 1]. An affine
min-max transform is provided for fields that are already well behaved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["Transform", "QuantileTransform", "AffineTransform", "fit_quantile"]

DEFAULT_RESOLUTION = 1000
FIT_SAMPLE_CAP = 100_000


def _check_finite_scalar(z: float, name: str) -> float:
    z = float(z)
    if not math.isfinite(z):
        raise ConfigError(f"{name} must be finite, got {z!r}")
    return z


def _check_finite_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        bad = float(z[~np.isfinite(z)][0])
        raise ConfigError(f"transform input must be finite, got {bad!r}")
    return z


@dataclass(frozen=True)
class QuantileTransform:
    """Piecewise-linear empirical CDF approximation.

    `reference_points[j]` is the empirical quantile at `levels[j]`;
    both sequences are strictly increasing with levels[0] = 0 and
    levels[-1] = 1. Ties between consecutive quantiles are collapsed at
    fit time, so the effective resolution may be smaller than requested.
    """

    reference_points: np.ndarray = field(repr=False)
    levels: np.ndarray = field(repr=False)

    @property
    def resolution(self) -> int:
        return len(self.reference_points) - 1

    def apply(self, z: float) -> float:
        """Map a raw value into [0, 1]; out-of-range values clamp to 0/1."""
        z = _check_finite_scalar(z, "transform input")
        return float(np.interp(z, self.reference_points, self.levels))

    def apply_many(self, z) -> np.ndarray:
        """`apply` over an array; each element equals `apply` bit for bit."""
        z = _check_finite_array(z)
        return np.interp(z, self.reference_points, self.levels)

    def inverse(self, u: float) -> float:
        """Piecewise-linear inverse of apply, defined for u in [0, 1]."""
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise ConfigError(f"inverse argument must lie in [0, 1], got {u!r}")
        return float(np.interp(u, self.levels, self.reference_points))

    def to_dict(self) -> dict:
        return {
            "kind": "quantile",
            "reference_points": self.reference_points.tolist(),
            "levels": self.levels.tolist(),
        }


@dataclass(frozen=True)
class AffineTransform:
    """Min-max normalization onto [0, 1], clamped outside [low, high]."""

    low: float
    high: float

    def __post_init__(self):
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError("affine transform bounds must be finite")
        if self.high <= self.low:
            raise ConfigError(
                f"affine transform needs low < high, got [{self.low}, {self.high}]"
            )

    def apply(self, z: float) -> float:
        z = _check_finite_scalar(z, "transform input")
        u = (z - self.low) / (self.high - self.low)
        return min(max(u, 0.0), 1.0)

    def apply_many(self, z) -> np.ndarray:
        """`apply` over an array; each element equals `apply` bit for bit."""
        u = (_check_finite_array(z) - self.low) / (self.high - self.low)
        # min(max(u, 0), 1) as `apply` computes it (keeps -0.0).
        u = np.where(u < 0.0, 0.0, u)
        return np.where(u > 1.0, 1.0, u)

    def inverse(self, u: float) -> float:
        u = float(u)
        if not 0.0 <= u <= 1.0:
            raise ConfigError(f"inverse argument must lie in [0, 1], got {u!r}")
        return self.low + u * (self.high - self.low)

    def to_dict(self) -> dict:
        return {"kind": "affine", "low": self.low, "high": self.high}


Transform = QuantileTransform | AffineTransform


def transform_from_dict(doc: dict) -> Transform:
    kind = doc.get("kind")
    if kind == "quantile":
        return QuantileTransform(
            reference_points=np.asarray(doc["reference_points"], dtype=float),
            levels=np.asarray(doc["levels"], dtype=float),
        )
    if kind == "affine":
        return AffineTransform(low=float(doc["low"]), high=float(doc["high"]))
    raise ConfigError(f"unknown transform kind {kind!r}")


def fit_quantile(
    values, resolution: int = DEFAULT_RESOLUTION, sample_cap: int = FIT_SAMPLE_CAP
) -> QuantileTransform:
    """Fit an empirical quantile transform to observed field values.

    Quantiles are taken at levels j/resolution for j = 0..resolution on a
    uniformly sub-sampled slice of at most `sample_cap` values; duplicate
    quantiles are merged (keeping the first level) so the reference
    points stay strictly increasing.
    """
    if resolution < 1:
        raise ConfigError(f"resolution must be >= 1, got {resolution}")
    values = np.asarray(values, dtype=float).ravel()
    if values.size == 0:
        raise DataError("cannot fit a quantile transform to an empty sample")
    if not np.isfinite(values).all():
        raise DataError("quantile transform sample contains non-finite values")
    if values.size > sample_cap:
        stride = values.size / sample_cap
        values = values[(np.arange(sample_cap) * stride).astype(np.intp)]
    if values.min() == values.max():
        raise DataError(
            "quantile transform needs at least 2 distinct values; "
            f"all inputs equal {values[0]!r}"
        )
    levels = np.linspace(0.0, 1.0, resolution + 1)
    points = np.quantile(values, levels)
    points, first = np.unique(points, return_index=True)
    levels = levels[np.sort(first)]
    # Survivor levels keep their original quantile positions except the
    # ends, which must pin the observed min/max to exactly 0 and 1.
    levels[0], levels[-1] = 0.0, 1.0
    points.setflags(write=False)
    levels.setflags(write=False)
    return QuantileTransform(reference_points=points, levels=levels)
