"""Monotone maps from raw numerical field values to the unit interval.

The default is an empirical quantile transform: piecewise-linear
interpolation through (quantile, level) pairs, which roughly follows the
field's CDF and therefore spreads the data evenly over [0, 1]. An affine
min-max transform is provided for fields that are already well behaved.
Each transform maps arrays (`apply_many`, `inverse_many`); `apply` maps
one value through `apply_many`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

__all__ = ["Transform", "QuantileTransform", "AffineTransform", "fit_quantile"]

DEFAULT_RESOLUTION = 1000
FIT_SAMPLE_CAP = 100_000


def _check_finite_array(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        bad = float(z[~np.isfinite(z)][0])
        raise ConfigError(f"transform input must be finite, got {bad!r}")
    return z


def _check_unit_array(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    outside = ~((u >= 0.0) & (u <= 1.0))  # NaN too
    if outside.any():
        raise ConfigError(f"inverse argument must lie in [0, 1], got {float(u[outside][0])!r}")
    return u


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

    def __post_init__(self):
        shape = np.shape(self.reference_points)
        if len(shape) != 1 or shape[0] < 2 or np.shape(self.levels) != shape:
            raise ConfigError("quantile transform needs >= 2 reference points, one level each")
        # Written so that NaN fails each check.
        points, levels = np.asarray(self.reference_points), np.asarray(self.levels)
        if not (np.isfinite(points).all() and (np.diff(points) > 0).all()):
            raise ConfigError("quantile reference points must be finite and strictly increasing")
        if not ((np.diff(levels) > 0).all() and levels[0] == 0.0 and levels[-1] == 1.0):
            raise ConfigError("quantile levels must increase strictly from 0 to 1")

    def apply(self, z: float) -> float:
        """`apply_many` of the one value `z`."""
        return float(self.apply_many(z))

    def apply_many(self, z) -> np.ndarray:
        """Map raw values into [0, 1]; out-of-range values clamp to 0/1."""
        z = _check_finite_array(z)
        return np.interp(z, self.reference_points, self.levels)

    def inverse_many(self, u) -> np.ndarray:
        """Piecewise-linear inverse of `apply_many` at each u, which must lie in [0, 1]."""
        return np.interp(_check_unit_array(u), self.levels, self.reference_points)

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
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ConfigError("affine transform bounds must be finite")
        if self.high <= self.low:
            raise ConfigError(
                f"affine transform needs low < high, got [{self.low}, {self.high}]"
            )

    def apply(self, z: float) -> float:
        """`apply_many` of the one value `z`."""
        return float(self.apply_many(z))

    def apply_many(self, z) -> np.ndarray:
        """Map raw values onto [0, 1], clamping outside [low, high]."""
        u = (_check_finite_array(z) - self.low) / (self.high - self.low)
        # Clamp to [0, 1], keeping -0.0 as min(max(u, 0.0), 1.0) does.
        u = np.where(u < 0.0, 0.0, u)
        return np.where(u > 1.0, 1.0, u)

    def inverse_many(self, u) -> np.ndarray:
        """Inverse of `apply_many` at each u, which must lie in [0, 1]."""
        return self.low + _check_unit_array(u) * (self.high - self.low)

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


def fit_quantile(values, resolution: int = DEFAULT_RESOLUTION) -> QuantileTransform:
    """Fit an empirical quantile transform to observed field values.

    Quantiles are taken at levels j/resolution for j = 0..resolution on a
    uniformly sub-sampled slice of at most `FIT_SAMPLE_CAP` values; duplicate
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
    if values.size > FIT_SAMPLE_CAP:
        stride = values.size / FIT_SAMPLE_CAP
        values = values[(np.arange(FIT_SAMPLE_CAP) * stride).astype(np.intp)]
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
