"""Synthetic CTR experiment: bins versus splines on a toy dataset.

Three binary categorical fields define eight segments; a numerical
field in [0, 40] drives the click probability through one smooth curve
per segment. Rows are generated with the numerical value drawn from a
Beta-Binomial distribution (Binomial(40, q) with q ~ Beta(0.9, 1.2))
and Bernoulli labels.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .model import ModelParams, make_interaction, segmentized_curve
from .schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
)
from .transforms import AffineTransform
from .splines import build_uniform
from .training import TrainConfig, evaluate, pack, train

__all__ = [
    "DEFAULT_CURVES",
    "curve_value",
    "generate",
    "build_synthetic_schema",
    "run_comparison",
    "emit_curves",
]

Z_MAX = 40
NUM_SEGMENTS = 8

# Eight qualitatively diverse smooth CTR curves on [0, 40], all staying
# inside (0.1, 0.9): monotone ramps, unimodal bumps, gentle oscillations.
DEFAULT_CURVES = [
    {"family": "logistic", "base": 0.15, "amplitude": 0.60, "center": 15.0, "scale": 4.0},
    {"family": "logistic", "base": 0.75, "amplitude": -0.55, "center": 22.0, "scale": 5.0},
    {"family": "gaussian", "base": 0.15, "amplitude": 0.55, "center": 20.0, "width": 6.0},
    {"family": "gaussian", "base": 0.75, "amplitude": -0.50, "center": 12.0, "width": 5.0},
    {"family": "sin_ramp", "base": 0.30, "slope": 0.012, "amplitude": 0.08, "period": 13.0},
    {"family": "logistic", "base": 0.65, "amplitude": -0.40, "center": 30.0, "scale": 6.0},
    {"family": "gaussian", "base": 0.20, "amplitude": 0.45, "center": 8.0, "width": 4.0},
    {"family": "sin_ramp", "base": 0.60, "slope": -0.008, "amplitude": 0.06, "period": 9.0},
]


# A zero or extreme curve parameter gives an infinity or a NaN, which the
# (0, 1) check refuses; numpy's warnings about it would only repeat that.
@np.errstate(all="ignore")
def curve_value(curve: dict, z) -> np.ndarray:
    """Evaluate one CTR curve at value(s) z."""
    z = np.asarray(z, dtype=float)
    if not isinstance(curve, dict):
        raise ConfigError(f"a curve must be a mapping, got {curve!r}")
    family = curve.get("family")
    try:
        if family == "logistic":
            out = curve["base"] + curve["amplitude"] / (
                1.0 + np.exp(-(z - curve["center"]) / curve["scale"])
            )
        elif family == "gaussian":
            out = curve["base"] + curve["amplitude"] * np.exp(
                -((z - curve["center"]) ** 2) / (2.0 * curve["width"] ** 2)
            )
        elif family == "sin_ramp":
            out = (
                curve["base"]
                + curve["slope"] * z
                + curve["amplitude"] * np.sin(2.0 * math.pi * z / curve["period"])
            )
        else:
            raise ConfigError(f"unknown curve family {family!r}")
    except (KeyError, TypeError, ValueError) as exc:  # a missing or non-numeric parameter
        raise ConfigError(f"curve {curve!r}: {type(exc).__name__} {exc}") from None
    # Written so that NaN fails the check.
    if not np.all((out > 0.0) & (out < 1.0)):
        raise ConfigError(f"curve {curve!r} leaves (0, 1) on [0, 40]")
    return out


def generate(curves, n: int, seed: int):
    """Draw n synthetic rows; returns (raw_rows, labels, segments, z)."""
    if n < 1:
        raise ConfigError(f"row count must be >= 1, got {n}")
    if len(curves) != NUM_SEGMENTS:
        raise ConfigError(f"need {NUM_SEGMENTS} curves, got {len(curves)}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    segments = rng.integers(0, NUM_SEGMENTS, size=n)
    q = rng.beta(0.9, 1.2, size=n)
    z = rng.binomial(Z_MAX, q)
    p = np.empty(n)
    for s in range(NUM_SEGMENTS):
        mask = segments == s
        p[mask] = curve_value(curves[s], z[mask])
    labels = (rng.random(n) < p).astype(float)
    rows = [{**_segment_cells(s), "z": float(zi)} for s, zi in zip(segments, z)]
    return rows, labels, segments, z


def _segment_cells(s) -> dict:
    """The categorical cells of segment `s`: its three bits, high bit first."""
    return {f"c{j}": str((s >> (2 - j)) & 1) for j in range(3)}


def build_synthetic_schema(strategy: str, intervals: int):
    """Schema with three binary categoricals and one numeric field.

    `strategy` is "binned" (uniform bins over [0, 40]) or "spline"
    (`intervals` sub-intervals, i.e. intervals+3 cubic basis functions);
    the numeric value is mapped to [0, 1] by plain min-max scaling.
    """
    if intervals < 1:
        raise ConfigError(f"interval count must be >= 1, got {intervals}")
    if strategy == "binned":
        numeric = BinnedNumerical(np.linspace(0.0, float(Z_MAX), intervals + 1))
    elif strategy == "spline":
        numeric = ContinuousNumerical(
            transform=AffineTransform(0.0, float(Z_MAX)),
            basis=build_uniform(intervals + 3, 3),
        )
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    vocab = {"0": 0, "1": 1}
    return build_schema(
        [
            ("c0", Categorical(dict(vocab), unknown_slot=False)),
            ("c1", Categorical(dict(vocab), unknown_slot=False)),
            ("c2", Categorical(dict(vocab), unknown_slot=False)),
            ("z", numeric),
        ],
        label_kind="binary",
    )


def run_comparison(
    data: tuple,
    interval_counts,
    repeats: int,
    seed: int,
    train_config: TrainConfig,
    block_dim: int,
) -> list:
    """Train binned and spline FFMs at each interval count.

    Returns one record per (strategy, intervals, repeat):
    {"strategy", "intervals", "repeat", "test_loss", "train_loss"}.
    `data` is (train rows, train labels, test rows, test labels), as
    `generate` draws them. Repeats share the dataset and differ only in
    model initialization, which `seed` decides.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    rows_tr, y_tr, rows_te, y_te = data

    records = []
    for strategy in ("binned", "spline"):
        for intervals in interval_counts:
            schema = build_synthetic_schema(strategy, intervals)
            packed_tr = pack(schema, rows_tr, y_tr)
            packed_te = pack(schema, rows_te, y_te)
            interaction = make_interaction("ffm", schema, block_dim)
            for rep in range(repeats):
                entropy = (seed, 0 if strategy == "binned" else 1, intervals, rep)
                init_seed = int(np.random.SeedSequence(entropy).generate_state(1)[0])
                model, metrics = train(
                    train_config, schema, interaction, packed_tr, init_seed=init_seed
                )
                test = evaluate(model, packed_te)
                records.append(
                    {
                        "strategy": strategy,
                        "intervals": int(intervals),
                        "repeat": rep,
                        "test_loss": test.cross_entropy,
                        "train_loss": metrics.history[-1]["train_loss"],
                    }
                )
    return records


def emit_curves(model: ModelParams, grid, curves) -> list:
    """Sigmoid-linked segmentized curves per segment, with the ground truth
    of `curves`: records {"segment", "z", "predicted", "truth"}."""
    grid = np.asarray(grid, dtype=float)
    records = []
    for s in range(NUM_SEGMENTS):
        scores = segmentized_curve(model, _segment_cells(s), "z", grid)
        predicted = 1.0 / (1.0 + np.exp(-scores))
        truth = curve_value(curves[s], grid)
        for i, z in enumerate(grid):
            records.append({"segment": s, "z": float(z), "predicted": float(predicted[i]),
                            "truth": float(truth[i])})
    return records
