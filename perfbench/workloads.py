"""The benchmark's workloads and the generators of their inputs.

Every input is drawn here from numpy's generator, seeded by the workload
seed, and written to CSV and YAML files before any timing starts; the
program under test sees only those files. Nothing here imports
`splinefm`, so a change to the package (its synthetic task included)
cannot change what is measured.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

__all__ = ["Workload", "WORKLOADS", "write_inputs", "paper_truth"]


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _zipf_probs(size: int, exponent: float, shift: float = 1.0) -> np.ndarray:
    p = (np.arange(size) + shift) ** -exponent
    return p / p.sum()


# ---------------------------------------------------------------------------
# spline_ctr: skewed integer-valued counters (ties) and small categoricals.

_SITE_EFFECT = np.array([0.4, -0.2, 0.1, 0.6, -0.5, 0.0, 0.3, -0.3, 0.2, -0.1])
_DEVICE_EFFECT = np.array([0.2, -0.1, -0.4, 0.3])


def _draw_spline_ctr(rng: np.random.Generator, n: int):
    site = rng.choice(10, size=n, p=_zipf_probs(10, 1.1))
    device = rng.choice(4, size=n, p=[0.55, 0.3, 0.1, 0.05])
    weekday = rng.integers(0, 7, size=n)
    age_days = rng.geometric(0.02, size=n)
    dwell_s = np.round(rng.lognormal(3.0, 1.0, size=n)).astype(np.int64)
    clicks_7d = rng.negative_binomial(1.5, 0.25, size=n)
    impressions_7d = rng.negative_binomial(2.0, 0.02, size=n)
    price_cents = np.round(rng.lognormal(7.0, 1.1, size=n)).astype(np.int64)
    rank = np.minimum(rng.geometric(0.12, size=n), 60)
    logit = -0.8 + 2.0 * (
        _SITE_EFFECT[site]
        + _DEVICE_EFFECT[device]
        + 0.3 * np.sin(2.0 * math.pi * weekday / 7.0)
        + 0.8 * np.tanh(np.log1p(clicks_7d) - 1.2)
        - 0.15 * np.log1p(age_days)
        + 0.7 * np.exp(-((np.log1p(dwell_s) - 3.0) ** 2) / 1.5)
        - 0.4 * np.log1p(impressions_7d) / 3.0
        + 0.5 * np.tanh(np.log(price_cents + 1.0) - 7.0) * np.where(device == 0, 1.0, -0.5)
        - 0.3 * np.log(rank)
    )
    columns = {
        "site": np.array([f"s{v}" for v in site]),
        "device": np.array([f"d{v}" for v in device]),
        "weekday": np.array([f"w{v}" for v in weekday]),
        "age_days": age_days,
        "dwell_s": dwell_s,
        "clicks_7d": clicks_7d,
        "impressions_7d": impressions_7d,
        "price_cents": price_cents,
        "rank": rank,
    }
    return columns, _sigmoid(logit)


_SPLINE_CTR_CONTINUOUS = (
    "age_days", "dwell_s", "clicks_7d", "impressions_7d", "price_cents", "rank",
)

# ---------------------------------------------------------------------------
# big_vocab: id-like categoricals with long-tailed vocabularies.

_ID_VOCAB = 100_000
_ID_EXPONENT = 0.6
_PRICE_EFFECT = 2.0


def _id_effects(stream: int) -> np.ndarray:
    # Fixed per-id effects, the same for every seed: only sampling varies.
    return np.random.default_rng([7919, stream]).normal(0.0, 0.6, size=_ID_VOCAB)


_ID_FIELDS = ("user_id", "item_id", "query_id")
_ID_PROBS = _zipf_probs(_ID_VOCAB, _ID_EXPONENT, shift=10.0)


def _draw_big_vocab(rng: np.random.Generator, n: int):
    columns = {}
    logit = np.full(n, -1.0)
    for stream, name in enumerate(_ID_FIELDS):
        ids = rng.choice(_ID_VOCAB, size=n, p=_ID_PROBS)
        logit += _id_effects(stream)[ids]
        columns[name] = np.array([f"{name[0]}{v}" for v in ids])
    price = np.round(rng.lognormal(3.0, 0.8, size=n), 2)
    logit += -_PRICE_EFFECT * np.tanh(2.0 * (np.log(price) - 3.0))
    columns["price"] = price
    return columns, _sigmoid(logit)


# ---------------------------------------------------------------------------
# paper_synth: the paper's synthetic task, eight segments with known curves.

Z_MAX = 40


def paper_truth(segment: int, z) -> np.ndarray:
    """True click probability of segment 0..7 (bits c0 c1 c2) at value(s) z.

    Each segment's logit is a base curve plus one curve per categorical
    that is on, so every segment has its own smooth curve and all eight
    lie in what an FFM over (c0, c1, c2, z) can represent: the distance
    from the truth then measures learning, not the model class.
    """
    z = np.asarray(z, dtype=float)
    c0, c1, c2 = (segment >> 2) & 1, (segment >> 1) & 1, segment & 1
    logit = (
        -0.4
        + 1.2 * np.exp(-(((z - 18.0) / 8.0) ** 2))
        + c0 * 0.9 * np.tanh((z - 20.0) / 6.0)
        + c1 * (0.05 * z - 0.7)
        + c2 * 0.6 * np.sin(2.0 * math.pi * z / 16.0)
    )
    return _sigmoid(logit)


def _paper_segments(rng, count):
    # All eight segments, in order, so each curve can be held to its truth.
    return [
        {"c0": str((s >> 2) & 1), "c1": str((s >> 1) & 1), "c2": str(s & 1)}
        for s in range(count)
    ]


def _draw_paper_synth(rng: np.random.Generator, n: int):
    segment = rng.integers(0, 8, size=n)
    z = rng.binomial(Z_MAX, rng.beta(0.9, 1.2, size=n))
    p = paper_truth(segment, z)
    columns = {
        "c0": (segment >> 2) & 1,
        "c1": (segment >> 1) & 1,
        "c2": segment & 1,
        "z": z,
    }
    return columns, p


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    draw: Callable  # (rng, n) -> ({column: array}, true click probability)
    fields: tuple  # schema field declarations, in column order
    variant: str
    dim: int
    train: dict  # the config's train section
    n_train: int
    n_test: int
    export_field: str
    export_bins: int
    curve_field: str
    curve_grid: tuple  # (low, high, points) per curves call
    curve_segments: int
    item_fields: tuple  # fields that differ between a request's candidates
    requests_per_round: int
    candidates: int
    segments: Callable = None  # (rng, count) -> [{field: value}]; default draws rows

    @property
    def columns(self) -> list:
        return [d["name"] for d in self.fields]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="spline_ctr",
            draw=_draw_spline_ctr,
            fields=(
                {"name": "site", "kind": "categorical"},
                {"name": "device", "kind": "categorical"},
                {"name": "weekday", "kind": "categorical"},
                *(
                    {"name": c, "kind": "continuous", "num_functions": 10,
                     "transform": "quantile"}
                    for c in _SPLINE_CTR_CONTINUOUS
                ),
            ),
            variant="ffm",
            dim=4,
            train={"epochs": 3, "batch_size": 256, "step_size": 0.1, "seed": 0,
                   "holdout_fraction": 0.1},
            n_train=6_000,
            n_test=4_000,
            export_field="price_cents",
            export_bins=2_000,
            curve_field="dwell_s",
            curve_grid=(0.0, 300.0, 600),
            curve_segments=2,
            item_fields=("impressions_7d", "price_cents", "rank"),
            requests_per_round=150,
            candidates=20,
        ),
        Workload(
            name="big_vocab",
            draw=_draw_big_vocab,
            fields=(
                *({"name": c, "kind": "categorical"} for c in _ID_FIELDS),
                {"name": "price", "kind": "continuous", "num_functions": 8,
                 "transform": "quantile"},
            ),
            variant="fwfm",
            dim=8,
            train={"epochs": 3, "batch_size": 256, "step_size": 0.05, "seed": 0,
                   "holdout_fraction": 0.1},
            n_train=12_000,
            n_test=8_000,
            export_field="price",
            export_bins=1_000,
            curve_field="price",
            curve_grid=(0.0, 200.0, 1_000),
            curve_segments=2,
            item_fields=("item_id", "price"),
            requests_per_round=400,
            candidates=20,
        ),
        Workload(
            name="paper_synth",
            draw=_draw_paper_synth,
            fields=(
                {"name": "c0", "kind": "categorical"},
                {"name": "c1", "kind": "categorical"},
                {"name": "c2", "kind": "categorical"},
                {"name": "z", "kind": "continuous", "num_functions": 123,
                 "degree": 3, "transform": "minmax"},
            ),
            variant="ffm",
            dim=4,
            train={"epochs": 20, "batch_size": 256, "step_size": 0.1, "seed": 0,
                   "holdout_fraction": 0.1},
            n_train=10_000,
            n_test=20_000,
            export_field="z",
            export_bins=4_000,
            curve_field="z",
            curve_grid=(0.0, 40.0, 1_001),
            curve_segments=8,
            item_fields=("c2", "z"),
            requests_per_round=400,
            candidates=20,
            segments=_paper_segments,
        ),
    )
}


def _write_csv(path: Path, header, columns) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(columns[h] for h in header)))


def write_inputs(w: Workload, seed: int, directory: Path) -> dict:
    """Draw and write every input of one workload run; returns their paths
    and what the checks need: the true test probabilities and the
    segments of the `curves` calls."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "train": directory / "train.csv",
        "test": directory / "test.csv",
        "requests": directory / "requests.csv",
        "config": directory / "config.yaml",
        "export": directory / "export.yaml",
        "run": directory / "run",
    }
    facts = {}
    for stream, part, n in ((0, "train", w.n_train), (1, "test", w.n_test)):
        rng = np.random.default_rng([seed, stream])
        columns, p = w.draw(rng, n)
        columns["label"] = (rng.random(n) < p).astype(np.int64)
        _write_csv(paths[part], w.columns + ["label"], columns)
    facts["test_p"] = p  # the true click probability of each test row

    # Requests: one context row and `candidates` rows of item fields each.
    rng = np.random.default_rng([seed, 2])
    n_req, k = w.requests_per_round, w.candidates
    context, _ = w.draw(rng, n_req)
    items, _ = w.draw(rng, n_req * k)
    columns = {"request": np.repeat(np.arange(n_req), k)}
    for name in w.columns:
        columns[name] = items[name] if name in w.item_fields else np.repeat(context[name], k)
    _write_csv(paths["requests"], ["request"] + w.columns, columns)

    # Segments for `curves`: values for every field but the curve's own.
    rng = np.random.default_rng([seed, 3])
    if w.segments is not None:
        facts["segments"] = w.segments(rng, w.curve_segments)
    else:
        seg_cols, _ = w.draw(rng, w.curve_segments)
        facts["segments"] = [
            {c: str(seg_cols[c][i]) for c in w.columns if c != w.curve_field}
            for i in range(w.curve_segments)
        ]

    config = {
        "data": {"path": str(paths["train"]), "label": "label"},
        "schema": {"fields": [dict(d) for d in w.fields]},
        "model": {"variant": w.variant, "dim": w.dim},
        "train": dict(w.train),
        "output": {"directory": str(paths["run"])},
    }
    with open(paths["config"], "w") as fh:
        yaml.safe_dump(config, fh, sort_keys=False)
    with open(paths["export"], "w") as fh:
        yaml.safe_dump(
            {"export": {"field": w.export_field, "bins": w.export_bins,
                        "mode": "inverse_cdf"}},
            fh,
        )
    return {"paths": paths, **facts}
