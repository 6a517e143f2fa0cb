"""Mini-batch stochastic training and evaluation.

Rows are packed into per-field index/value arrays once, after which
forward and backward passes are vectorized over the batch dimension.
This relies on schema-encoded rows contributing exactly one reduced
slot per field (one-hot fields have a single entry; continuous fields
are sum-reduced), so it computes the same scores as the per-row
reference in `model.forward`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .model import (
    FFMFieldConcat,
    FMIdentity,
    FmFMMatrices,
    FwFMScalars,
    ModelParams,
    init_params,
)
from .schema import DatasetSchema, encode_columns
from .schema import encode_row  # noqa: F401  re-exported; perfbench traces training.encode_row

__all__ = [
    "TrainConfig",
    "Metrics",
    "PackedData",
    "pack",
    "train",
    "evaluate",
    "predict_scores",
]

PROB_CLIP = 1e-7


@dataclass
class TrainConfig:
    loss: str = "logloss"  # "logloss" | "squared"
    optimizer: str = "adagrad"  # "adagrad" | "sgd"
    step_size: float = 0.1
    adagrad_eps: float = 1e-8
    batch_size: int = 256
    epochs: int = 10
    l2: float = 0.0
    seed: int = 0
    holdout_fraction: float = 0.0
    shuffle: bool = True
    select_best: bool = True  # keep parameters from the best-holdout epoch

    def validate(self) -> None:
        if self.loss not in ("logloss", "squared"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.optimizer not in ("adagrad", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.step_size <= 0:
            raise ConfigError("step_size must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in [0, 1)")
        if self.l2 < 0:
            raise ConfigError("l2 must be >= 0")


@dataclass
class Metrics:
    cross_entropy: float | None = None
    rmse: float | None = None
    sample_count: int = 0
    history: list = field(default_factory=list)


@dataclass
class PackedData:
    """Per-field index/value arrays for a whole dataset."""

    schema: DatasetSchema
    idx: list  # per field: (n, c_f) field-local indices
    val: list  # per field: (n, c_f) entry values
    y: np.ndarray  # (n,) labels

    @property
    def n(self) -> int:
        return self.y.size

    def subset(self, rows) -> "PackedData":
        return PackedData(
            schema=self.schema,
            idx=[a[rows] for a in self.idx],
            val=[a[rows] for a in self.val],
            y=self.y[rows],
        )


def pack(schema: DatasetSchema, rows, labels) -> PackedData:
    """Encode raw rows (dicts) into fixed-width per-field arrays."""
    rows = list(rows)
    labels = np.asarray(labels, dtype=float)
    if len(rows) != labels.size:
        raise DataError(f"{len(rows)} rows but {labels.size} labels")
    idx, val = encode_columns(schema, rows)
    return PackedData(schema=schema, idx=idx, val=val, y=labels)


# ---------------------------------------------------------------------------
# Vectorized forward / backward


def _field_vectors(model: ModelParams, data: PackedData):
    """Reduced per-field vectors P_f (n, k_f) and the linear term (n,)."""
    schema = model.schema
    P = []
    linear = np.full(data.n, model.w0)
    for f in schema.fields:
        fid = f.field_id
        idx, val = data.idx[fid], data.val[fid]
        P.append(np.einsum("nc,nck->nk", val, model.V[fid][idx]))
        linear += np.einsum("nc,nc->n", val, model.w[idx + f.offset])
    return P, linear


def _pair_batch(inter, e: int, f: int, Pe, Pf) -> np.ndarray:
    if isinstance(inter, FMIdentity):
        return np.einsum("nk,nk->n", Pe, Pf)
    if isinstance(inter, FwFMScalars):
        return inter.strengths[e, f] * np.einsum("nk,nk->n", Pe, Pf)
    if isinstance(inter, FFMFieldConcat):
        k = inter.block_dim
        return np.einsum(
            "nk,nk->n", Pe[:, f * k : (f + 1) * k], Pf[:, e * k : (e + 1) * k]
        )
    return np.einsum("nk,kl,nl->n", Pe, inter.matrix(e, f), Pf)


def predict_scores(model: ModelParams, data: PackedData) -> np.ndarray:
    """Raw (pre-link) scores for every packed row."""
    P, scores = _field_vectors(model, data)
    inter = model.interaction
    m = len(model.schema.fields)
    for e in range(m):
        for f in range(e + 1, m):
            scores = scores + _pair_batch(inter, e, f, P[e], P[f])
    return scores


@dataclass
class _DenseGrads:
    w0: float
    w: np.ndarray
    V: list
    s: np.ndarray | None
    M: dict | None


def _batch_backward(model: ModelParams, data: PackedData, P, d_score) -> _DenseGrads:
    schema = model.schema
    inter = model.interaction
    m = len(schema.fields)
    G = [np.zeros_like(p) for p in P]  # d score / d P_f, per row
    ds = None
    dM = None
    if isinstance(inter, FwFMScalars) and inter.learn:
        ds = np.zeros_like(inter.strengths)
    if isinstance(inter, FmFMMatrices) and inter.learn:
        dM = {key: np.zeros_like(Mat) for key, Mat in inter.matrices.items()}

    for e in range(m):
        for f in range(e + 1, m):
            Pe, Pf = P[e], P[f]
            if isinstance(inter, FMIdentity):
                G[e] += d_score[:, None] * Pf
                G[f] += d_score[:, None] * Pe
            elif isinstance(inter, FwFMScalars):
                s_ef = inter.strengths[e, f]
                G[e] += (s_ef * d_score)[:, None] * Pf
                G[f] += (s_ef * d_score)[:, None] * Pe
                if ds is not None:
                    g = float(d_score @ np.einsum("nk,nk->n", Pe, Pf))
                    ds[e, f] += g
                    ds[f, e] += g
            elif isinstance(inter, FFMFieldConcat):
                k = inter.block_dim
                G[e][:, f * k : (f + 1) * k] += (
                    d_score[:, None] * Pf[:, e * k : (e + 1) * k]
                )
                G[f][:, e * k : (e + 1) * k] += (
                    d_score[:, None] * Pe[:, f * k : (f + 1) * k]
                )
            else:
                Mat = inter.matrix(e, f)
                G[e] += d_score[:, None] * (Pf @ Mat.T)
                G[f] += d_score[:, None] * (Pe @ Mat)
                if dM is not None:
                    dM[(e, f)] += Pe.T @ (d_score[:, None] * Pf)

    dw = np.zeros_like(model.w)
    dV = [np.zeros_like(v) for v in model.V]
    for fld in schema.fields:
        fid = fld.field_id
        idx, val = data.idx[fid], data.val[fid]
        np.add.at(dw, idx + fld.offset, val * d_score[:, None])
        # G already carries the d_score factor from the pair loop.
        for c in range(idx.shape[1]):
            np.add.at(dV[fid], idx[:, c], val[:, c, None] * G[fid])
    return _DenseGrads(w0=float(d_score.sum()), w=dw, V=dV, s=ds, M=dM)


# ---------------------------------------------------------------------------
# Losses


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _loss_and_dscore(loss: str, scores, y):
    if loss == "logloss":
        p = _sigmoid(scores)
        pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
        value = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))))
        return value, p - y
    value = float(np.mean((scores - y) ** 2))
    return value, 2.0 * (scores - y)


def _mean_loss(loss: str, scores, y) -> float:
    value, _ = _loss_and_dscore(loss, scores, y)
    return value


# ---------------------------------------------------------------------------
# Optimizer state


class _Optimizer:
    def __init__(self, config: TrainConfig, model: ModelParams):
        self.config = config
        inter = model.interaction
        self.learn_s = isinstance(inter, FwFMScalars) and inter.learn
        self.learn_m = isinstance(inter, FmFMMatrices) and inter.learn
        if config.optimizer == "adagrad":
            self.acc_w0 = 0.0
            self.acc_w = np.zeros_like(model.w)
            self.acc_V = [np.zeros_like(v) for v in model.V]
            self.acc_s = np.zeros_like(inter.strengths) if self.learn_s else None
            self.acc_M = (
                {k: np.zeros_like(M) for k, M in inter.matrices.items()}
                if self.learn_m
                else None
            )

    def step(self, model: ModelParams, g: _DenseGrads) -> None:
        cfg = self.config
        lr = cfg.step_size
        if cfg.l2 > 0.0:
            g.w0 += cfg.l2 * model.w0
            g.w += cfg.l2 * model.w
            for dv, v in zip(g.V, model.V):
                dv += cfg.l2 * v
        if cfg.optimizer == "sgd":
            model.w0 -= lr * g.w0
            model.w -= lr * g.w
            for v, dv in zip(model.V, g.V):
                v -= lr * dv
            if self.learn_s and g.s is not None:
                model.interaction.strengths[:] -= lr * g.s
            if self.learn_m and g.M is not None:
                for key, dM in g.M.items():
                    model.interaction.matrices[key][:] -= lr * dM
            return
        eps = cfg.adagrad_eps
        self.acc_w0 += g.w0 * g.w0
        model.w0 -= lr * g.w0 / (math.sqrt(self.acc_w0) + eps)
        self.acc_w += g.w * g.w
        model.w -= lr * g.w / (np.sqrt(self.acc_w) + eps)
        for v, dv, acc in zip(model.V, g.V, self.acc_V):
            acc += dv * dv
            v -= lr * dv / (np.sqrt(acc) + eps)
        if self.learn_s and g.s is not None:
            self.acc_s += g.s * g.s
            model.interaction.strengths[:] -= lr * g.s / (np.sqrt(self.acc_s) + eps)
        if self.learn_m and g.M is not None:
            for key, dM in g.M.items():
                acc = self.acc_M[key]
                acc += dM * dM
                model.interaction.matrices[key][:] -= lr * dM / (np.sqrt(acc) + eps)


def _snapshot(model: ModelParams):
    inter = model.interaction
    extra = None
    if isinstance(inter, FwFMScalars):
        extra = inter.strengths.copy()
    elif isinstance(inter, FmFMMatrices):
        extra = {k: M.copy() for k, M in inter.matrices.items()}
    return (model.w0, model.w.copy(), [v.copy() for v in model.V], extra)


def _restore(model: ModelParams, snap) -> None:
    w0, w, V, extra = snap
    model.w0 = w0
    model.w[:] = w
    for v, vs in zip(model.V, V):
        v[:] = vs
    inter = model.interaction
    if isinstance(inter, FwFMScalars) and extra is not None:
        inter.strengths[:] = extra
    elif isinstance(inter, FmFMMatrices) and extra is not None:
        for k, M in extra.items():
            inter.matrices[k][:] = M


# ---------------------------------------------------------------------------
# Training / evaluation


def train(
    config: TrainConfig,
    schema: DatasetSchema,
    interaction,
    data: PackedData,
    holdout: PackedData | None = None,
    init_seed: int | None = None,
    progress=None,
) -> tuple[ModelParams, Metrics]:
    """Train a model; deterministic given config seeds (single worker).

    `holdout` overrides splitting by `holdout_fraction`; when neither is
    present the final epoch's parameters are returned. `progress`, if
    given, receives one dict per epoch.
    """
    config.validate()
    if data.n == 0:
        raise DataError("cannot train on an empty dataset")
    if schema.label_kind == "binary" and not np.isin(data.y, (0.0, 1.0)).all():
        raise DataError("binary label_kind requires 0/1 labels")

    if holdout is None and config.holdout_fraction > 0.0:
        rng = np.random.default_rng(config.seed)
        perm = rng.permutation(data.n)
        n_hold = int(round(config.holdout_fraction * data.n))
        holdout = data.subset(perm[:n_hold])
        data = data.subset(perm[n_hold:])
        if data.n == 0:
            raise DataError("holdout_fraction leaves no training rows")

    model = init_params(
        schema, interaction, seed=config.seed if init_seed is None else init_seed
    )
    opt = _Optimizer(config, model)
    order_rng = np.random.default_rng(config.seed + 1)

    best_loss = math.inf
    best_snap = None
    metrics = Metrics(sample_count=data.n)
    for epoch in range(config.epochs):
        order = order_rng.permutation(data.n) if config.shuffle else np.arange(data.n)
        epoch_loss = 0.0
        for start in range(0, data.n, config.batch_size):
            batch = data.subset(order[start : start + config.batch_size])
            P, scores = _field_vectors(model, batch)
            inter = model.interaction
            m = len(schema.fields)
            for e in range(m):
                for f in range(e + 1, m):
                    scores = scores + _pair_batch(inter, e, f, P[e], P[f])
            loss, d_score = _loss_and_dscore(config.loss, scores, batch.y)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch}, batch starting at row {start}"
                )
            epoch_loss += loss * batch.n
            opt.step(model, _batch_backward(model, batch, P, d_score / batch.n))
        record = {"epoch": epoch, "train_loss": epoch_loss / data.n}
        if holdout is not None and holdout.n > 0:
            h_loss = _mean_loss(config.loss, predict_scores(model, holdout), holdout.y)
            record["holdout_loss"] = h_loss
            if config.select_best and h_loss < best_loss:
                best_loss = h_loss
                best_snap = _snapshot(model)
        metrics.history.append(record)
        if progress is not None:
            progress(record)
    if best_snap is not None:
        _restore(model, best_snap)

    final = evaluate(model, holdout if holdout is not None and holdout.n else data, config.loss)
    metrics.cross_entropy = final.cross_entropy
    metrics.rmse = final.rmse
    return model, metrics


def evaluate(model: ModelParams, data: PackedData, loss: str = "logloss") -> Metrics:
    """Mean loss over packed rows; logloss goes through the logistic link."""
    if data.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    scores = predict_scores(model, data)
    metrics = Metrics(sample_count=data.n)
    if loss == "logloss":
        metrics.cross_entropy = _mean_loss("logloss", scores, data.y)
    elif loss == "squared":
        metrics.rmse = float(np.sqrt(np.mean((scores - data.y) ** 2)))
    else:
        raise ConfigError(f"unknown loss {loss!r}")
    return metrics
