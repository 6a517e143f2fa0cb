"""Mini-batch stochastic training and evaluation.

Rows are packed into per-field index/value arrays once, after which
forward and backward passes are vectorized over the batch dimension.
Evaluation scores come from `model.predict_scores`, the one scorer, and
`train` runs the same forward, `model._field_vectors`, with a per-batch
plan: a narrow field trains dense, through S over its whole table (which
moves only the order of its sums), a wide one over its touched rows. Both
rely on schema-encoded rows contributing exactly one reduced slot per field
(one-hot fields have a single entry; continuous fields are sum-reduced)
and on a row's entries naming distinct rows of its table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .model import ModelParams, PackedData, _field_vectors, init_params, predict_scores
from .schema import ContinuousNumerical, DatasetSchema, _config_int, _encode_columns, table_columns
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

# The values each type of TrainConfig field accepts; int fields go
# through `schema._config_int`, as every integer setting does.
_ACCEPTS = {str: str, bool: bool, float: (int, float)}
# The least and the greatest value of each int field (`epochs` sizes a loop).
_INT_RANGE = {"batch_size": (1, None), "epochs": (1, 100_000), "seed": (0, None)}


@dataclass
class TrainConfig:
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

    def validate(self) -> TrainConfig:
        """Check every setting, turn integral floats into ints and return self."""
        for f in fields(self):
            value, kind, key = getattr(self, f.name), type(f.default), f"train.{f.name}"
            if kind is int:
                setattr(self, f.name, _config_int(value, key, *_INT_RANGE[f.name]))
                continue
            # A bool is an int to isinstance, but a number of neither kind here.
            is_bool = isinstance(value, bool)
            if not isinstance(value, _ACCEPTS[kind]) or is_bool != (kind is bool):
                raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
        if self.optimizer not in ("adagrad", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        # Written so that NaN fails each check.
        for key, ok, need in (
            ("step_size", self.step_size > 0, "> 0"),
            ("l2", self.l2 >= 0, ">= 0"),
            ("adagrad_eps", self.adagrad_eps > 0, "> 0"),
        ):
            value = getattr(self, key)
            if not (ok and math.isfinite(value)):
                raise ConfigError(f"train.{key} must be finite and {need}, got {value!r}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must lie in [0, 1)")
        return self


@dataclass
class Metrics:
    cross_entropy: float | None = None
    rmse: float | None = None
    sample_count: int = 0
    history: list = field(default_factory=list)


def pack(schema: DatasetSchema, table, labels) -> PackedData:
    """Encode a table (columns or row dicts; see `schema.table_columns`) and
    its labels into fixed-width per-field arrays."""
    columns, n = table_columns(table, [f.name for f in schema.fields])
    labels = np.asarray(labels, dtype=float)
    if n is not None and n != labels.size:
        raise DataError(f"{n} rows but {labels.size} labels")
    idx, val = _encode_columns(schema, columns, n)
    return PackedData(idx=idx, val=val, y=labels)


# ---------------------------------------------------------------------------
# The training step: forward and backward over each field's whole table or touched rows


@dataclass
class _BatchGrads:
    """Gradients of one batch: per field, of its whole table or its touched rows."""

    w0: float
    rows: list  # per field: slice(None) if dense, else sorted unique field-local rows
    w: list  # per field: linear-weight gradients of those rows
    V: list  # per field: embedding gradients of those rows, one row each
    tensors: dict  # dense gradients of the interaction's tensors, by name


def _matrix_fields(schema: DatasetSchema, interaction) -> list:
    """Per field, whether `train` runs it dense: where its width is at most
    3·c·k (c entries per row, k embedding columns), so that S (n, width) is
    at most the gather path's three (n, c, k) arrays (`V[idx]` and the
    backward's keys and weights), and where the paths were timed even."""
    out = []
    for f in schema.fields:
        c = f.kind.basis.degree + 1 if isinstance(f.kind, ContinuousNumerical) else 1
        out.append(f.width <= 3 * c * interaction.embed_dim(f.field_id))
    return out


def _touched_rows(idx, width: int):
    """`np.unique(idx, return_inverse=True)`, inverse in idx's shape, from a
    count over the field's `width` rows instead of a sort."""
    uniq = np.flatnonzero(np.bincount(idx.ravel(), minlength=width))
    where = np.empty(width, dtype=np.intp)
    where[uniq] = np.arange(uniq.size)
    return uniq, where[idx]


def _field_batches(schema: DatasetSchema, batch: PackedData, matrix: list) -> list:
    """Per field of `batch`: (rows, inv, S). A dense field (`matrix`, from
    `_matrix_fields`) has rows `slice(None)`, its whole table, no inv, and
    S (n, width), its entry values scattered over the table's rows. Any
    other field has the u table rows it touches, each entry's position
    among them, and no S."""
    out = []
    for fld, idx, val, dense in zip(schema.fields, batch.idx, batch.val, matrix):
        if dense:
            # A row's entries name distinct rows, so no two share a cell of S.
            S = np.zeros((batch.n, fld.width))
            S[np.arange(batch.n)[:, None], idx] = val
            out.append((slice(None), None, S))
        else:
            out.append((*_touched_rows(idx, fld.width), None))
    return out


def _batch_backward(model: ModelParams, batch: PackedData, fbs: list, P, d_score) -> _BatchGrads:
    """Gradients from the forward's P and the score gradients: `Sᵀ @ G_f` and
    `d_score @ S` for a dense field, segment sums on the gather path."""
    G, d_tensors = model.interaction.grads(P, d_score)
    dw, dV = [], []
    for (rows, inv, S), val, G_f in zip(fbs, batch.val, G):
        if S is not None:
            dw.append(d_score @ S)
            dV.append(S.T @ G_f)
            continue
        # np.bincount adds its weights in input order: the (n, c) block in
        # C order for w, column by column for V (G already carries d_score),
        # so each sum equals accumulating the entries one by one.
        u, k = rows.size, G_f.shape[1]
        dw.append(np.bincount(inv.ravel(), (val * d_score[:, None]).ravel(), minlength=u))
        keys = np.ascontiguousarray(inv.T)[:, :, None] * k + np.arange(k)
        weights = np.ascontiguousarray(val.T)[:, :, None] * G_f
        dV.append(np.bincount(keys.ravel(), weights.ravel(), minlength=u * k).reshape(u, k))
    return _BatchGrads(float(d_score.sum()), [fb[0] for fb in fbs], dw, dV, d_tensors)


# ---------------------------------------------------------------------------
# Losses


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _check_labels(label_kind: str, y) -> None:
    """Refuse labels the loss of `label_kind` cannot score: binary labels
    must be 0 or 1, real labels finite."""
    binary = label_kind == "binary"
    ok = (y == 0) | (y == 1) if binary else np.isfinite(y)
    if not ok.all():
        row = int(np.argmin(ok))
        need = "0 or 1" if binary else "finite"
        raise DataError(f"row {row}: label {y[row]} is not {need} (label_kind {label_kind!r})")


def _loss_and_dscore(label_kind: str, scores, y):
    """The mean loss of `label_kind` and its derivative by each score: logloss
    through the logistic link for binary labels, squared error for real ones."""
    if label_kind == "binary":
        p = _sigmoid(scores)
        pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
        value = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log1p(-pc))))
        return value, p - y
    value = float(np.mean((scores - y) ** 2))
    return value, 2.0 * (scores - y)


# ---------------------------------------------------------------------------
# Optimizer state


class _Optimizer:
    def __init__(self, config: TrainConfig, model: ModelParams):
        self.config = config
        # AdaGrad keeps one accumulator per parameter array; SGD keeps None.
        acc = np.zeros_like if config.optimizer == "adagrad" else (lambda a: None)
        self.acc_w0 = acc(np.zeros(1))
        self.acc_w = [acc(w) for w in model.w]
        self.acc_V = [acc(v) for v in model.V]
        self.tensors = {name: (t, acc(t)) for name, t in model.interaction.tensors().items()}

    def step(self, model: ModelParams, g: _BatchGrads) -> None:
        w0 = np.array([model.w0])  # steps as a one-row table
        self._update(w0, self.acc_w0, slice(None), np.array([g.w0]))
        model.w0 = float(w0[0])
        for fid, rows in enumerate(g.rows):
            self._update(model.w[fid], self.acc_w[fid], rows, g.w[fid])
            self._update(model.V[fid], self.acc_V[fid], rows, g.V[fid])
        for name, grad in g.tensors.items():
            self._update(*self.tensors[name], slice(None), grad, decay=False)

    def _update(self, param, acc, rows, grad, decay=True) -> None:
        """Step `param[rows]` (in place) along `grad`; `acc` is the AdaGrad
        accumulator of `param`, or None for SGD."""
        cfg = self.config
        if decay and cfg.l2 > 0.0:
            # The decay term gives every row a gradient, so every row moves.
            dense = np.zeros_like(param)
            dense[rows] = grad
            grad = dense + cfg.l2 * param
            rows = slice(None)
        if acc is None:
            param[rows] -= cfg.step_size * grad
            return
        acc_rows = acc[rows] + grad * grad
        acc[rows] = acc_rows
        param[rows] -= cfg.step_size * grad / (np.sqrt(acc_rows) + cfg.adagrad_eps)


def _tensors(model: ModelParams) -> list:
    """Every trainable array of the model: the w and V tables and the
    interaction's learned tensors (w0 is a float)."""
    return [*model.w, *model.V, *model.interaction.tensors().values()]


def _snapshot(model: ModelParams):
    return model.w0, [t.copy() for t in _tensors(model)]


def _restore(model: ModelParams, snap) -> None:
    model.w0, saved = snap
    for t, t_saved in zip(_tensors(model), saved):
        t[:] = t_saved


# ---------------------------------------------------------------------------
# Training / evaluation


def train(
    config: TrainConfig,
    schema: DatasetSchema,
    interaction,
    data: PackedData,
    init_seed: int | None = None,
    progress=None,
) -> tuple[ModelParams, Metrics]:
    """Train a model; deterministic given config seeds (single worker).

    `holdout_fraction` of the rows are set aside as the holdout; without
    one the final epoch's parameters are returned. `progress`, if given,
    receives one dict per epoch.
    """
    config.validate()
    if data.n == 0:
        raise DataError("cannot train on an empty dataset")
    _check_labels(schema.label_kind, data.y)

    holdout = None
    if config.holdout_fraction > 0.0:
        perm = np.random.default_rng(config.seed).permutation(data.n)
        n_hold = int(round(config.holdout_fraction * data.n))
        holdout = data.subset(perm[:n_hold]) if n_hold else None
        data = data.subset(perm[n_hold:])
        if data.n == 0:
            raise DataError("holdout_fraction leaves no training rows")

    model = init_params(
        schema, interaction, seed=config.seed if init_seed is None else init_seed
    )
    opt = _Optimizer(config, model)
    matrix = _matrix_fields(schema, interaction)
    order_rng = np.random.default_rng(config.seed + 1)

    best_loss = math.inf
    best_snap = None
    history = []
    for epoch in range(config.epochs):
        # One gather per epoch; each batch is then a slice of it.
        shuffled = data.subset(order_rng.permutation(data.n)) if config.shuffle else data
        epoch_loss = 0.0
        for start in range(0, data.n, config.batch_size):
            batch = shuffled.subset(slice(start, start + config.batch_size))
            fbs = _field_batches(schema, batch, matrix)
            P, linear = _field_vectors(model, batch, fbs)
            scores = model.interaction.scores(P, linear)
            loss, d_score = _loss_and_dscore(schema.label_kind, scores, batch.y)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss in epoch {epoch}, batch starting at row {start}"
                )
            epoch_loss += loss * batch.n
            opt.step(model, _batch_backward(model, batch, fbs, P, d_score / batch.n))
        record = {"epoch": epoch, "train_loss": epoch_loss / data.n}
        if holdout is not None:
            h_scores = predict_scores(model, holdout)
            h_loss, _ = _loss_and_dscore(schema.label_kind, h_scores, holdout.y)
            record["holdout_loss"] = h_loss
            if config.select_best and h_loss < best_loss:
                best_loss = h_loss
                best_snap = _snapshot(model)
        history.append(record)
        if progress is not None:
            progress(record)
    if best_snap is not None:
        _restore(model, best_snap)

    # The loss, and `sample_count`, are over the holdout rows if there are any.
    metrics = evaluate(model, data if holdout is None else holdout)
    metrics.history = history
    return model, metrics


def evaluate(model: ModelParams, data: PackedData) -> Metrics:
    """Mean loss over packed rows under the model's label kind: cross-entropy
    for binary labels, root mean squared error for real ones."""
    if data.n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    label_kind = model.schema.label_kind
    _check_labels(label_kind, data.y)
    value, _ = _loss_and_dscore(label_kind, predict_scores(model, data), data.y)
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss {value} over {data.n} rows")
    if label_kind == "binary":
        return Metrics(cross_entropy=value, sample_count=data.n)
    return Metrics(rmse=math.sqrt(value), sample_count=data.n)
