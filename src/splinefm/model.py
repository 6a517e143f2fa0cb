"""Factorization machine family with per-field reductions.

Covers FM, FFM, FwFM, and the general field-matrixed variant through a
single interaction specification. Continuous (basis-encoded) fields are
collapsed to one vector per field by a sum reduction before pairwise
interactions; one-hot fields pass through unchanged. Reductions are
applied by accumulating per-field sums while scanning the row's entries,
never by materializing block reduction matrices.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .schema import ContinuousNumerical, DatasetSchema, EncodedRow, encode_row

__all__ = [
    "FMIdentity",
    "FFMFieldConcat",
    "FwFMScalars",
    "FmFMMatrices",
    "ModelParams",
    "SparseGrad",
    "init_params",
    "forward",
    "backward",
    "segmentized_curve",
    "fit_span",
    "fit_pairwise_span",
    "save_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# Interaction specifications


@dataclass(frozen=True)
class FMIdentity:
    """Plain FM: shared embedding dim, implicit identity pair matrices."""

    dim: int

    def embed_dim(self, field_id: int) -> int:
        return self.dim

    def pair_score(self, e, f, a, b) -> float:
        return float(a @ b)

    def d_pair_da(self, e, f, a, b) -> np.ndarray:
        return b


@dataclass(frozen=True)
class FFMFieldConcat:
    """FFM: each embedding is a concatenation of per-field blocks.

    The pair (e, f) reads block f of e's vector against block e of f's
    vector, i.e. the implicit pair matrix is P_e^T P_f for block
    extractors P.
    """

    num_fields: int
    block_dim: int

    def embed_dim(self, field_id: int) -> int:
        return self.num_fields * self.block_dim

    def _block(self, vec, fid):
        k = self.block_dim
        return vec[fid * k : (fid + 1) * k]

    def pair_score(self, e, f, a, b) -> float:
        return float(self._block(a, f) @ self._block(b, e))

    def d_pair_da(self, e, f, a, b) -> np.ndarray:
        out = np.zeros_like(a)
        k = self.block_dim
        out[f * k : (f + 1) * k] = self._block(b, e)
        return out


@dataclass(frozen=True)
class FwFMScalars:
    """FwFM: implicit pair matrix s[e, f] * I with a learned symmetric s."""

    strengths: np.ndarray = field(repr=False)  # (m, m) symmetric
    dim: int = 4
    learn: bool = True

    def embed_dim(self, field_id: int) -> int:
        return self.dim

    def pair_score(self, e, f, a, b) -> float:
        return float(self.strengths[e, f] * (a @ b))

    def d_pair_da(self, e, f, a, b) -> np.ndarray:
        return self.strengths[e, f] * b


@dataclass(frozen=True)
class FmFMMatrices:
    """General variant: an explicit matrix per unordered field pair.

    `matrices[(e, f)]` with e <= f has shape (k_e, k_f); the reversed
    orientation uses its transpose. Per-field dims may differ.
    """

    dims: tuple  # per-field embedding dims
    matrices: dict = field(repr=False)  # (e, f) with e <= f -> ndarray
    learn: bool = True

    def embed_dim(self, field_id: int) -> int:
        return self.dims[field_id]

    def matrix(self, e, f) -> np.ndarray:
        return self.matrices[(e, f)] if e <= f else self.matrices[(f, e)].T

    def pair_score(self, e, f, a, b) -> float:
        return float(a @ self.matrix(e, f) @ b)

    def d_pair_da(self, e, f, a, b) -> np.ndarray:
        return self.matrix(e, f) @ b

    def d_pair_db(self, e, f, a, b) -> np.ndarray:
        return self.matrix(e, f).T @ a


InteractionSpec = FMIdentity | FFMFieldConcat | FwFMScalars | FmFMMatrices


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class ModelParams:
    schema: DatasetSchema
    interaction: InteractionSpec
    w0: float
    w: np.ndarray  # (total_features,)
    V: list  # per field: (width_f, k_f) embedding rows

    @property
    def num_parameters(self) -> int:
        n = 1 + self.w.size + sum(v.size for v in self.V)
        if isinstance(self.interaction, FwFMScalars) and self.interaction.learn:
            m = len(self.schema.fields)
            n += m * (m + 1) // 2
        if isinstance(self.interaction, FmFMMatrices) and self.interaction.learn:
            n += sum(M.size for M in self.interaction.matrices.values())
        return n


def init_params(
    schema: DatasetSchema, interaction: InteractionSpec, seed: int = 0
) -> ModelParams:
    """Gaussian embeddings with std 1/sqrt(k_f); bias and linear weights 0."""
    rng = np.random.default_rng(seed)
    V = []
    for f in schema.fields:
        k = interaction.embed_dim(f.field_id)
        std = 1.0 / np.sqrt(k) if k > 0 else 0.0
        V.append(rng.normal(0.0, std, size=(f.width, k)))
    return ModelParams(
        schema=schema,
        interaction=interaction,
        w0=0.0,
        w=np.zeros(schema.total_features),
        V=V,
    )


def make_interaction(
    variant: str, schema: DatasetSchema, dim: int, seed: int = 0
) -> InteractionSpec:
    """Build an interaction spec of the named variant for a schema."""
    m = len(schema.fields)
    if variant == "fm":
        return FMIdentity(dim=dim)
    if variant == "ffm":
        return FFMFieldConcat(num_fields=m, block_dim=dim)
    if variant == "fwfm":
        return FwFMScalars(strengths=np.ones((m, m)), dim=dim)
    if variant == "fmfm":
        dims = tuple(dim for _ in range(m))
        matrices = {
            (e, f): np.eye(dim) for e in range(m) for f in range(e, m)
        }
        return FmFMMatrices(dims=dims, matrices=matrices)
    raise ConfigError(f"unknown model variant {variant!r}")


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class _Slot:
    field_id: int
    p: np.ndarray  # reduced embedding vector
    y: float  # reduced linear term
    entries: list  # (global_index, value, field-local index) feeding this slot


@dataclass
class ForwardTrace:
    slots: list
    score: float
    _row_ref: EncodedRow = None
    _model_ref: object = None


def _build_slots(model: ModelParams, row: EncodedRow) -> list:
    schema = model.schema
    total = schema.total_features
    slots = []
    current = None  # open sum slot (field_id)
    for idx, value, fid in row.entries:
        if not 0 <= idx < total:
            raise ConfigError(f"feature index {idx} out of range for this model")
        fld = schema.fields[fid]
        if not fld.offset <= idx < fld.offset + fld.width:
            raise ConfigError(f"feature index {idx} does not belong to field {fid}")
        local = idx - fld.offset
        contrib_p = value * model.V[fid][local]
        contrib_y = value * model.w[idx]
        if fld.reduction == "sum":
            if current is not None and current.field_id == fid:
                current.p = current.p + contrib_p
                current.y += contrib_y
                current.entries.append((idx, value, local))
            else:
                current = _Slot(fid, contrib_p.copy(), contrib_y, [(idx, value, local)])
                slots.append(current)
        else:
            slots.append(_Slot(fid, contrib_p, contrib_y, [(idx, value, local)]))
            current = None
    return slots


def forward(model: ModelParams, row: EncodedRow) -> tuple[float, ForwardTrace]:
    """Score one encoded row; the trace retains reduced slots for backward."""
    slots = _build_slots(model, row)
    inter = model.interaction
    score = model.w0
    for s in slots:
        score += s.y
    for i in range(len(slots)):
        si = slots[i]
        for j in range(i + 1, len(slots)):
            sj = slots[j]
            score += inter.pair_score(si.field_id, sj.field_id, si.p, sj.p)
    trace = ForwardTrace(slots=slots, score=score, _row_ref=row, _model_ref=model)
    return score, trace


@dataclass
class SparseGrad:
    """Gradients for exactly the parameters touched by one row."""

    w0: float = 0.0
    w: dict = field(default_factory=dict)  # global index -> float
    v: dict = field(default_factory=dict)  # global index -> ndarray
    s: dict = field(default_factory=dict)  # (e, f) e <= f -> float
    m: dict = field(default_factory=dict)  # (e, f) e <= f -> ndarray


def backward(
    model: ModelParams, row: EncodedRow, trace: ForwardTrace, d_score: float
) -> SparseGrad:
    """Differentiate the forward score; returns a sparse gradient."""
    if trace._row_ref is not row or trace._model_ref is not model:
        raise ConfigError("trace does not belong to this (model, row) pair")
    grad = SparseGrad()
    if d_score == 0.0:
        return grad
    grad.w0 = d_score
    inter = model.interaction
    slots = trace.slots
    learn_s = isinstance(inter, FwFMScalars) and inter.learn
    learn_m = isinstance(inter, FmFMMatrices) and inter.learn

    dp = [np.zeros_like(s.p) for s in slots]
    for i in range(len(slots)):
        si = slots[i]
        for j in range(i + 1, len(slots)):
            sj = slots[j]
            e, f = si.field_id, sj.field_id
            dp[i] += inter.d_pair_da(e, f, si.p, sj.p)
            if hasattr(inter, "d_pair_db"):
                dp[j] += inter.d_pair_db(e, f, si.p, sj.p)
            else:
                # Remaining variants are orientation-symmetric.
                dp[j] += inter.d_pair_da(f, e, sj.p, si.p)
            if learn_s:
                key = (e, f)  # slots ordered by field id, so e <= f
                grad.s[key] = grad.s.get(key, 0.0) + d_score * float(si.p @ sj.p)
            if learn_m:
                key = (e, f)
                contrib = d_score * np.outer(si.p, sj.p)
                if key in grad.m:
                    grad.m[key] += contrib
                else:
                    grad.m[key] = contrib

    for slot, g in zip(slots, dp):
        for idx, value, _local in slot.entries:
            grad.w[idx] = grad.w.get(idx, 0.0) + value * d_score
            contrib = (value * d_score) * g
            if idx in grad.v:
                grad.v[idx] += contrib
            else:
                grad.v[idx] = contrib
    return grad


def apply_grad(model: ModelParams, grad: SparseGrad, scale: float = 1.0) -> None:
    """Add `scale * grad` onto the model parameters in place."""
    schema = model.schema
    model.w0 += scale * grad.w0
    for idx, g in grad.w.items():
        model.w[idx] += scale * g
    for idx, g in grad.v.items():
        fid = _field_of(schema, idx)
        model.V[fid][idx - schema.fields[fid].offset] += scale * g
    if grad.s:
        s = model.interaction.strengths
        for (e, f), g in grad.s.items():
            s[e, f] += scale * g
            if e != f:
                s[f, e] += scale * g
    for key, g in grad.m.items():
        model.interaction.matrices[key] += scale * g


def _field_of(schema: DatasetSchema, idx: int) -> int:
    for f in schema.fields:
        if f.offset <= idx < f.offset + f.width:
            return f.field_id
    raise ConfigError(f"feature index {idx} out of range")


# ---------------------------------------------------------------------------
# Segmentized curves and spanning-property fits


def segmentized_curve(model: ModelParams, segment: dict, field_name: str, grid):
    """Raw model scores as a function of one field, the rest held fixed."""
    scores = np.empty(len(grid))
    for i, z in enumerate(grid):
        raw = dict(segment)
        raw[field_name] = z
        score, _ = forward(model, encode_row(model.schema, raw))
        scores[i] = score
    return scores


def _continuous_kind(model: ModelParams, field_name: str) -> ContinuousNumerical:
    kind = model.schema.field_named(field_name).kind
    if not isinstance(kind, ContinuousNumerical):
        raise ConfigError(f"field {field_name!r} is not continuous numerical")
    return kind


def _lstsq_minnorm(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares with column scaling for conditioning."""
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(design / norms, target, rcond=None)
    return coef / norms

def fit_span(model: ModelParams, segment: dict, field_name: str, grid_factor: int = 10):
    """Least-squares fit of a segmentized curve onto the field's basis.

    Returns (alpha, beta, max_residual). The basis sums to one, so the
    constant column is linearly dependent on it; the minimum-norm
    solution is used and only the residual is meaningful, not the
    individual coefficients.
    """
    kind = _continuous_kind(model, field_name)
    ell = kind.basis.num_functions
    u_grid = np.linspace(0.0, 1.0, grid_factor * ell)
    raw_grid = [kind.transform.inverse(u) for u in u_grid]
    curve = segmentized_curve(model, segment, field_name, raw_grid)
    # Evaluate the basis at the points the encoder actually sees.
    u_seen = kind.transform.apply_many(raw_grid)
    design = np.column_stack([kind.basis.eval_many(u_seen), np.ones(len(u_seen))])
    coef = _lstsq_minnorm(design, curve)
    max_residual = float(np.max(np.abs(design @ coef - curve)))
    return coef[:ell], float(coef[ell]), max_residual


def fit_pairwise_span(
    model: ModelParams,
    segment: dict,
    field_e: str,
    field_f: str,
    grid_factor: int = 10,
):
    """Fit a two-field segmentized surface onto the tensor-product basis.

    Returns (alpha, beta, max_residual) where alpha has shape
    (l+1, kappa+1) with row/column 0 holding the coefficients of the
    constant-extended bases (index 0 means the constant function). The
    fit is hierarchical: the additive part (constant, pure-e, pure-f
    columns) is fitted first and genuine cross terms only absorb the
    remaining residual, so a surface with no interaction between the two
    fields yields vanishing alpha[i, j] for i, j >= 1.
    """
    kind_e = _continuous_kind(model, field_e)
    kind_f = _continuous_kind(model, field_f)
    ell = kind_e.basis.num_functions
    kappa = kind_f.basis.num_functions
    u_e = np.linspace(0.0, 1.0, grid_factor * ell)
    u_f = np.linspace(0.0, 1.0, grid_factor * kappa)
    raw_e = [kind_e.transform.inverse(u) for u in u_e]
    raw_f = [kind_f.transform.inverse(u) for u in u_f]

    surface = np.empty((len(raw_e), len(raw_f)))
    for i, ze in enumerate(raw_e):
        raw = dict(segment)
        raw[field_e] = ze
        surface[i] = segmentized_curve(model, raw, field_f, raw_f)
    target = surface.ravel()

    B = kind_e.basis.eval_many(kind_e.transform.apply_many(raw_e))
    C = kind_f.basis.eval_many(kind_f.transform.apply_many(raw_f))
    n_e, n_f = B.shape[0], C.shape[0]
    ones_e = np.ones((n_e, 1))
    ones_f = np.ones((n_f, 1))

    def outer_cols(A_e, A_f):
        # Tensor-product columns on the flattened (e, f) grid.
        return np.einsum("ip,jq->ijpq", A_e, A_f).reshape(
            n_e * n_f, A_e.shape[1] * A_f.shape[1]
        )

    additive = np.column_stack(
        [
            np.ones(n_e * n_f),
            outer_cols(B, ones_f),
            outer_cols(ones_e, C),
        ]
    )
    coef_add = _lstsq_minnorm(additive, target)
    residual = target - additive @ coef_add

    cross = outer_cols(B, C)
    coef_cross = _lstsq_minnorm(cross, residual)
    residual = residual - cross @ coef_cross

    alpha = np.zeros((ell + 1, kappa + 1))
    alpha[1:, 0] = coef_add[1 : 1 + ell]
    alpha[0, 1:] = coef_add[1 + ell :]
    alpha[1:, 1:] = coef_cross.reshape(ell, kappa)
    beta = float(coef_add[0])
    return alpha, beta, float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# Serialization

MODEL_FORMAT_VERSION = 1


def model_to_dict(model: ModelParams) -> dict:
    inter = model.interaction
    if isinstance(inter, FMIdentity):
        idoc = {"variant": "fm", "dim": inter.dim}
    elif isinstance(inter, FFMFieldConcat):
        idoc = {
            "variant": "ffm",
            "num_fields": inter.num_fields,
            "block_dim": inter.block_dim,
        }
    elif isinstance(inter, FwFMScalars):
        idoc = {
            "variant": "fwfm",
            "dim": inter.dim,
            "learn": inter.learn,
            "strengths": inter.strengths.tolist(),
        }
    else:
        idoc = {
            "variant": "fmfm",
            "dims": list(inter.dims),
            "learn": inter.learn,
            "matrices": {
                f"{e},{f}": M.tolist() for (e, f), M in sorted(inter.matrices.items())
            },
        }
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": model.schema.to_dict(),
        "interaction": idoc,
        "w0": model.w0,
        "w": model.w.tolist(),
        "V": [v.tolist() for v in model.V],
    }


def model_from_dict(doc: dict) -> ModelParams:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(f"unsupported model format version {doc.get('format_version')!r}")
    schema = DatasetSchema.from_dict(doc["schema"])
    idoc = doc["interaction"]
    variant = idoc["variant"]
    if variant == "fm":
        inter = FMIdentity(dim=idoc["dim"])
    elif variant == "ffm":
        inter = FFMFieldConcat(num_fields=idoc["num_fields"], block_dim=idoc["block_dim"])
    elif variant == "fwfm":
        inter = FwFMScalars(
            strengths=np.asarray(idoc["strengths"]), dim=idoc["dim"], learn=idoc["learn"]
        )
    elif variant == "fmfm":
        matrices = {
            tuple(int(x) for x in key.split(",")): np.asarray(M)
            for key, M in idoc["matrices"].items()
        }
        inter = FmFMMatrices(dims=tuple(idoc["dims"]), matrices=matrices, learn=idoc["learn"])
    else:
        raise ConfigError(f"unknown model variant {variant!r}")
    return ModelParams(
        schema=schema,
        interaction=inter,
        w0=float(doc["w0"]),
        w=np.asarray(doc["w"], dtype=float),
        V=[np.asarray(v, dtype=float) for v in doc["V"]],
    )


def save_model(model: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> ModelParams:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
