"""Factorization machine family with per-field reductions.

Covers FM, FFM, FwFM, and the general field-matrixed variant through a
single interaction specification. Continuous (basis-encoded) fields are
collapsed to one vector per field by a sum reduction before pairwise
interactions; one-hot fields pass through unchanged. Rows are scored in
batches of packed per-field arrays (`predict_scores`). Scoring and training
share one forward, `_field_vectors`, where a field's reduction is a sum
over its entries: a gather of its embedding rows (a lookup for a one-hot
field), or in training, for a narrow field, S times its whole table.
"""
from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ConfigError, DataError, NumericalError
from .schema import ContinuousNumerical, DatasetSchema, build_schema, encode_columns, encode_row

__all__ = [
    "FMIdentity",
    "FFMFieldConcat",
    "FwFMScalars",
    "FmFMMatrices",
    "ModelParams",
    "PackedData",
    "init_params",
    "predict_scores",
    "segmentized_curve",
    "save_model",
    "load_model",
]


# ---------------------------------------------------------------------------
# Interaction specifications


class _Interaction:
    """Every variant scores a pair of reduced field vectors as <P_e, M_ef P_f>
    and differs only in M_ef. Every field's vector has the one `width`, so
    the batched kernels take P as one (m, n, width) array. `scores(P, total)`
    adds each pair's scores to `total` (n,) in pair order, e < f, and returns
    it; `grads(P, d_score)` returns G (m, n, width), G[f] = d_score * d score
    / d P[f], and the gradients of `tensors()`.
    """

    @property
    def width(self) -> int:
        """The embedding width of every field."""
        return self.dim

    def scores(self, P, total):
        # Field e's (m - e - 1, n) scores against every later field go in row
        # by row: np.add.reduce sums 8 or more rows pairwise at n = 1.
        for pair_scores in self._field_pair_scores(P):
            for row in pair_scores:
                total += row
        return total

    def tensors(self) -> dict:
        """The arrays the spec learns, by name; empty when it learns none."""
        return {}

    def tensor_parameters(self) -> int:
        """How many free parameters `tensors()` holds."""
        return sum(t.size for t in self.tensors().values())


def _pairs(m: int):
    return combinations(range(m), 2)


@dataclass(frozen=True)
class FMIdentity(_Interaction):
    """Plain FM: shared embedding dim, implicit identity pair matrices."""

    dim: int

    def _field_pair_scores(self, P):
        for e in range(len(P) - 1):
            yield np.einsum("nk,fnk->fn", P[e], P[e + 1 :])

    def grads(self, P, d_score):
        G = np.zeros_like(P)
        for e, f in _pairs(len(P)):
            G[e] += d_score[:, None] * P[f]
            G[f] += d_score[:, None] * P[e]
        return G, {}

    def to_doc(self) -> dict:
        return {"variant": "fm", "dim": self.dim}


@dataclass(frozen=True)
class FFMFieldConcat(_Interaction):
    """FFM: each embedding is a concatenation of per-field blocks.

    The pair (e, f) reads block f of e's vector against block e of f's
    vector, i.e. the implicit pair matrix is P_e^T P_f for block
    extractors P.
    """

    num_fields: int
    block_dim: int

    @property
    def width(self) -> int:
        return self.num_fields * self.block_dim

    def _field_pair_scores(self, P):
        # Q[e, :, f] is block f of P[e]; both operands are views of P.
        m, n = P.shape[:2]
        Q = np.reshape(P, (m, n, m, self.block_dim))
        for e in range(m - 1):
            yield np.einsum("nfk,fnk->fn", Q[e, :, e + 1 :], Q[e + 1 :, :, e])

    def grads(self, P, d_score):
        # Block f of G[e] is d_score * block e of P[f] (a swap of the field
        # axes); + 0.0 makes a -0.0 product the 0.0 a sum from zeros gives.
        m, n, k = len(P), d_score.size, self.block_dim
        blocks = np.reshape(P, (m, n, m, k)) * d_score[:, None, None]
        G = np.add(blocks.transpose(2, 1, 0, 3), 0.0, order="C")
        G[np.arange(m), :, np.arange(m)] = 0.0
        return G.reshape(m, n, m * k), {}

    def to_doc(self) -> dict:
        return {"variant": "ffm", "block_dim": self.block_dim}


@dataclass(frozen=True)
class FwFMScalars(_Interaction):
    """FwFM: implicit pair matrix s[e, f] * I with a learned symmetric s.
    Only the pairs e < f are scored; the diagonal of s is never read."""

    strengths: np.ndarray = field(repr=False)  # (m, m) symmetric
    dim: int = 4

    def _field_pair_scores(self, P):
        for e in range(len(P) - 1):
            yield self.strengths[e, e + 1 :, None] * np.einsum("nk,fnk->fn", P[e], P[e + 1 :])

    def grads(self, P, d_score):
        G = np.zeros_like(P)
        ds = np.zeros_like(self.strengths)
        for e, f in _pairs(len(P)):
            s_ef = self.strengths[e, f]
            G[e] += (s_ef * d_score)[:, None] * P[f]
            G[f] += (s_ef * d_score)[:, None] * P[e]
            g = float(d_score @ np.einsum("nk,nk->n", P[e], P[f]))
            ds[e, f] += g
            ds[f, e] += g
        return G, {"strengths": ds}

    def tensors(self) -> dict:
        return {"strengths": self.strengths}

    def tensor_parameters(self) -> int:
        # One per pair e < f: s[f, e] repeats s[e, f], and no score reads s[e, e].
        m = len(self.strengths)
        return m * (m - 1) // 2

    def to_doc(self) -> dict:
        return {"variant": "fwfm", "dim": self.dim, "strengths": self.strengths.tolist()}


@dataclass(frozen=True)
class FmFMMatrices(_Interaction):
    """General variant: an explicit (dim, dim) matrix per pair of distinct
    fields, stacked in `matrices` (m(m-1)/2, dim, dim) in pair order: (0, 1),
    (0, 2), ..., (m-2, m-1). The model document names pair (e, f)'s matrix
    "e,f" and repeats `dim` once per field as `dims`.
    """

    num_fields: int
    dim: int
    matrices: np.ndarray = field(repr=False)

    def scores(self, P, total):
        # A row's terms (P[e]_k M_kl) P[f]_l go onto 0.0 in order, k then l,
        # as np.einsum("nk,kl,nl->n") adds them but at k = 2 for n <= 2 rows:
        # its order there would move a row's bits with the size of its block.
        m, n, k = P.shape
        terms = np.zeros((n, k * k + 1))
        for M, (e, f) in zip(self.matrices, _pairs(m)):
            terms[:, 1:] = ((P[e][:, :, None] * M) * P[f][:, None, :]).reshape(n, k * k)
            total += np.cumsum(terms, axis=1)[:, -1]
        return total

    def grads(self, P, d_score):
        G, dM = np.zeros_like(P), np.zeros_like(self.matrices)
        for M, dM_ef, (e, f) in zip(self.matrices, dM, _pairs(len(P))):
            G[e] += d_score[:, None] * (P[f] @ M.T)
            G[f] += d_score[:, None] * (P[e] @ M)
            dM_ef += P[e].T @ (d_score[:, None] * P[f])
        return G, {"matrices": dM}

    def tensors(self) -> dict:
        return {"matrices": self.matrices}

    def to_doc(self) -> dict:
        pairs = _pairs(self.num_fields)
        return {
            "variant": "fmfm",
            "dims": [self.dim] * self.num_fields,
            "matrices": {f"{e},{f}": M.tolist() for M, (e, f) in zip(self.matrices, pairs)},
        }


InteractionSpec = FMIdentity | FFMFieldConcat | FwFMScalars | FmFMMatrices


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class ModelParams:
    schema: DatasetSchema
    interaction: InteractionSpec
    w0: float
    w: list  # per field: (width_f,) linear weights
    V: list  # per field: (width_f, k_f) embedding rows

    @property
    def num_parameters(self) -> int:
        """w0, the w and V tables and the interaction's learned tensors."""
        n = 1 + sum(w.size + v.size for w, v in zip(self.w, self.V))
        return n + self.interaction.tensor_parameters()


def init_params(
    schema: DatasetSchema, interaction: InteractionSpec, seed: int = 0
) -> ModelParams:
    """Gaussian embeddings with std 1/sqrt(k_f); bias and linear weights 0.
    The model holds its own copy of the interaction's tensors, so training
    it leaves `interaction` as it was."""
    interaction = copy.deepcopy(interaction)
    rng = np.random.default_rng(seed)
    k = interaction.width
    std = 1.0 / np.sqrt(k) if k > 0 else 0.0
    V = [rng.normal(0.0, std, size=(f.width, k)) for f in schema.fields]
    return ModelParams(
        schema=schema,
        interaction=interaction,
        w0=0.0,
        w=[np.zeros(f.width) for f in schema.fields],
        V=V,
    )


def make_interaction(variant: str, schema: DatasetSchema, dim: int) -> InteractionSpec:
    """Build an interaction spec of the named variant for a schema."""
    m = len(schema.fields)
    if variant == "fm":
        return FMIdentity(dim=dim)
    if variant == "ffm":
        return FFMFieldConcat(num_fields=m, block_dim=dim)
    if variant == "fwfm":
        return FwFMScalars(strengths=np.ones((m, m)), dim=dim)
    if variant == "fmfm":
        matrices = np.tile(np.eye(dim), (m * (m - 1) // 2, 1, 1))
        return FmFMMatrices(num_fields=m, dim=dim, matrices=matrices)
    raise ConfigError(f"unknown model variant {variant!r}")


# ---------------------------------------------------------------------------
# Scoring


@dataclass
class PackedData:
    """Per-field index/value arrays for a whole dataset."""

    idx: list  # per field: (n, c_f) field-local indices
    val: list  # per field: (n, c_f) entry values
    y: np.ndarray  # (n,) labels

    @property
    def n(self) -> int:
        return self.y.size

    def subset(self, rows) -> "PackedData":
        return PackedData(
            idx=[a[rows] for a in self.idx],
            val=[a[rows] for a in self.val],
            y=self.y[rows],
        )


def _field_vectors(model: ModelParams, data: PackedData, plan=None):
    """Reduced field vectors P (m, n, width) and the linear term (n,): the
    one forward, of scoring and training alike. Into P[f], a field whose
    entry in `plan` (`training._field_batches`) holds S writes `S @ V[rows]`;
    any other the sum of the rows its entries name by value, a lookup where
    each row has one entry of 1.0, as packed one-hot fields have (+ 0.0 makes
    -0.0 the sum's 0.0)."""
    P = np.empty((len(data.idx), data.n, model.interaction.width))
    linear = np.full(data.n, model.w0)
    plan = plan or [(None, None, None)] * len(P)
    for (rows, _, S), idx, val, w, V, p in zip(plan, data.idx, data.val, model.w, model.V, P):
        if S is not None:
            np.matmul(S, V[rows], out=p)
            linear += S @ w[rows]
        elif val.shape[1] == 1 and (val == 1.0).all():
            np.add(V[idx[:, 0]], 0.0, out=p)
            linear += w[idx[:, 0]] + 0.0
        else:
            np.einsum("nc,nck->nk", val, V[idx], out=p)
            linear += np.einsum("nc,nc->n", val, w[idx])
    return P, linear


_SCORE_ROWS = 1024  # packed rows per scoring block


def predict_scores(model: ModelParams, data: PackedData) -> np.ndarray:
    """Raw (pre-link) scores for every packed row, in blocks of `_SCORE_ROWS`
    rows. A block's working set is rows × Σ c_f·k_f floats of gathered
    embeddings and rows × Σ k_f of field vectors, so memory is one block plus
    the (n,) scores. A row's score reads only its own row, so the blocks
    change no bit."""
    if data.n <= _SCORE_ROWS:
        P, linear = _field_vectors(model, data)
        return model.interaction.scores(P, linear)
    scores = np.empty(data.n)
    for start in range(0, data.n, _SCORE_ROWS):
        block = slice(start, start + _SCORE_ROWS)
        scores[block] = predict_scores(model, data.subset(block))
    return scores


# ---------------------------------------------------------------------------
# Segmentized curves


def segmentized_curve(model: ModelParams, segment: dict, field_name: str, grid):
    """Raw model scores as a function of one field, the rest held fixed. The
    first point's row is encoded once with `encode_row` and repeated, the
    field's grid as one column with `encode_columns` (bit for bit
    `encode_row`'s arrays), and all points are scored in one
    `predict_scores` call."""
    n = len(grid)
    if not n:
        return np.empty(0)
    idx, val = encode_row(model.schema, {**segment, field_name: grid[0]})
    idx, val = [np.repeat(a, n, axis=0) for a in idx], [np.repeat(a, n, axis=0) for a in val]
    f = model.schema.field_named(field_name)
    column_schema = build_schema([(f.name, f.kind)])
    (idx[f.field_id],), (val[f.field_id],) = encode_columns(column_schema, {field_name: grid})
    return predict_scores(model, PackedData(idx=idx, val=val, y=np.zeros(n)))


def _continuous_kind(model: ModelParams, field_name: str) -> ContinuousNumerical:
    kind = model.schema.field_named(field_name).kind
    if not isinstance(kind, ContinuousNumerical):
        raise ConfigError(f"field {field_name!r} is not continuous numerical")
    return kind


# ---------------------------------------------------------------------------
# Serialization

MODEL_FORMAT_VERSION = 2


def model_to_dict(model: ModelParams) -> dict:
    return {**_model_head(model), "V": [v.tolist() for v in model.V]}


def _model_head(model: ModelParams) -> dict:
    """Every entry of `model_to_dict` but the trailing embedding tables.
    The file holds `w` as one flat list, the per-field vectors in schema
    order; `_model_from_doc` splits it again."""
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "schema": model.schema.to_dict(),
        "interaction": model.interaction.to_doc(),
        "w0": model.w0,
        "w": np.concatenate(model.w).tolist() if model.w else [],
    }


def _array(value, what: str, shape: tuple) -> np.ndarray:
    """`value` as a finite float array of `shape`, else a DataError naming `what`."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{what} is not a numeric array") from None
    if a.size == 0 and 0 in shape:
        a = a.reshape(shape)
    if a.shape != shape:
        raise DataError(f"{what} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise DataError(f"{what} holds a non-finite value")
    return a


def model_from_dict(doc: dict) -> ModelParams:
    """Rebuild a model from its document. Every array is checked against
    the schema's widths and the interaction's dims and must be finite; a
    missing or unknown entry, a wrong shape, a non-finite value, a dim that
    is not a non-negative integer or a schema the schema layer rejects is a
    DataError. Only `MODEL_FORMAT_VERSION` is read."""
    if not isinstance(doc, dict):
        raise DataError("model document is not a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"format version {version!r} is not supported; this splinefm reads version "
            f"{MODEL_FORMAT_VERSION}"
        )
    try:
        return _model_from_doc(doc)
    except KeyError as exc:
        raise DataError(f"model document lacks the entry {exc}") from None
    except (AttributeError, TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"malformed model document: {exc}") from None


def _count(value, key: str) -> int:
    """`value` of the interaction entry `key`, which must be an int >= 0."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise DataError(f"interaction {key} must be a non-negative integer, got {value!r}")
    return value


def _model_from_doc(doc: dict) -> ModelParams:
    schema = DatasetSchema.from_dict(doc["schema"])
    m = len(schema.fields)
    idoc = doc["interaction"]
    variant = idoc["variant"]
    if variant == "fm":
        inter = FMIdentity(dim=_count(idoc["dim"], "dim"))
    elif variant == "ffm":
        inter = FFMFieldConcat(num_fields=m, block_dim=_count(idoc["block_dim"], "block_dim"))
    elif variant == "fwfm":
        strengths = _array(idoc["strengths"], "interaction strengths", (m, m))
        inter = FwFMScalars(strengths=strengths, dim=_count(idoc["dim"], "dim"))
    elif variant == "fmfm":
        dims = [_count(d, "dims") for d in idoc["dims"]]
        if len(dims) != m:
            raise DataError(f"FmFM has {len(dims)} dims, the schema has {m} fields")
        if len(set(dims)) > 1:
            raise DataError(f"FmFM dims {dims} differ; every field has one embedding width")
        dim = dims[0] if dims else 0
        keys = [f"{e},{f}" for e, f in _pairs(m)]
        if set(idoc["matrices"]) != set(keys):
            raise DataError("FmFM pair matrices do not cover exactly the pairs e < f")
        # The stack is built from the checked matrices, never sized by dims alone.
        matrices = [_array(idoc["matrices"][key], f"pair matrix {key}", (dim, dim)) for key in keys]
        inter = FmFMMatrices(m, dim, np.reshape(matrices, (len(keys), dim, dim)))
    else:
        raise DataError(f"unknown model variant {variant!r}")
    unknown = set(idoc) - set(inter.to_doc())
    if unknown:
        raise DataError(f"interaction has unknown entries {', '.join(sorted(unknown))}")
    w0 = float(doc["w0"])
    if not np.isfinite(w0):
        raise DataError("w0 is not finite")
    if len(doc["V"]) != m:
        raise DataError(f"{len(doc['V'])} V tables for {m} fields")
    V = [
        _array(v, f"V table of field {f.name!r}", (f.width, inter.width))
        for f, v in zip(schema.fields, doc["V"])
    ]
    w = _array(doc["w"], "w", (schema.total_features,))
    # `np.split` with no cuts gives one array, so a model with no fields is special.
    cuts = np.cumsum([f.width for f in schema.fields])[:-1]
    return ModelParams(
        schema=schema, interaction=inter, w0=w0, w=np.split(w, cuts) if m else [], V=V
    )


_SAVE_ROWS = 1024  # embedding rows per encoded chunk


def save_model(model: ModelParams, path, v_text=None) -> None:
    """Write `model_to_dict(model)` as JSON, byte for byte what `json.dump`
    writes; a non-finite value is a NumericalError before the file is opened.
    `json.dumps` runs CPython's C encoder, which `json.dump` never uses; each
    table goes out in chunks of rows, so neither the document nor a whole
    table is ever held as one string. `v_text` (internal) maps a field id to
    its V rows' JSON text, one string per row as `export-bins` rendered them
    for `bins.tsv`, which is written in place of encoding that table."""
    arrays = (model.w0, *model.w, *model.V, *model.interaction.tensors().values())
    if not all(np.isfinite(a).all() for a in arrays):
        raise NumericalError(f"model holds a non-finite value; {path} is not written")
    head = json.dumps(_model_head(model))
    with open(path, "w") as fh:
        fh.write(head[:-1])
        fh.write(', "V": [')
        for i, v in enumerate(model.V):
            fh.write(", [" if i else "[")
            chunks = (v[s : s + _SAVE_ROWS].tolist() for s in range(0, len(v), _SAVE_ROWS))
            parts = (v_text or {}).get(i) or (json.dumps(c)[1:-1] for c in chunks)
            for j, part in enumerate(parts):
                fh.write(", " + part if j else part)
            fh.write("]")
        fh.write("]}")


def load_model(path) -> ModelParams:
    """Read a model file; a file that cannot be read, parsed or rebuilt is a
    DataError naming it."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # invalid JSON or text encoding
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"model file {path} nests JSON too deeply to parse") from None
    try:
        return model_from_dict(doc)
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from None
