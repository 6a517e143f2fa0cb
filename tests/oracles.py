"""Independent oracles shared by the tests.

The oracles lay every field's rows out in one global feature index space
of their own: field after field in schema order, each taking as many
indices as its width. They read the linear weights as one flat vector,
`np.concatenate(model.w)`. So they borrow no layout from splinefm, which
keeps its parameters in per-field tables. `read_table` reads a data file
one dict per row, where splinefm reads it column by column.
`scalar_apply`, `scalar_inverse` and `scalar_basis` map one Python float
at a time, where splinefm maps arrays. `fit_span` and `fit_pairwise_span`
fit segmentized curves and surfaces onto the spline bases by least
squares: the oracles of the spanning property.
"""
import bisect
import collections
import copy
import csv
import tracemalloc

import numpy as np

from splinefm import model as model_module
from splinefm import training
from splinefm.errors import DataError
from splinefm.model import (
    FFMFieldConcat,
    FMIdentity,
    FwFMScalars,
    init_params,
    make_interaction,
    segmentized_curve,
)
from splinefm.schema import Categorical, encode_row
from splinefm.transforms import AffineTransform


def binary_cat():
    return Categorical({"0": 0, "1": 1}, unknown_slot=False)


def offsets(schema) -> list:
    """The first global index of each field: the widths before it, summed."""
    starts, total = [], 0
    for f in schema.fields:
        starts.append(total)
        total += f.width
    return starts


def field_of(schema, idx: int) -> int:
    """The id of the field whose global index range holds `idx`."""
    for f, start in zip(schema.fields, offsets(schema)):
        if start <= idx < start + f.width:
            return f.field_id
    raise AssertionError(idx)


def entries(schema, raw):
    """(global index, value, field id) of every nonzero entry `encode_row`
    gives for `raw`, in field order."""
    idx, val = encode_row(schema, raw)
    return [
        (start + int(i), float(v), f.field_id)
        for f, start, f_idx, f_val in zip(schema.fields, offsets(schema), idx, val)
        for i, v in zip(f_idx[0], f_val[0])
        if v != 0.0
    ]


def random_model(schema, variant, seed, dim=3):
    """A model with random bias, linear weights and interaction tensors."""
    rng = np.random.default_rng(seed)
    inter = make_interaction(variant, schema, dim)
    if variant == "fwfm":
        s = rng.normal(size=inter.strengths.shape)
        inter.strengths[:] = 0.5 * (s + s.T)
    elif variant == "fmfm":
        for key in inter.matrices:
            inter.matrices[key] = rng.normal(size=inter.matrices[key].shape)
    model = init_params(schema, inter, seed=seed + 1)
    model.w0 = float(rng.normal())
    model.w = [rng.normal(size=f.width) for f in schema.fields]
    return model


# ---------------------------------------------------------------------------
# Data files and transforms


def read_table(path, delimiter=",", label="label"):
    """(feature columns by name, labels) of a CSV file, as `cli._read_table`
    reads it, from the rows `csv.DictReader` gives: blank lines skipped,
    None in the cells a short row lacks, a long row's extra cells under the
    key None; a header that repeats a name is an error naming the first such
    name."""
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or str(exc)
        raise DataError(f"cannot read data file {path}: {reason}") from None
    if not rows:
        raise DataError(f"data file {path} has no rows")
    for name, count in collections.Counter(reader.fieldnames).items():
        if count > 1:
            raise DataError(f"data file {path} names column {name!r} more than once")
    if label not in rows[0]:
        raise DataError(f"label column {label!r} not found in {path}")
    labels = []
    for i, row in enumerate(rows):
        try:
            labels.append(float(row[label]))
        except (TypeError, ValueError):
            raise DataError(f"row {i}: cannot parse label {row[label]!r}") from None
    names = [name for name in rows[0] if name not in (None, label)]
    return {name: [row[name] for row in rows] for name in names}, np.array(labels)


def scalar_apply(transform, z: float) -> float:
    """A transform at one point, computed on Python floats."""
    if isinstance(transform, AffineTransform):
        u = (float(z) - transform.low) / (transform.high - transform.low)
        return min(max(u, 0.0), 1.0)
    return float(np.interp(float(z), transform.reference_points, transform.levels))


def scalar_inverse(transform, u: float) -> float:
    """A transform's inverse at one point, computed on Python floats."""
    if isinstance(transform, AffineTransform):
        return transform.low + float(u) * (transform.high - transform.low)
    return float(np.interp(float(u), transform.levels, transform.reference_points))


def scalar_basis(basis, z: float) -> tuple[int, np.ndarray]:
    """(first index, values) of the degree+1 functions of `basis` active at
    `z`, clamped to [0, 1]: the triangular (de Boor) recurrence run on
    Python floats, one point at a time."""
    z = min(max(float(z), 0.0), 1.0)
    d, t = basis.degree, basis.knots.tolist()
    # Knot span: largest s with t[s] <= z < t[s+1]; z == 1 takes the last non-empty one.
    s = min(max(bisect.bisect_right(t, z) - 1, d), basis.num_functions - 1)
    values, left, right = [1.0] + [0.0] * d, [0.0] * (d + 1), [0.0] * (d + 1)
    for j in range(1, d + 1):
        left[j] = z - t[s + 1 - j]
        right[j] = t[s + j] - z
        saved = 0.0
        for r in range(j):
            term = values[r] / (right[r + 1] + left[j - r])
            values[r] = saved + right[r + 1] * term
            saved = left[j - r] * term
        values[j] = saved
    return s - d, np.array(values)


# ---------------------------------------------------------------------------
# Scores: explicit pair matrices and a raw double loop over entries


def explicit_pair_matrix(inter, e, f):
    """Materialize M_{e,f} explicitly, independently of the batched kernels."""
    if isinstance(inter, FMIdentity):
        return np.eye(inter.dim)
    if isinstance(inter, FwFMScalars):
        return inter.strengths[e, f] * np.eye(inter.dim)
    if isinstance(inter, FFMFieldConcat):
        k, m = inter.block_dim, inter.num_fields
        P_e = np.zeros((k, m * k))
        P_e[:, e * k : (e + 1) * k] = np.eye(k)
        P_f = np.zeros((k, m * k))
        P_f[:, f * k : (f + 1) * k] = np.eye(k)
        return P_f.T @ P_e  # block f of x against block e of y
    return inter.matrices[(e, f)] if e < f else inter.matrices[(f, e)].T


def brute_force_score(model, entries):
    """Direct double loop over raw (unreduced) nonzero entries, each a
    (global index, value, field id)."""
    schema = model.schema
    starts = offsets(schema)
    w = np.concatenate(model.w)

    def embed(idx):
        fid = field_of(schema, idx)
        return model.V[fid][idx - starts[fid]]

    score = model.w0
    for idx, x, _fid in entries:
        score += x * w[idx]
    for a in range(len(entries)):
        for b in range(a + 1, len(entries)):
            i, xi, _ = entries[a]
            j, xj, _ = entries[b]
            M = explicit_pair_matrix(model.interaction, field_of(schema, i), field_of(schema, j))
            score += (xi * embed(i)) @ M @ (xj * embed(j))
    return score


def sum_reduced_score(model, raw, field_name):
    """`brute_force_score` of `raw` with the entries of the continuous field
    `field_name` pre-summed into one synthetic feature, the field's first
    row, as a sum reduction does."""
    z = model.schema.field_named(field_name)
    start = offsets(model.schema)[z.field_id]
    w = np.concatenate(model.w)
    summed_p = np.zeros(model.interaction.embed_dim(z.field_id))
    summed_w = 0.0
    reduced = []
    for idx, x, fid in entries(model.schema, raw):
        if fid == z.field_id:
            summed_p = summed_p + x * model.V[fid][idx - start]
            summed_w += x * w[idx]
        else:
            reduced.append((idx, x, fid))
    proxy = copy.deepcopy(model)
    proxy.V[z.field_id][0] = summed_p
    proxy.w[z.field_id][0] = summed_w
    reduced.append((start, 1.0, z.field_id))
    reduced.sort()
    return brute_force_score(proxy, reduced)


# ---------------------------------------------------------------------------
# The spanning property: least-squares fits onto the spline bases


def _lstsq_minnorm(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares with column scaling for conditioning."""
    norms = np.linalg.norm(design, axis=0)
    norms[norms == 0.0] = 1.0
    coef, *_ = np.linalg.lstsq(design / norms, target, rcond=None)
    return coef / norms


# The span fits sample each field's u range at this many points per basis function.
SPAN_GRID_FACTOR = 10


def _span_grid(model, field_name: str):
    """A continuous field's basis size, its span-fit grid (even in u) as raw
    values, and its basis at the points the encoder sees there."""
    kind = model.schema.field_named(field_name).kind
    ell = kind.basis.num_functions
    raw = kind.transform.inverse_many(np.linspace(0.0, 1.0, SPAN_GRID_FACTOR * ell))
    return ell, raw, kind.basis.eval_many(kind.transform.apply_many(raw))


def fit_span(model, segment: dict, field_name: str):
    """Least-squares fit of a segmentized curve onto the field's basis.

    Returns (alpha, beta, max_residual). The basis sums to one, so the
    constant column is linearly dependent on it; the minimum-norm
    solution is used and only the residual is meaningful, not the
    individual coefficients.
    """
    ell, raw_grid, B = _span_grid(model, field_name)
    curve = segmentized_curve(model, segment, field_name, raw_grid)
    design = np.column_stack([B, np.ones(len(raw_grid))])
    coef = _lstsq_minnorm(design, curve)
    max_residual = float(np.max(np.abs(design @ coef - curve)))
    return coef[:ell], float(coef[ell]), max_residual


def span_surface(model, segment: dict, field_e: str, grid_e, field_f: str, grid_f):
    """Raw scores over the grid of (e, f) points, flattened row by row over
    e: one segmentized curve over `field_f` per point of `grid_e`."""
    return np.concatenate(
        [segmentized_curve(model, {**segment, field_e: z}, field_f, grid_f) for z in grid_e]
    )


def fit_pairwise_span(model, segment: dict, field_e: str, field_f: str):
    """Fit a two-field segmentized surface onto the tensor-product basis.

    Returns (alpha, beta, max_residual) where alpha has shape
    (l+1, kappa+1) with row/column 0 holding the coefficients of the
    constant-extended bases (index 0 means the constant function). The
    fit is hierarchical: the additive part (constant, pure-e, pure-f
    columns) is fitted first and genuine cross terms only absorb the
    remaining residual, so a surface with no interaction between the two
    fields yields vanishing alpha[i, j] for i, j >= 1.
    """
    ell, raw_e, B = _span_grid(model, field_e)
    kappa, raw_f, C = _span_grid(model, field_f)
    n_e, n_f = len(raw_e), len(raw_f)
    target = span_surface(model, segment, field_e, raw_e, field_f, raw_f)

    def outer_cols(A_e, A_f):
        # Tensor-product columns on the flattened (e, f) grid.
        return np.einsum("ip,jq->ijpq", A_e, A_f).reshape(
            n_e * n_f, A_e.shape[1] * A_f.shape[1]
        )

    additive = np.column_stack(
        [np.ones(n_e * n_f), outer_cols(B, np.ones((n_f, 1))), outer_cols(np.ones((n_e, 1)), C)]
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
    return alpha, float(coef_add[0]), float(np.max(np.abs(residual)))


# ---------------------------------------------------------------------------
# Finite differences over the parameters a batch gradient covers


def perturb(model, kind, key, h):
    """Add `h` to the parameter `touched_params` names by (kind, key)."""
    if kind == "w0":
        model.w0 += h
    elif kind == "w":
        fid, local = key
        model.w[fid][local] += h
    elif kind == "v":
        fid, local, comp = key
        model.V[fid][local, comp] += h
    elif kind == "s":
        e, f = key
        model.interaction.strengths[e, f] += h
        if e != f:
            model.interaction.strengths[f, e] += h
    elif kind == "m":
        pair, r, c = key
        model.interaction.matrices[pair][r, c] += h


def train_step(model, data, matrix=None):
    """`train`'s forward over `data` as one batch, on the paths `train` picks
    for the model or, if given, on `matrix` (one flag per field: True for
    the dense path, through S). Returns (scores, backward), where
    `backward(d_score)` is `train`'s backward: the batch's `_BatchGrads`."""
    if matrix is None:
        matrix = training._matrix_fields(model.schema, model.interaction)
    fbs = training._field_batches(model.schema, data, matrix)
    P, linear = model_module._field_vectors(model, data, fbs)
    return model.interaction.scores(P, linear), lambda d_score: training._batch_backward(
        model, data, fbs, P, d_score
    )


def dense_grads(model, grad) -> list:
    """Per field, (dw, dV): the batch gradient `grad` (a `_BatchGrads`) as
    whole tables, 0.0 at every row its `rows` do not name. A dense field's
    rows are `slice(None)`, so its gradients are whole tables already."""
    out = []
    for f, rows, dw, dv in zip(model.schema.fields, grad.rows, grad.w, grad.V, strict=True):
        w, V = np.zeros(f.width), np.zeros((f.width, dv.shape[1]))
        w[rows], V[rows] = dw, dv
        out.append((w, V))
    return out


def touched_grads(model, data, grad) -> list:
    """Per field, (rows, dw, dV): the rows the batch `data` names (sorted,
    unique) and `dense_grads` at those rows. Asserts that a gather-path
    field's rows are those and that the gradient is exactly 0.0 at every
    other row."""
    out = []
    for f, rows, (w, V), idx in zip(model.schema.fields, grad.rows, dense_grads(model, grad),
                                    data.idx, strict=True):
        touched = np.unique(idx)
        assert isinstance(rows, slice) or np.array_equal(rows, touched), f.name
        rest = np.setdiff1d(np.arange(f.width), touched)
        assert not w[rest].any() and not V[rest].any(), f.name
        out.append((touched, w[touched], V[touched]))
    return out


def touched_params(model, data, grad):
    """(kind, key, gradient) for every parameter that the batch `data` reads
    and its gradient `grad` covers (`touched_grads`). A strength s[e, f] is
    one parameter stored at (e, f) and (f, e)."""
    out = [("w0", None, grad.w0)]
    for fid, (rows, dw, dv) in enumerate(touched_grads(model, data, grad)):
        for local, gw, gv in zip(rows, dw, dv):
            out.append(("w", (fid, local), gw))
            for comp, gc in enumerate(gv):
                out.append(("v", (fid, local, comp), gc))
    for name, g in grad.tensors.items():
        for pos in np.ndindex(g.shape):
            if name == "strengths":
                if pos[0] <= pos[1]:
                    out.append(("s", pos, g[pos]))
            else:
                pair = tuple(int(i) for i in name.split(","))
                out.append(("m", (pair, *pos), g[pos]))
    return out


def traced_peak(fn) -> int:
    """The peak of the memory Python allocations hold while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
