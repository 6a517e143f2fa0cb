import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest
from oracles import (
    binary_cat,
    brute_force_score,
    entries,
    fit_pairwise_span,
    fit_span,
    offsets,
    pair_loop_scores,
    perturb,
    random_model,
    span_surface,
    sum_reduced_score,
    touched_params,
    traced_peak,
    train_step,
)

from splinefm import model as model_module
from splinefm import training
from splinefm.errors import DataError, NumericalError
from splinefm.model import (
    FFMFieldConcat,
    FMIdentity,
    FmFMMatrices,
    FwFMScalars,
    ModelParams,
    PackedData,
    init_params,
    load_model,
    make_interaction,
    model_from_dict,
    model_to_dict,
    predict_scores,
    save_model,
    segmentized_curve,
)
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
    encode_row,
)
from splinefm.splines import build_uniform
from splinefm.training import pack
from splinefm.transforms import AffineTransform

VARIANTS = ("fm", "ffm", "fwfm", "fmfm")


def small_schema():
    return build_schema(
        [
            ("a", binary_cat()),
            ("b", Categorical({"p": 0, "q": 1, "r": 2}, unknown_slot=False)),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )


def score(model, raw):
    """The raw score of one raw row."""
    return predict_scores(model, pack(model.schema, [raw], [0.0]))[0]


def identity_schema():
    # Identity reductions only: categorical/binned fields.
    return build_schema(
        [
            ("a", binary_cat()),
            ("b", Categorical({"p": 0, "q": 1, "r": 2}, unknown_slot=False)),
            ("c", BinnedNumerical(np.array([0.0, 1.0]))),
        ]
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_matches_brute_force_identity_reductions(variant):
    # The batched forward pass over rows of one entry per field, each with
    # an arbitrary value.
    schema = identity_schema()
    rng = np.random.default_rng(7)
    model = random_model(schema, variant, seed=11)
    n = 20
    local = [rng.integers(0, f.width, size=(n, 1)) for f in schema.fields]
    value = [rng.normal(size=(n, 1)) for _ in schema.fields]
    scores = predict_scores(model, PackedData(idx=local, val=value, y=np.zeros(n)))
    for r in range(n):
        row = [(start + int(local[f.field_id][r, 0]), float(value[f.field_id][r, 0]), f.field_id)
               for f, start in zip(schema.fields, offsets(schema))]
        expected = brute_force_score(model, row)
        assert scores[r] == pytest.approx(expected, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_hot_lookup_equals_the_sum_over_entries_bitwise(variant):
    # The forward looks a packed one-hot field's rows up; the sum over its
    # one entry of value 1.0, the form of every other field, gives the same
    # bits, -0.0 in w0, w and V included.
    schema = small_schema()
    model = random_model(schema, variant, seed=9)
    model.w0 = -0.0
    for w, V in zip(model.w[:2], model.V[:2]):
        w[:] = -0.0
        V[0, ::2] = -0.0
    rng = np.random.default_rng(9)
    n = 40
    data = pack(schema, {"a": rng.choice(["0", "1"], size=n).tolist(),
                         "b": rng.choice(["p", "q", "r"], size=n).tolist(),
                         "z": rng.uniform(size=n).tolist()}, np.zeros(n))
    assert all((data.val[fid] == 1.0).all() for fid in (0, 1))
    want_P = [np.einsum("nc,nck->nk", val, V[idx])
              for idx, val, V in zip(data.idx, data.val, model.V)]
    want_linear = np.full(n, model.w0)
    for idx, val, w in zip(data.idx, data.val, model.w):
        want_linear += np.einsum("nc,nc->n", val, w[idx])
    P, linear = model_module._field_vectors(model, data)
    for got, want in zip((*P, linear), (*want_P, want_linear), strict=True):
        assert got.tobytes() == want.tobytes()
    want = model.interaction.scores(np.stack(want_P), want_linear)
    assert predict_scores(model, data).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_forward_matches_brute_force_with_sum_reduction(variant):
    schema = small_schema()
    model = random_model(schema, variant, seed=3)
    raw = {"a": "1", "b": "q", "z": 0.37}
    expected = sum_reduced_score(model, raw, "z")
    assert score(model, raw) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_zero_parameters_score_is_bias():
    schema = small_schema()
    model = init_params(schema, FMIdentity(dim=3), seed=0)
    for v in model.V:
        v[:] = 0.0
    model.w0 = 1.75
    assert score(model, {"a": "0", "b": "p", "z": 0.6}) == 1.75


def test_hand_computed_three_feature_fm():
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("b", binary_cat()),
            ("c", binary_cat()),
        ]
    )
    model = init_params(schema, FMIdentity(dim=2), seed=0)
    model.w0 = 1.0
    model.w = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    model.V[0][:] = [[1, 0], [0, 1]]
    model.V[1][:] = [[2, 1], [1, 2]]
    model.V[2][:] = [[1, 1], [3, 0]]
    got = score(model, {"a": "1", "b": "0", "c": "1"})
    # By hand: w0 + w_a1 + w_b0 + w_c1 + <(0,1),(2,1)> + <(0,1),(3,0)> + <(2,1),(3,0)>
    assert got == pytest.approx(1 + 2 + 3 + 6 + 1 + 0 + 6, abs=1e-12)


def test_ffm_against_textbook_block_oracle():
    schema = build_schema([("a", binary_cat()), ("b", binary_cat())])
    inter = FFMFieldConcat(num_fields=2, block_dim=2)
    model = init_params(schema, inter, seed=5)
    got = score(model, {"a": "1", "b": "0"})
    va = model.V[0][1]
    vb = model.V[1][0]
    # Feature of field 0 exposes its field-1 block; vice versa.
    expected = model.w0 + model.w[0][1] + model.w[1][0] + va[2:4] @ vb[0:2]
    assert got == pytest.approx(expected, rel=1e-12)


def _block_models():
    """Every variant at dims 0 and 3, and an FmFM at dim 2 (where einsum's
    order of its terms changed with the block's size) built on its
    constructor, on a categorical, a binned and a continuous field; then
    every variant at dim 3 on 9 fields, three of each kind, as many as
    `spline_ctr` has."""
    kinds = [
        ("a", Categorical({"p": 0, "q": 1, "r": 2}, unknown_slot=True)),
        ("b", BinnedNumerical(np.array([0.0, 0.3, 0.6, 1.0]))),
        ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
    ]
    schema = build_schema(kinds)
    models = [random_model(schema, v, seed=s, dim=d)
              for s, (v, d) in enumerate((v, d) for v in VARIANTS for d in (0, 3))]
    rng = np.random.default_rng(8)
    fmfm = init_params(schema, FmFMMatrices(3, 2, rng.normal(size=(3, 2, 2))), seed=9)
    fmfm.w0, fmfm.w = 0.3, [rng.normal(size=f.width) for f in schema.fields]
    wide = build_schema([(f"{name}{i}", kind) for i in range(3) for name, kind in kinds])
    return models + [fmfm] + [random_model(wide, v, seed=10 + s) for s, v in enumerate(VARIANTS)]


_BLOCK_VALUES = {  # a field's value, by the first letter of its name
    "a": lambda rng: str(rng.choice(["p", "q", "r", "s"])),
    "b": lambda rng: float(rng.uniform(-0.2, 1.2)),
    "z": lambda rng: float(rng.uniform()),
}


def _block_rows(schema, n, seed):
    rng = np.random.default_rng(seed)
    rows = [{f.name: _BLOCK_VALUES[f.name[0]](rng) for f in schema.fields} for _ in range(n)]
    return pack(schema, rows, rng.integers(0, 2, size=n).astype(float))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7])
def test_scoring_in_blocks_changes_no_bit(monkeypatch, n):
    # Blocks of 3 rows: one partial block, one whole block, several blocks
    # with a one-row last block. `evaluate` refuses 0 rows; it scores the
    # model by logloss and its twin with a real label kind by squared error.
    # On 9 fields, field 0 scores 8 pairs at once, also in one-row blocks.
    for i, model in enumerate(_block_models()):
        real = dataclasses.replace(model.schema, label_kind="real")
        scored = (model, dataclasses.replace(model, schema=real)) if n else ()
        data = _block_rows(model.schema, n, seed=i)
        P, linear = model_module._field_vectors(model, data)
        assert isinstance(P, np.ndarray) and P.flags.c_contiguous, i
        unblocked = model.interaction.scores(P, linear)
        metrics = [training.evaluate(m, data) for m in scored]
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_SCORE_ROWS", 3)
            got = predict_scores(model, data)
            by_row = np.array([predict_scores(model, data.subset(slice(r, r + 1)))[0]
                               for r in range(n)])
            assert got.tobytes() == unblocked.tobytes() == by_row.tobytes(), i
            assert [training.evaluate(m, data) for m in scored] == metrics, i


def _pair_interactions(m, dim, rng):
    """(interaction, width of each field's vector) for every variant over m
    fields of embedding dim `dim`."""
    s = rng.normal(size=(m, m))
    matrices = rng.normal(size=(m * (m - 1) // 2, dim, dim))
    return [
        (FMIdentity(dim=dim), dim),
        (FFMFieldConcat(num_fields=m, block_dim=dim), m * dim),
        (FwFMScalars(strengths=s + s.T, dim=dim), dim),
        (FmFMMatrices(num_fields=m, dim=dim, matrices=matrices), dim),
    ]


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 1024, 1025])
def test_scores_equal_the_pair_loop_bitwise(m, n):
    # `scores` on P (m, n, k), -0.0 planted in both P and the total, equals
    # adding pair after pair.
    rng = np.random.default_rng([m, n])
    for dim in (0, 2, 3):
        for inter, width in _pair_interactions(m, dim, rng):
            P = rng.normal(size=(m, n, width)) * (rng.random((m, n, width)) < 0.7)
            P[rng.random(P.shape) < 0.1] = -0.0
            total = rng.normal(size=n)
            total[::3] = -0.0
            want = pair_loop_scores(inter, [p.copy() for p in P], total.copy())
            got = inter.scores(P, total.copy())
            assert got.tobytes() == want.tobytes(), (type(inter).__name__, dim)


def test_scoring_peak_memory_is_one_block_plus_the_scores():
    # Unblocked, the per-field gathers V[idx] alone would hold n × c × k
    # floats: about 16 times one block's peak here.
    schema = build_schema(
        [("a", binary_cat())]
        + [(name, ContinuousNumerical(AffineTransform(0, 1), build_uniform(10, 3)))
           for name in ("x", "y", "z")]
    )
    model = random_model(schema, "ffm", seed=6, dim=4)
    rng = np.random.default_rng(6)
    n = 16 * model_module._SCORE_ROWS
    data = pack(schema, {"a": rng.choice(["0", "1"], size=n).tolist(),
                         **{name: rng.uniform(size=n).tolist() for name in ("x", "y", "z")}},
                np.zeros(n))
    block = data.subset(slice(0, model_module._SCORE_ROWS))
    block_peak = traced_peak(lambda: predict_scores(model, block))
    peak = traced_peak(lambda: predict_scores(model, data))
    assert peak <= block_peak + 8 * n + 64 * 1024, (peak, block_peak)


# ---------------------------------------------------------------------------
# Gradients


def batch_of_one(model, raw, d_score=1.0):
    """`touched_params` of `train`'s backward pass over the single packed
    row `raw`."""
    data = pack(model.schema, [raw], [0.0])
    _, backward = train_step(model, data)
    return touched_params(model, data, backward(np.array([d_score])))


@pytest.mark.parametrize("variant", VARIANTS)
def test_gradients_match_finite_differences(variant):
    schema = small_schema()
    h = 1e-5
    for seed in range(5):
        model = random_model(schema, variant, seed=seed)
        raw = {"a": "1", "b": ["p", "q", "r"][seed % 3], "z": 0.2 + 0.1 * seed}
        touched = batch_of_one(model, raw)
        assert {kind for kind, _, _ in touched} >= {"w0", "w", "v"}
        for kind, key, g in touched:
            perturb(model, kind, key, h)
            plus = score(model, raw)
            perturb(model, kind, key, -2 * h)
            minus = score(model, raw)
            perturb(model, kind, key, h)
            fd = (plus - minus) / (2 * h)
            denom = max(abs(fd), abs(g), 1e-8)
            assert abs(fd - g) / denom < 1e-4, (variant, kind, key, fd, g)


def test_zero_upstream_gradient_is_empty():
    schema = small_schema()
    for variant in VARIANTS:
        model = random_model(schema, variant, seed=0)
        touched = batch_of_one(model, {"a": "0", "b": "p", "z": 0.5}, d_score=0.0)
        assert all(g == 0.0 for _, _, g in touched)


def test_linear_weight_gradient_is_entry_value():
    schema = small_schema()
    model = random_model(schema, "ffm", seed=2)
    raw = {"a": "1", "b": "r", "z": 0.44}
    d = 0.7
    values = {idx: x for idx, x, _ in entries(schema, raw)}
    starts = offsets(schema)
    for kind, key, g in batch_of_one(model, raw, d_score=d):
        if kind == "w":
            fid, local = key
            assert g == pytest.approx(values.get(starts[fid] + local, 0.0) * d, rel=1e-12)


# ---------------------------------------------------------------------------
# Specializations and reductions


def test_fwfm_unit_strengths_collapses_to_fm():
    schema = small_schema()
    fm = random_model(schema, "fm", seed=9)
    fw = ModelParams(
        schema=schema,
        interaction=FwFMScalars(strengths=np.ones((3, 3)), dim=3),
        w0=fm.w0,
        w=[a.copy() for a in fm.w],
        V=[v.copy() for v in fm.V],
    )
    for raw in [{"a": "0", "b": "q", "z": 0.1}, {"a": "1", "b": "r", "z": 0.9}]:
        assert score(fw, raw) == pytest.approx(score(fm, raw), rel=1e-12)


def test_fmfm_identity_matrices_collapses_to_fm():
    schema = small_schema()
    fm = random_model(schema, "fm", seed=10)
    fmfm = ModelParams(
        schema=schema,
        interaction=FmFMMatrices(num_fields=3, dim=3, matrices=np.tile(np.eye(3), (3, 1, 1))),
        w0=fm.w0,
        w=[a.copy() for a in fm.w],
        V=[v.copy() for v in fm.V],
    )
    raw = {"a": "1", "b": "p", "z": 0.33}
    assert score(fmfm, raw) == pytest.approx(score(fm, raw), rel=1e-12)


def test_sum_reduction_slot_equals_basis_combination():
    schema = small_schema()
    model = random_model(schema, "fm", seed=4)
    z = 0.41
    P, _ = model_module._field_vectors(model, pack(schema, [{"a": "0", "b": "q", "z": z}], [0.0]))
    z_field = schema.field_named("z")
    basis_vals = z_field.kind.basis.eval_many([z])[0]
    expected = basis_vals @ model.V[z_field.field_id]
    npt.assert_allclose(P[z_field.field_id][0], expected, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# Segmentized curves and spanning properties


def test_constant_model_constant_curve():
    schema = small_schema()
    model = init_params(schema, FMIdentity(dim=3), seed=0)
    for v in model.V:
        v[:] = 0.0
    model.w0 = 0.3
    curve = segmentized_curve(
        model, {"a": "0", "b": "p"}, "z", np.linspace(0, 1, 20)
    )
    npt.assert_allclose(curve, 0.3)


def test_binned_field_curve_is_step_function():
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("x", BinnedNumerical(np.array([0.0, 1.0, 2.0, 3.0]))),
        ]
    )
    model = random_model(schema, "fm", seed=6)
    curve = segmentized_curve(model, {"a": "1"}, "x", np.linspace(0, 3, 61))
    assert len(np.unique(np.round(curve, 12))) <= 3


def curve_schema():
    return build_schema(
        [
            ("a", Categorical({"x": 0, "y": 1}, unknown_slot=True)),
            ("b", BinnedNumerical(np.array([0.0, 1.0, 2.0]))),
            ("w", ContinuousNumerical(AffineTransform(-1, 1), build_uniform(5, 2))),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )


def full_row_scores(model, rows):
    """Every raw row encoded whole and scored in one packed batch."""
    return predict_scores(model, pack(model.schema, rows, np.zeros(len(rows))))


# Segments of `curve_schema` that hold the other fields fixed: an unseen
# category, binned values in and out of range, and missing values.
CURVE_SEGMENTS = [
    {"a": "never-seen", "b": "", "w": "nan"},
    {"a": "x", "b": "1.5", "w": ""},
    {"a": "y", "b": "-3", "w": "0.25"},
]


@pytest.mark.parametrize("variant", VARIANTS)
def test_curve_equals_batch_scores_of_its_rows(variant):
    model = random_model(curve_schema(), variant, seed=31)
    # The grid runs past both ends of z's transform range and holds a missing value.
    grid = np.append(np.linspace(-0.25, 1.25, 41), np.nan)
    for segment in CURVE_SEGMENTS:
        expected = full_row_scores(model, [{**segment, "z": z} for z in grid])
        curve = segmentized_curve(model, segment, "z", grid)
        assert curve.tobytes() == expected.tobytes()
        assert segmentized_curve(model, segment, "z", []).shape == (0,)
    # A curve over a binned field.
    segment, grid = {**CURVE_SEGMENTS[1], "z": "0.3"}, np.linspace(-1.0, 3.0, 17)
    expected = full_row_scores(model, [{**segment, "b": x} for x in grid])
    assert segmentized_curve(model, segment, "b", grid).tobytes() == expected.tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_two_field_grid_equals_batch_scores_of_its_rows(variant):
    # The surface the pairwise span oracle fits, one curve per point of z.
    model = random_model(curve_schema(), variant, seed=32)
    z, w = np.linspace(-0.5, 1.5, 7), np.linspace(-2.0, 2.0, 5)
    segment = {"a": "x", "b": "0.5"}
    points = [{**segment, "z": zv, "w": wv} for zv in z for wv in w]
    grid = span_surface(model, segment, "z", z, "w", w)
    assert grid.tobytes() == full_row_scores(model, points).tobytes()


def test_curve_encodes_one_row_per_call(monkeypatch):
    calls = []

    def counted(schema, raw):
        calls.append(raw)
        return encode_row(schema, raw)

    monkeypatch.setattr(model_module, "encode_row", counted)
    model = random_model(two_continuous_schema(), "ffm", seed=33)
    segmentized_curve(model, {"a": "1", "v": "0.5"}, "u", np.linspace(0, 1, 50))
    assert len(calls) == 1


def test_curve_encodes_its_grid_column_as_given(monkeypatch):
    # The grid reaches the column encoder as the one mapping of name -> values,
    # not as one dict per point.
    tables, encode = [], model_module.encode_columns

    def recorded(schema, table):
        tables.append(table)
        return encode(schema, table)

    monkeypatch.setattr(model_module, "encode_columns", recorded)
    model = random_model(two_continuous_schema(), "ffm", seed=34)
    grid = np.linspace(0, 1, 7)
    segmentized_curve(model, {"a": "1", "v": "0.5"}, "u", grid)
    assert [list(t) for t in tables] == [["u"]]
    assert tables[0]["u"] is grid


@pytest.mark.parametrize(
    "segment, grid, message",
    [
        ({"a": "x", "b": "1", "w": "0"}, [0.5, 0.25, np.inf], "field 'z': value inf is not finite"),
        ({"a": "x", "b": "1", "w": "0"}, [0.5, "inf"], "field 'z': value 'inf' is not finite"),
        ({"a": "x", "b": "1", "w": "deep"}, [0.5, 0.75],
         "field 'w': cannot parse 'deep' as a number"),
        ({"a": "x", "b": "one", "w": "0"}, [np.inf], "field 'b': cannot parse 'one' as a number"),
    ],
    ids=["infinite_grid_point", "infinite_grid_text", "unparsable_segment", "segment_first"],
)
def test_curve_errors_name_the_first_bad_value(segment, grid, message):
    # The messages of encoding every grid row whole, first row first: a
    # data error (exit 3) naming the field and the value.
    model = random_model(curve_schema(), "fm", seed=34)
    with pytest.raises(DataError) as exc:
        segmentized_curve(model, segment, "z", grid)
    assert str(exc.value) == message


@pytest.mark.parametrize("variant", VARIANTS)
def test_spanning_property_residual(variant):
    schema = small_schema()
    model = random_model(schema, variant, seed=13)
    _, _, res = fit_span(model, {"a": "1", "b": "q"}, "z")
    assert res < 1e-9


def test_span_recovers_linear_weights_with_zero_embeddings():
    schema = small_schema()
    model = random_model(schema, "fm", seed=14)
    for v in model.V:
        v[:] = 0.0
    alpha, beta, res = fit_span(model, {"a": "0", "b": "p"}, "z")
    assert res < 1e-9
    w_field = model.w[schema.field_named("z").field_id]
    # Constant-column ambiguity: alpha is determined up to adding a
    # constant to every coefficient (partition of unity).
    shift = alpha - w_field
    npt.assert_allclose(shift, shift[0] * np.ones_like(shift), atol=1e-9)


def test_step_curve_is_not_in_spline_span():
    # Negative control: fit a generic step function onto the basis.
    basis = build_uniform(6, 3)
    grid = np.linspace(0, 1, 80)
    design = np.column_stack([basis.eval_many(grid), np.ones(len(grid))])
    step = np.where(grid < 0.5, 0.0, 1.0)
    coef, *_ = np.linalg.lstsq(design, step, rcond=None)
    assert np.max(np.abs(design @ coef - step)) > 1e-3


def two_continuous_schema():
    return build_schema(
        [
            ("a", binary_cat()),
            ("u", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
            ("v", ContinuousNumerical(AffineTransform(-2, 3), build_uniform(5, 3))),
        ]
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_pairwise_spanning_residual(variant):
    schema = two_continuous_schema()
    model = random_model(schema, variant, seed=17)
    _, _, res = fit_pairwise_span(model, {"a": "0"}, "u", "v")
    assert res < 1e-9


def test_pairwise_zero_matrix_has_no_cross_terms():
    schema = two_continuous_schema()
    model = random_model(schema, "fmfm", seed=18)
    model.interaction.matrices[2] = 0.0  # the pair (1, 2)
    alpha, _, res = fit_pairwise_span(model, {"a": "1"}, "u", "v")
    assert res < 1e-9
    assert np.max(np.abs(alpha[1:, 1:])) < 1e-9


def test_pairwise_symmetric_under_field_swap():
    schema = build_schema(
        [
            ("u", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
            ("v", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )
    model = random_model(schema, "fm", seed=19)
    _, _, res_uv = fit_pairwise_span(model, {}, "u", "v")
    _, _, res_vu = fit_pairwise_span(model, {}, "v", "u")
    assert res_uv == pytest.approx(res_vu, abs=1e-12)


# ---------------------------------------------------------------------------
# Serialization


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_serialization_bit_exact(variant):
    schema = small_schema()
    model = random_model(schema, variant, seed=21)
    doc = json.loads(json.dumps(model_to_dict(model)))
    clone = model_from_dict(doc)
    assert clone.w0 == model.w0
    for a, b in zip([*clone.w, *clone.V], [*model.w, *model.V], strict=True):
        npt.assert_array_equal(a, b)
    raw = {"a": "1", "b": "q", "z": 0.27}
    assert score(clone, raw) == score(model, raw)


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_model_bytes_equal_json_dump(variant, tmp_path):
    # Tables longer than one encoded chunk, an empty-dim table and the
    # learned FwFM strengths / FmFM matrices all round out the document.
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("id", Categorical({str(i): i for i in range(2500)}, unknown_slot=True)),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )
    model = random_model(schema, variant, seed=23)
    model.w[1][1] = -0.0
    reference = tmp_path / "reference.json"
    with open(reference, "w") as fh:
        json.dump(model_to_dict(model), fh)
    save_model(model, tmp_path / "model.json")
    assert (tmp_path / "model.json").read_bytes() == reference.read_bytes()

    empty = init_params(schema, make_interaction(variant, schema, 0), seed=0)
    with open(reference, "w") as fh:
        json.dump(model_to_dict(empty), fh)
    save_model(empty, tmp_path / "empty.json")
    assert (tmp_path / "empty.json").read_bytes() == reference.read_bytes()
    # Zero-dim tables and pair matrices are written as bare `[]` lists.
    assert [v.shape for v in load_model(tmp_path / "empty.json").V] == [v.shape for v in empty.V]


def test_model_file_w_is_the_field_vectors_in_schema_order(tmp_path):
    # The file's one flat `w` is the only place where the fields' linear
    # weights meet; loading splits it back by field.
    schema = build_schema(
        [
            ("c", Categorical({"p": 0, "q": 1}, unknown_slot=True)),
            ("b", BinnedNumerical(np.array([0.0, 1.0, 2.0, 4.0]))),
            ("z", ContinuousNumerical(AffineTransform(0.0, 1.0), build_uniform(6, 3))),
        ]
    )
    model = random_model(schema, "ffm", seed=29)
    save_model(model, tmp_path / "model.json")
    w = json.loads((tmp_path / "model.json").read_text())["w"]
    assert len(w) == 3 + 3 + 6
    for f, start in zip(schema.fields, offsets(schema)):
        assert w[start : start + f.width] == model.w[f.field_id].tolist()
    save_model(load_model(tmp_path / "model.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_integer_affine_bounds_survive_save_load_save(tmp_path):
    # `AffineTransform(0, 1)` holds its bounds as floats, so the first file
    # already writes 0.0 and 1.0 and loading changes nothing.
    model = random_model(small_schema(), "fm", seed=30)
    assert type(model.schema.field_named("z").kind.transform.to_dict()["low"]) is float
    save_model(model, tmp_path / "model.json")
    save_model(load_model(tmp_path / "model.json"), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "model.json").read_bytes()


def test_bias_only_model_file_has_an_empty_w(tmp_path):
    model = init_params(build_schema([]), FMIdentity(dim=2), seed=0)
    model.w0 = 0.25
    save_model(model, tmp_path / "model.json")
    assert json.loads((tmp_path / "model.json").read_text())["w"] == []
    loaded = load_model(tmp_path / "model.json")
    assert loaded.w == [] and loaded.V == [] and loaded.w0 == 0.25


def test_save_model_peak_memory_not_above_json_dump(tmp_path):
    schema = build_schema(
        [
            ("id", Categorical({str(i): i for i in range(10_000)}, unknown_slot=True)),
            ("a", binary_cat()),
        ]
    )
    model = random_model(schema, "fwfm", seed=5, dim=8)

    def dump():
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(model_to_dict(model), fh)

    reference = traced_peak(dump)
    peak = traced_peak(lambda: save_model(model, tmp_path / "model.json"))
    assert peak <= reference, (peak, reference)


@pytest.mark.parametrize(
    "variant, edit",
    [
        ("fm", lambda m: setattr(m, "w0", float("nan"))),
        ("fm", lambda m: m.w[1].__setitem__(0, float("inf"))),
        ("fm", lambda m: m.V[2].__setitem__((1, 0), float("-inf"))),
        ("fwfm", lambda m: m.interaction.strengths.__setitem__((0, 1), float("nan"))),
        ("fmfm", lambda m: m.interaction.matrices.__setitem__((2, 0, 0), float("inf"))),
    ],
    ids=["w0", "w", "V", "strengths", "matrix"],
)
def test_save_model_refuses_a_non_finite_value(tmp_path, variant, edit):
    # `load_model` rejects a non-finite value, so `save_model` writes none.
    model = random_model(small_schema(), variant, seed=4)
    edit(model)
    with pytest.raises(NumericalError, match="non-finite"):
        save_model(model, tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def _doc(variant="fmfm"):
    return json.loads(json.dumps(model_to_dict(random_model(small_schema(), variant, seed=3))))


@pytest.mark.parametrize(
    "variant, edit, message",
    [
        ("fm", lambda d: d["V"][2].pop(), "shape"),
        ("fm", lambda d: d["V"].pop(), "V tables"),
        ("fm", lambda d: d["w"].append(0.0), "shape"),
        ("fm", lambda d: d["w"].pop(), "shape"),
        ("fm", lambda d: d["V"][0][1].append(0.5), "numeric array"),
        ("fm", lambda d: d.__setitem__("w0", float("inf")), "w0"),
        ("fm", lambda d: d.pop("w"), "'w'"),
        ("ffm", lambda d: d["V"][0][0].pop(), "numeric array"),
        ("ffm", lambda d: d["interaction"].__setitem__("num_fields", 2), "num_fields"),
        ("fwfm", lambda d: d["interaction"]["strengths"].pop(), "strengths"),
        ("fwfm", lambda d: d["interaction"]["strengths"][0].__setitem__(1, float("nan")),
         "non-finite"),
        ("fmfm", lambda d: d["interaction"]["matrices"]["0,2"].pop(), "pair matrix 0,2"),
        ("fmfm", lambda d: d["interaction"]["matrices"].__setitem__("1,1", [[0.0] * 3] * 3),
         "pairs"),
        ("fmfm", lambda d: d["interaction"]["matrices"].pop("0,1"), "pairs e < f"),
        ("fmfm", lambda d: d["interaction"]["dims"].pop(), "dims"),
        ("fmfm", lambda d: d["interaction"]["dims"].__setitem__(1, 2), r"dims \[3, 2, 3\] differ"),
        # Equal but huge dims: the 1 x 1 matrices are refused before any array
        # is sized by dims, which could not be allocated.
        ("fmfm", lambda d: d["interaction"].update(
            dims=[10**9] * 3, matrices={key: [[0.0]] for key in d["interaction"]["matrices"]}),
         r"pair matrix 0,1 has shape \(1, 1\), expected \(1000000000, 1000000000\)"),
        ("fmfm", lambda d: d["V"][1][0].__setitem__(0, float("-inf")), "non-finite"),
        # The integer entries must be ints >= 0; each message names its key.
        ("fm", lambda d: d["interaction"].__setitem__("dim", 3.0), "interaction dim must"),
        ("fwfm", lambda d: d["interaction"].__setitem__("dim", True), "interaction dim must"),
        ("ffm", lambda d: d["interaction"].__setitem__("block_dim", -1),
         "interaction block_dim must"),
        ("fmfm", lambda d: d["interaction"]["dims"].__setitem__(0, 3.0),
         "interaction dims must"),
        # A basis is checked before any array is built: one numpy cannot
        # allocate, a float size and a bool degree are DataErrors naming them.
        ("fm", lambda d: d["schema"]["fields"][2]["basis"].__setitem__("num_functions", 10**15),
         "field 'z': basis num_functions must be <= 10000, got 1000000000000000"),
        ("fm", lambda d: d["schema"]["fields"][2]["basis"].__setitem__("num_functions", 6.0),
         "field 'z': basis num_functions must be an integer, got 6.0"),
        ("fm", lambda d: d["schema"]["fields"][2]["basis"].__setitem__("degree", True),
         "field 'z': basis degree must be an integer, got True"),
        ("fm", lambda d: d["schema"]["fields"][2]["basis"].update(degree=21, num_functions=22),
         "field 'z': basis degree must be <= 20, got 21"),
        # What format 1 held and format 2 dropped is not read silently.
        ("fwfm", lambda d: d["interaction"].__setitem__("learn", False), "unknown entries learn"),
    ],
)
def test_model_from_dict_rejects_inconsistent_documents(variant, edit, message):
    doc = _doc(variant)
    model_from_dict(doc)
    edit(doc)
    with pytest.raises(DataError, match=message):
        model_from_dict(doc)
