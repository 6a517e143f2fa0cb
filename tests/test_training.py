import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import binary_cat, dense_grads, touched_grads, traced_peak, train_step

from splinefm import training
from splinefm.errors import ConfigError, DataError, NumericalError
from splinefm.model import (
    FFMFieldConcat,
    FmFMMatrices,
    FwFMScalars,
    _field_vectors,
    init_params,
    make_interaction,
)
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
    encode_row,
)
from splinefm.splines import SplineBasis, build_uniform
from splinefm.training import (
    TrainConfig,
    evaluate,
    pack,
    predict_scores,
    train,
)
from splinefm.transforms import AffineTransform, fit_quantile

VARIANTS = ("fm", "ffm", "fwfm", "fmfm")


def mixed_schema():
    return build_schema(
        [
            ("a", binary_cat()),
            ("b", binary_cat()),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )


def random_rows(n, seed):
    rng = np.random.default_rng(seed)
    rows = [
        {
            "a": str(rng.integers(0, 2)),
            "b": str(rng.integers(0, 2)),
            "z": float(rng.random()),
        }
        for _ in range(n)
    ]
    labels = rng.integers(0, 2, size=n).astype(float)
    return rows, labels


def test_batch_scores_match_per_row_forward():
    # A row scores the same in a batch of 200 as in a batch of its own.
    schema = mixed_schema()
    rows, labels = random_rows(200, 0)
    data = pack(schema, rows, labels)
    for variant in VARIANTS:
        inter = make_interaction(variant, schema, 3)
        model, _ = train(
            TrainConfig(epochs=2, seed=1), schema, inter, data
        )
        batch = predict_scores(model, data)
        for i in [0, 7, 42, 199]:
            alone = predict_scores(model, pack(schema, [rows[i]], labels[i : i + 1]))
            assert batch[i] == pytest.approx(alone[0], rel=1e-12)


def test_constant_feature_converges_to_logit():
    # One constant categorical field: the score must converge to the
    # logit of the empirical positive rate.
    schema = build_schema([("c", Categorical({"x": 0}, unknown_slot=False))])
    rng = np.random.default_rng(3)
    labels = (rng.random(2000) < 0.3).astype(float)
    rows = [{"c": "x"} for _ in labels]
    data = pack(schema, rows, labels)
    cfg = TrainConfig(optimizer="adagrad", step_size=1.0, epochs=500, seed=0)
    model, _ = train(cfg, schema, make_interaction("fm", schema, 1), data)
    rate = labels.mean()
    target = math.log(rate / (1 - rate))
    score = predict_scores(model, data)[0]
    assert abs(score - target) < 1e-2


def test_linear_only_squared_loss_matches_ols_oracle():
    # Exactly-linear targets, zero-dim embeddings: rmse should approach
    # the (zero) residual of the ordinary-least-squares oracle.
    schema = build_schema(
        [("a", binary_cat()), ("b", binary_cat())], label_kind="real"
    )
    rng = np.random.default_rng(4)
    rows = [
        {"a": str(rng.integers(0, 2)), "b": str(rng.integers(0, 2))}
        for _ in range(400)
    ]
    true_w = {"a": [0.5, -0.2], "b": [0.1, 0.9]}
    labels = np.array([true_w["a"][int(r["a"])] + true_w["b"][int(r["b"])] for r in rows])
    # Independent OLS oracle on the one-hot design.
    X = np.zeros((len(rows), 4))
    for i, r in enumerate(rows):
        X[i, int(r["a"])] = 1.0
        X[i, 2 + int(r["b"])] = 1.0
    coef, *_ = np.linalg.lstsq(np.column_stack([X, np.ones(len(rows))]), labels, rcond=None)
    ols_rmse = math.sqrt(np.mean((np.column_stack([X, np.ones(len(rows))]) @ coef - labels) ** 2))
    assert ols_rmse < 1e-10

    data = pack(schema, rows, labels)
    cfg = TrainConfig(optimizer="adagrad", step_size=0.3, epochs=150, seed=0)
    model, _ = train(cfg, schema, make_interaction("fm", schema, 0), data)
    rmse = evaluate(model, data).rmse
    assert rmse < 1e-2


def test_same_seed_bit_identical():
    schema = mixed_schema()
    rows, labels = random_rows(300, 5)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=3, seed=7, holdout_fraction=0.2)
    m1, _ = train(cfg, schema, make_interaction("ffm", schema, 2), data)
    m2, _ = train(cfg, schema, make_interaction("ffm", schema, 2), data)
    assert m1.w0 == m2.w0
    for a, b in zip([*m1.w, *m1.V], [*m2.w, *m2.V], strict=True):
        npt.assert_array_equal(a, b)


def test_holdout_rows_never_influence_parameters():
    schema = mixed_schema()
    rows, labels = random_rows(300, 6)
    cfg = TrainConfig(epochs=3, seed=1, holdout_fraction=0.2, select_best=False)
    # The rows `train` sets aside: the first fifth of its permutation.
    held = np.random.default_rng(cfg.seed).permutation(300)[:60]
    other_rows, other_labels = random_rows(60, 7)
    changed_rows, changed_labels = list(rows), labels.copy()
    for i, row, label in zip(held, other_rows, other_labels):
        changed_rows[i], changed_labels[i] = row, 1.0 - label
    inter = make_interaction("fm", schema, 2)
    m1, h1 = train(cfg, schema, inter, pack(schema, rows, labels))
    m2, h2 = train(cfg, schema, inter, pack(schema, changed_rows, changed_labels))
    # The holdout did change, and the parameters did not.
    assert h1.history[0]["holdout_loss"] != h2.history[0]["holdout_loss"]
    assert m1.w0 == m2.w0
    for a, b in zip([*m1.w, *m1.V], [*m2.w, *m2.V], strict=True):
        npt.assert_array_equal(a, b)


@pytest.mark.parametrize("holdout_fraction", (0.0, 0.1))
def test_metrics_sample_count_is_the_rows_its_loss_is_over(holdout_fraction):
    # With a holdout the final loss is over the 20 holdout rows, not the 180
    # training rows.
    schema = mixed_schema()
    rows, labels = random_rows(200, 9)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=2, seed=1, holdout_fraction=holdout_fraction)
    model, metrics = train(cfg, schema, make_interaction("fm", schema, 2), data)
    scored = data
    if holdout_fraction:
        scored = data.subset(np.random.default_rng(cfg.seed).permutation(200)[:20])
    want = evaluate(model, scored)
    assert (metrics.sample_count, metrics.cross_entropy) == (want.sample_count, want.cross_entropy)
    assert metrics.sample_count == (20 if holdout_fraction else 200)


def test_full_batch_gd_loss_non_increasing_linear_case():
    # Squared loss on 0/1 labels: a real label kind.
    schema = build_schema([("a", binary_cat()), ("b", binary_cat())], label_kind="real")
    rows, labels = random_rows(200, 9)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(
        optimizer="sgd",
        step_size=0.01,
        batch_size=200,
        epochs=30,
        seed=0,
        shuffle=False,
    )
    _, metrics = train(cfg, schema, make_interaction("fm", schema, 0), data)
    losses = [r["train_loss"] for r in metrics.history]
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_cross_entropy_stays_finite_for_extreme_parameters():
    schema = build_schema([("a", binary_cat())])
    model = make_interaction("fm", schema, 1)
    from splinefm.model import init_params

    m = init_params(schema, model, seed=0)
    m.w0 = 1e6  # saturates the sigmoid
    rows = [{"a": "0"}, {"a": "1"}]
    data = pack(schema, rows, [0.0, 1.0])
    metrics = evaluate(m, data)
    assert math.isfinite(metrics.cross_entropy)


def test_evaluate_non_finite_loss_is_numerical_error():
    # A model file may hold any finite value; this one's squared error
    # overflows, which `eval` would print as Infinity, not JSON.
    schema = build_schema([("a", binary_cat())], label_kind="real")
    m = init_params(schema, make_interaction("fm", schema, 1), seed=0)
    m.w0 = 1e200
    with np.errstate(over="ignore"), pytest.raises(NumericalError, match="non-finite loss inf"):
        evaluate(m, pack(schema, [{"a": "0"}], [0.0]))


def test_evaluate_closed_forms():
    schema = build_schema([("a", binary_cat())])
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 1), seed=0)
    rows = [{"a": "0"}, {"a": "1"}, {"a": "0"}]
    data = pack(schema, rows, [0.0, 1.0, 1.0])
    # All-zero parameters predict exactly 0.5.
    assert evaluate(m, data).cross_entropy == pytest.approx(math.log(2))
    # Perfect predictions under squared loss, which a real label kind scores.
    real = build_schema([("a", binary_cat())], label_kind="real")
    m_real = init_params(real, make_interaction("fm", real, 1), seed=0)
    assert evaluate(m_real, pack(real, rows, [0.0, 0.0, 0.0])).rmse == 0.0


def test_evaluate_hand_computed_batch():
    schema = build_schema([("a", binary_cat())])
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 1), seed=0)
    m.w[0][:] = [1.0, -1.0]
    rows = [{"a": "0"}, {"a": "1"}, {"a": "1"}]
    data = pack(schema, rows, [1.0, 0.0, 1.0])
    p0 = 1 / (1 + math.exp(-1.0))
    p1 = 1 / (1 + math.exp(1.0))
    expected = -(math.log(p0) + math.log(1 - p1) + math.log(p1)) / 3
    assert evaluate(m, data).cross_entropy == pytest.approx(expected, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="newton").validate()
    with pytest.raises(ConfigError):
        TrainConfig(step_size=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(holdout_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    for entries in ({"epochs": "x"}, {"batch_size": 2.5}, {"shuffle": 1}, {"step_size": True},
                    {"step_size": math.inf}, {"l2": math.inf}, {"adagrad_eps": math.nan},
                    {"adagrad_eps": -1.0}, {"adagrad_eps": math.inf}, {"adagrad_eps": 0.0}):
        with pytest.raises(ConfigError, match=f"train.{next(iter(entries))}"):
            TrainConfig(**entries).validate()
    TrainConfig(step_size=1, l2=0).validate()


def test_empty_inputs_rejected():
    schema = mixed_schema()
    data = pack(schema, [], [])
    with pytest.raises(DataError):
        train(TrainConfig(), schema, make_interaction("fm", schema, 2), data)
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 2), seed=0)
    with pytest.raises(DataError):
        evaluate(m, data)


def test_binary_labels_enforced():
    schema = mixed_schema()
    rows, _ = random_rows(10, 1)
    data = pack(schema, rows, np.linspace(0, 1, 10))
    with pytest.raises(DataError):
        train(TrainConfig(), schema, make_interaction("fm", schema, 2), data)


@pytest.mark.parametrize("variant", VARIANTS)
def test_best_epoch_selection_uses_holdout(variant):
    schema = mixed_schema()
    rows, labels = random_rows(400, 11)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=8, seed=2, holdout_fraction=0.25, select_best=True)
    model, metrics = train(cfg, schema, make_interaction(variant, schema, 2), data)
    holdout_losses = [r["holdout_loss"] for r in metrics.history]
    # FM, FwFM and FmFM pick an epoch before the last here, so their
    # snapshots, strengths and pair matrices included, are restored.
    if variant != "ffm":
        assert np.argmin(holdout_losses) < cfg.epochs - 1
    assert metrics.cross_entropy == pytest.approx(min(holdout_losses), rel=1e-9)


@pytest.mark.parametrize("variant", ("fwfm", "fmfm"))
def test_spec_tensors_move_where_a_score_reads_them(variant):
    schema = mixed_schema()
    rows, labels = random_rows(300, 14)
    data = pack(schema, rows, labels)
    inter = make_interaction(variant, schema, 2)
    before = {name: a.copy() for name, a in inter.tensors().items()}
    cfg = TrainConfig(epochs=3, seed=5, holdout_fraction=0.2)
    model, _ = train(cfg, schema, inter, data)
    m = len(schema.fields)
    pairs = list(itertools.combinations(range(m), 2))
    # One free strength per pair e < f (FwFM), one (2, 2) matrix (FmFM).
    plain = 1 + sum(a.size for a in (*model.w, *model.V))
    assert model.num_parameters == plain + len(pairs) * (1 if variant == "fwfm" else 4)
    tensors = model.interaction.tensors()
    if variant == "fwfm":
        # Only pairs e < f enter a score: the diagonal never moves.
        moved = tensors["strengths"] != before["strengths"]
        assert (moved == ~np.eye(m, dtype=bool)).all()
    else:
        assert list(tensors) == [f"{e},{f}" for e, f in pairs]
        for name, a in tensors.items():
            assert (a != before[name]).all(), name


def test_fmfm_trains_the_same_without_diagonal_matrices():
    # An (e, e) matrix per field, as model format 1 held, is stepped with a
    # zero gradient, since no score reads it: w, V and every e < f matrix
    # come out bit for bit as without it.
    schema = mixed_schema()
    rows, labels = random_rows(300, 16)
    data = pack(schema, rows, labels)
    inter = make_interaction("fmfm", schema, 2)
    diagonal = {(e, e): np.eye(2) for e in range(len(schema.fields))}
    with_diagonal = FmFMMatrices(dims=inter.dims, matrices={**inter.matrices, **diagonal})
    cfg = TrainConfig(epochs=3, seed=5, holdout_fraction=0.2)
    model, _ = train(cfg, schema, inter, data)
    full, _ = train(cfg, schema, with_diagonal, data)
    assert model.w0 == full.w0
    # w, the V tables, then the e < f matrices; `full` lists its (e, e) ones last.
    for a, b in zip(training._tensors(model), training._tensors(full)):
        assert a.tobytes() == b.tobytes()
    for pair in diagonal:
        assert (full.interaction.matrices[pair] == np.eye(2)).all()
    assert full.num_parameters - model.num_parameters == len(diagonal) * 2 * 2


@pytest.mark.parametrize("variant", ("fwfm", "fmfm"))
def test_train_twice_with_one_spec_leaves_it_unchanged(variant):
    schema = mixed_schema()
    rows, labels = random_rows(300, 15)
    data = pack(schema, rows, labels)
    inter = make_interaction(variant, schema, 2)
    before = {name: a.copy() for name, a in inter.tensors().items()}
    cfg = TrainConfig(epochs=3, seed=5, holdout_fraction=0.2)
    m1, _ = train(cfg, schema, inter, data)
    m2, _ = train(cfg, schema, inter, data)
    for name, a in inter.tensors().items():
        assert a.tobytes() == before[name].tobytes(), name
    assert float(m1.w0).hex() == float(m2.w0).hex()
    p1, p2 = _parameters(m1), _parameters(m2)
    assert p1.keys() == p2.keys()
    for name, a in p1.items():
        assert a.tobytes() == p2[name].tobytes(), name
        assert not any(a is b for b in inter.tensors().values()), name


# ---------------------------------------------------------------------------
# Column-wise packing against the per-row encoder


def assert_rows_bitwise(schema, rows, data):
    """Row r of every packed array is, bit for bit, the (1, c_f) array
    `encode_row` gives for rows[r]."""
    assert len(data.idx) == len(data.val) == len(schema.fields)
    assert all(a.shape[0] == len(rows) for a in data.idx + data.val)
    for r, raw in enumerate(rows):
        for packed, alone in zip((data.idx, data.val), encode_row(schema, raw)):
            for got, want in zip(packed, alone, strict=True):
                assert got.dtype == want.dtype and got[r : r + 1].shape == want.shape
                assert got[r : r + 1].tobytes() == want.tobytes()


@st.composite
def schemas_and_rows(draw, closed_values=("x", "y")):
    """A schema with every field kind, and raw rows that exercise it."""
    sample = draw(
        st.lists(st.integers(min_value=-5, max_value=30), min_size=2, max_size=30).filter(
            lambda v: min(v) < max(v)
        )
    )
    lo, hi = float(min(sample)), float(max(sample))
    quantile = fit_quantile(sample, draw(st.integers(min_value=1, max_value=40)))

    def basis():
        degree = draw(st.integers(min_value=0, max_value=3))
        return build_uniform(degree + 1 + draw(st.integers(min_value=0, max_value=6)), degree)

    q_basis = basis()
    schema = build_schema(
        [
            ("open", Categorical({"a": 0, "b": 1, "c": 2}, unknown_slot=True)),
            ("closed", Categorical({"x": 0, "y": 1}, unknown_slot=False)),
            # Shares q's basis and comes before it, after a categorical: the
            # basis group's rows must land back in schema order.
            ("r", ContinuousNumerical(AffineTransform(lo, hi), q_basis)),
            ("bin", BinnedNumerical(np.unique(np.asarray(sample, dtype=float)))),
            ("q", ContinuousNumerical(quantile, q_basis)),
            ("m", ContinuousNumerical(AffineTransform(lo, hi), basis())),
        ]
    )
    number = st.one_of(
        st.sampled_from(sorted(set(sample)) + quantile.reference_points.tolist()),
        st.floats(min_value=lo - 10, max_value=hi + 10),
        st.floats(min_value=lo - 10, max_value=hi + 10).map(repr),
        st.sampled_from(["", None, "nan", -0.0]),  # missing, and a signed zero
    )
    row = st.fixed_dictionaries(
        {
            "open": st.sampled_from(["a", "b", "c", "unseen", 3, None]),
            "closed": st.sampled_from(closed_values),
            "r": number,
            "bin": number,
            "q": number,
            "m": number,
        }
    )
    return schema, draw(st.lists(row, max_size=25))


@settings(max_examples=200, deadline=None)
@given(case=schemas_and_rows())
def test_property_pack_equals_per_row_oracle_bitwise(case):
    schema, rows = case
    assert_rows_bitwise(schema, rows, pack(schema, rows, np.zeros(len(rows))))


@settings(max_examples=50, deadline=None)
@given(case=schemas_and_rows(closed_values=("x", "y", "unseen")))
def test_property_pack_raises_what_encode_row_raises(case):
    schema, rows = case
    try:
        for raw in rows:
            encode_row(schema, raw)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            pack(schema, rows, np.zeros(len(rows)))
        assert str(got.value) == str(exc)
    else:
        assert_rows_bitwise(schema, rows, pack(schema, rows, np.zeros(len(rows))))


def _as_columns(schema, rows) -> dict:
    """The row dicts `rows` of a table with the schema's columns, as columns."""
    return {f.name: [row[f.name] for row in rows] for f in schema.fields}


def _outcome(build):
    """What `build()` returns, or the message of the DataError it raises."""
    try:
        return build()
    except DataError as exc:
        return str(exc)


def assert_packed_identical(got, want):
    assert isinstance(got, training.PackedData) and isinstance(want, training.PackedData)
    assert len(got.idx) == len(want.idx)
    for a, b in zip([*got.idx, *got.val, got.y], [*want.idx, *want.val, want.y], strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(case=schemas_and_rows(closed_values=("x", "y", "unseen")))
def test_property_pack_of_columns_equals_pack_of_row_dicts(case):
    # Every field kind, missing cells and unseen categories with and
    # without an unknown slot (the latter raises the same error either way).
    schema, rows = case
    labels = np.arange(len(rows), dtype=float)
    got = _outcome(lambda: pack(schema, _as_columns(schema, rows), labels))
    want = _outcome(lambda: pack(schema, rows, labels))
    if isinstance(want, str):
        assert got == want
    else:
        assert_packed_identical(got, want)


def test_pack_of_a_bias_only_schema_counts_rows_by_labels():
    schema = build_schema([])
    labels = np.array([1.0, 0.0, 1.0])
    want = pack(schema, [{}, {"x": "1"}, {}], labels)
    assert want.n == 3 and want.idx == [] and want.val == []
    for table in ({}, {"x": ["1", "2", "3"]}):
        assert_packed_identical(pack(schema, table, labels), want)
    for table in ([{}, {}], {"x": ["1", "2"]}):
        with pytest.raises(DataError, match="^2 rows but 3 labels$"):
            pack(schema, table, labels)


def test_pack_of_columns_raises_what_pack_of_row_dicts_raises():
    schema = mixed_schema()
    rows, labels = random_rows(4, 5)
    rows[2]["z"] = "bad"
    without_b = [{k: v for k, v in row.items() if k != "b"} for row in rows]
    for table in (rows, without_b):
        with pytest.raises(DataError) as want:
            pack(schema, table, labels)
        with pytest.raises(DataError) as got:
            pack(schema, {k: [row[k] for row in table] for k in table[0]}, labels)
        assert str(got.value) == str(want.value)
    with pytest.raises(DataError, match="the columns of a table differ in length"):
        pack(schema, {**_as_columns(schema, rows), "extra": [1]}, labels)


@pytest.mark.parametrize("n", [0, 30])
def test_pack_evaluates_each_distinct_basis_once(monkeypatch, n):
    shared, other = build_uniform(8, 3), build_uniform(5, 2)
    names = [f"s{i}" for i in range(6)]
    schema = build_schema(
        [("c", binary_cat())]
        + [(name, ContinuousNumerical(AffineTransform(0, 1), shared)) for name in names]
        + [("o", ContinuousNumerical(AffineTransform(0, 1), other))]
    )
    rng = np.random.default_rng(n)
    points = [0.0, 1.0, 0.2, 0.4, -0.5, 1.5, "", None]  # knots, ends, outside, missing
    rows = [
        {"c": str(rng.integers(0, 2)), "o": float(rng.random()),
         **{name: rng.choice([float(rng.random()), rng.choice(points)]) for name in names}}
        for _ in range(n)
    ]
    calls = []
    eval_batch = SplineBasis.eval_batch

    def counted(self, z):
        calls.append(self.num_functions)
        return eval_batch(self, z)

    monkeypatch.setattr(SplineBasis, "eval_batch", counted)
    # The groups are planned when the schema is built, not per call.
    assert schema.basis_groups == {shared: [1, 2, 3, 4, 5, 6], other: [7]}
    data = pack(schema, rows, np.zeros(n))
    assert sorted(calls) == [5, 8]
    assert [a.shape for a in data.idx] == [(n, 1)] + [(n, 4)] * 6 + [(n, 3)]
    assert_rows_bitwise(schema, rows, data)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pack_fewer_rows_than_basis_support(n):
    # Cubic basis: fewer rows than degree + 1, and the single-row case.
    schema = mixed_schema()
    rows, labels = random_rows(n, 12)
    rows[0]["z"] = ""
    data = pack(schema, rows, labels)
    assert data.n == n
    assert [a.shape for a in data.idx] == [(n, 1), (n, 1), (n, 4)]
    assert_rows_bitwise(schema, rows, data)



# ---------------------------------------------------------------------------
# The batched backward pass and the sparse optimizer step


def wide_schema(vocab=40):
    return build_schema(
        [
            ("id", Categorical({str(i): i for i in range(vocab)}, unknown_slot=True)),
            ("b", binary_cat()),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(6, 3))),
        ]
    )


def wide_rows(n, seed, ids):
    """Rows over a few ids (so a batch repeats indices) and spline points on
    the knots and ends, where some basis values are zero and rows pad."""
    rng = np.random.default_rng(seed)
    z = rng.choice([0.0, 1.0, 1 / 3, 0.5, 2 / 3, rng.random(), rng.random()], size=n)
    rows = [
        {"id": str(rng.choice(ids)), "b": str(rng.integers(0, 2)), "z": float(z[i])}
        for i in range(n)
    ]
    return rows, rng.integers(0, 2, size=n).astype(float)


def randomized(model, seed):
    """Nonzero linear weights, strengths and pair matrices, so every
    gradient term is exercised."""
    rng = np.random.default_rng(seed)
    model.w0 = float(rng.normal())
    for w in model.w:
        w[:] = rng.normal(size=w.shape)
    inter = model.interaction
    if isinstance(inter, FwFMScalars):
        s = rng.normal(size=inter.strengths.shape)
        inter.strengths[:] = 0.5 * (s + s.T)
    elif isinstance(inter, FmFMMatrices):
        for M in inter.matrices.values():
            M[:] = rng.normal(size=M.shape)
    return model


def _parameters(model):
    """Every trainable array of the model, by name; the interaction's
    arrays under the names of its tensors."""
    return {
        **{f"w{f}": w for f, w in enumerate(model.w)},
        **{f"V{f}": v for f, v in enumerate(model.V)},
        **model.interaction.tensors(),
    }


def _dense(model, g):
    """The batch gradient as whole tables (`dense_grads`), by the names of
    `_parameters`."""
    out = {}
    for f, (dw, dv) in enumerate(dense_grads(model, g)):
        out[f"w{f}"], out[f"V{f}"] = dw, dv
    out.update(g.tensors)
    if "strengths" in out:
        # Pairs e < f read strengths[e, f] only.
        out["strengths"] = np.triu(g.tensors["strengths"], 1)
    return out


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_backward_matches_finite_differences_of_mean_loss(variant):
    # `train`'s step on the paths it picks: every field of `mixed_schema`
    # dense, through S, and `wide_schema`'s 41-row id field, wider than
    # 3·c·k, through the gather.
    rows, labels = wide_rows(24, 13, ids=["0", "3", "7", "unseen"])
    mixed_rows = [{"a": r["b"], "b": str(int(r["id"] == "3")), "z": r["z"]} for r in rows]
    for schema, paths, table in (
        (mixed_schema(), [True] * 3, mixed_rows),
        (wide_schema(), [False, True, True], rows),
    ):
        data = pack(schema, table, labels)
        assert (data.val[2] == 0.0).any()  # zero-valued spline entries
        model = randomized(init_params(schema, make_interaction(variant, schema, 3), seed=2), 3)
        assert training._matrix_fields(schema, model.interaction) == paths
        check_mean_loss_gradient(model, data)


def check_mean_loss_gradient(model, data):
    """`train`'s gradient of the batch's mean logloss against central
    differences of the loss under the shipped scorer, entry by entry."""

    def loss():
        return training._loss_and_dscore("binary", predict_scores(model, data), data.y)[0]

    scores, backward = train_step(model, data)
    _, d_score = training._loss_and_dscore("binary", scores, data.y)
    g = backward(d_score / data.n)
    h = 1e-6
    model.w0 += h
    plus = loss()
    model.w0 -= 2 * h
    minus = loss()
    model.w0 += h
    assert g.w0 == pytest.approx((plus - minus) / (2 * h), rel=1e-6, abs=1e-9)
    for name, grad in _dense(model, g).items():
        table = _parameters(model)[name]
        for pos in np.ndindex(table.shape):
            keep = table[pos]
            table[pos] = keep + h
            plus = loss()
            table[pos] = keep - h
            minus = loss()
            table[pos] = keep
            fd = (plus - minus) / (2 * h)
            assert grad[pos] == pytest.approx(fd, rel=1e-5, abs=1e-8), (name, pos)


def _dense_backward(model, data, P, d_score):
    """Reference: dense zero tables filled entry by entry with np.add.at."""
    G, d_tensors = model.interaction.grads(P, d_score)
    dw = [np.zeros_like(w) for w in model.w]
    dV = [np.zeros_like(v) for v in model.V]
    for fid, (idx, val) in enumerate(zip(data.idx, data.val)):
        np.add.at(dw[fid], idx, val * d_score[:, None])
        for c in range(idx.shape[1]):
            np.add.at(dV[fid], idx[:, c], val[:, c, None] * G[fid])
    return float(d_score.sum()), dw, dV, d_tensors


def reference_train(cfg, schema, interaction, data):
    """`train` without a holdout, with the dense backward and a step that
    updates every row of every table."""
    model = init_params(schema, interaction, seed=cfg.seed)
    params = _parameters(model)
    acc = {name: np.zeros_like(a) for name, a in params.items()}
    acc_w0 = 0.0
    order_rng = np.random.default_rng(cfg.seed + 1)
    lr, eps = cfg.step_size, cfg.adagrad_eps
    for _ in range(cfg.epochs):
        order = order_rng.permutation(data.n)
        for start in range(0, data.n, cfg.batch_size):
            batch = data.subset(order[start : start + cfg.batch_size])
            P, linear = _field_vectors(model, batch)
            scores = model.interaction.scores(P, linear)
            _, d_score = training._loss_and_dscore(schema.label_kind, scores, batch.y)
            g0, dw, dV, d_tensors = _dense_backward(model, batch, P, d_score / batch.n)
            grads = {
                **{f"w{f}": a for f, a in enumerate(dw)},
                **{f"V{f}": a for f, a in enumerate(dV)},
            }
            if cfg.l2 > 0.0:
                g0 += cfg.l2 * model.w0
                for name, grad in grads.items():
                    grad += cfg.l2 * params[name]
            grads.update(d_tensors)
            if cfg.optimizer == "sgd":
                model.w0 -= lr * g0
                for name, grad in grads.items():
                    params[name] -= lr * grad
                continue
            acc_w0 += g0 * g0
            model.w0 -= lr * g0 / (math.sqrt(acc_w0) + eps)
            for name, grad in grads.items():
                acc[name] += grad * grad
                params[name] -= lr * grad / (np.sqrt(acc[name]) + eps)
    return model


# The largest parameter gap between `train` and the dense reference: the
# dense path's BLAS products sum in an order of their own (4.4e-16 seen).
STEP_ATOL = 1e-13


@pytest.mark.parametrize("variant", ("ffm", "fwfm", "fmfm"))
@pytest.mark.parametrize("optimizer", ("adagrad", "sgd"))
@pytest.mark.parametrize("l2", (0.0, 0.01))
def test_sparse_step_bit_identical_to_dense_reference(variant, optimizer, l2):
    # 501 id rows, batches of 16 over 40 ids: most rows go untouched. The id
    # field takes the gather path, `b` and `z` the dense path. With l2 = 0
    # the rows no batch touches keep their initial bits.
    schema = wide_schema(vocab=500)
    rows, labels = wide_rows(96, 17, ids=[str(i) for i in range(0, 500, 13)])
    data = pack(schema, rows, labels)
    cfg = TrainConfig(optimizer=optimizer, l2=l2, step_size=0.2, batch_size=16, epochs=3, seed=4)
    inter = make_interaction(variant, schema, 3)
    assert training._matrix_fields(schema, inter) == [False, True, True]
    model, _ = train(cfg, schema, inter, data)
    reference = reference_train(cfg, schema, make_interaction(variant, schema, 3), data)
    assert model.w0 == pytest.approx(reference.w0, rel=0, abs=STEP_ATOL)
    for name, a in _parameters(reference).items():
        npt.assert_allclose(_parameters(model)[name], a, rtol=0, atol=STEP_ATOL, err_msg=name)
    untouched = np.setdiff1d(np.arange(501), np.concatenate(data.idx[0]))
    assert untouched.size > 400
    if l2 == 0.0:
        start = init_params(schema, inter, seed=cfg.seed)
        assert not model.w[0][untouched].any()
        assert model.V[0][untouched].tobytes() == start.V[0][untouched].tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_matrix_and_gather_paths_agree_on_one_batch(variant):
    # Every field forced through each path, on batches whose ids repeat
    # and whose spline rows hold zeros.
    schema = wide_schema()
    rows, labels = wide_rows(64, 5, ids=["0", "3", "7", "unseen"])
    data = pack(schema, rows, labels)
    model = randomized(init_params(schema, make_interaction(variant, schema, 3), seed=2), 4)
    for batch in (data, data.subset(slice(0, 7)), data.subset(slice(7, 8))):
        got = {}
        for use_s in (True, False):
            scores, backward = train_step(model, batch, [use_s] * 3)
            _, d_score = training._loss_and_dscore("binary", scores, batch.y)
            got[use_s] = scores, backward(d_score / batch.n)
        (s_scores, s_g), (g_scores, g_g) = got[True], got[False]
        # With every field on the gather path, `train`'s forward is the scorer's.
        assert g_scores.tobytes() == predict_scores(model, batch).tobytes()
        npt.assert_allclose(s_scores, g_scores, rtol=0, atol=STEP_ATOL)
        assert s_g.w0 == pytest.approx(g_g.w0, rel=0, abs=STEP_ATOL)
        # Both at the batch's rows, and exactly 0.0 at every other row.
        s_fields, g_fields = touched_grads(model, batch, s_g), touched_grads(model, batch, g_g)
        for s_f, g_f in zip(s_fields, g_fields, strict=True):
            for a, b in zip(s_f, g_f, strict=True):
                npt.assert_allclose(a, b, rtol=0, atol=STEP_ATOL)
        assert s_g.tensors.keys() == g_g.tensors.keys()
        for name, t in s_g.tensors.items():
            npt.assert_allclose(t, g_g.tensors[name], rtol=0, atol=STEP_ATOL, err_msg=name)


def test_fields_at_the_config_limits_take_the_gather_path():
    # A 10,000-function spline and a 100,000-value vocabulary are wider
    # than 3·c·k, so a batch of 4,096 builds no n × width matrix: the peak
    # stays within the model's tables, their AdaGrad accumulators and eight
    # (n, c, k) gathers (26 MB; 21 MB seen). An S would be n × width: 3.3 GB
    # for the id field, 328 MB for the spline. A spline exactly 3·c·k wide
    # trains dense: its S is three of its gathers (25 MB; 20 MB seen).
    vocab, n = 100_000, 4096
    rng = np.random.default_rng(8)
    for functions, dense in ((10_000, False), (3 * 4 * 8, True)):
        schema = build_schema(
            [
                ("id", Categorical({str(i): i for i in range(vocab)}, unknown_slot=False)),
                ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(functions, 3))),
            ]
        )
        inter = make_interaction("ffm", schema, 4)
        assert training._matrix_fields(schema, inter) == [False, dense]
        data = pack(schema, {"id": rng.integers(0, vocab, size=n).astype(str).tolist(),
                             "z": rng.random(n).tolist()},
                    rng.integers(0, 2, size=n).astype(float))
        cfg = TrainConfig(batch_size=n, epochs=1, seed=3)
        peak = traced_peak(lambda: train(cfg, schema, inter, data))
        tables = sum(8 * f.width * (inter.embed_dim(f.field_id) + 1) for f in schema.fields)
        gathers = sum(8 * n * c * inter.embed_dim(fid) for fid, c in enumerate((1, 4)))
        assert peak <= 2 * tables + 8 * gathers, (functions, peak, tables, gathers)


@pytest.mark.parametrize("over", (0, 1))
def test_fields_up_to_three_c_k_wide_train_dense(over):
    # FM with k = 4: a one-hot field (c = 1) is dense up to 12 rows, a
    # cubic spline (c = 4) up to 48 functions; one row more takes the gather.
    k = 4
    schema = build_schema(
        [
            ("id", Categorical({str(i): i for i in range(3 * k + over)}, unknown_slot=False)),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(3 * 4 * k + over, 3))),
        ]
    )
    assert training._matrix_fields(schema, make_interaction("fm", schema, k)) == [not over] * 2


@pytest.mark.parametrize("optimizer", ("adagrad", "sgd"))
def test_dense_field_leaves_untouched_rows_bitwise(optimizer):
    # An 11-row categorical field trains dense, but its batches name only
    # 3 of its rows: with l2 = 0 the other rows keep their initial V bytes,
    # and their w stays +0.0.
    schema = build_schema(
        [
            ("c", Categorical({str(i): i for i in range(10)}, unknown_slot=True)),
            ("b", binary_cat()),
        ]
    )
    inter = make_interaction("ffm", schema, 2)
    assert schema.fields[0].width == 11
    assert training._matrix_fields(schema, inter) == [True, True]
    rng = np.random.default_rng(21)
    n = 64
    data = pack(schema, {"c": rng.choice(["1", "4", "8"], size=n).tolist(),
                         "b": rng.choice(["0", "1"], size=n).tolist()},
                rng.integers(0, 2, size=n).astype(float))
    cfg = TrainConfig(optimizer=optimizer, l2=0.0, batch_size=16, epochs=3, seed=5)
    model, _ = train(cfg, schema, inter, data)
    start = init_params(schema, inter, seed=cfg.seed)
    touched = [1, 4, 8]
    untouched = np.setdiff1d(np.arange(11), touched)
    assert model.V[0][untouched].tobytes() == start.V[0][untouched].tobytes()
    assert (model.w[0][untouched] == 0.0).all() and not np.signbit(model.w[0][untouched]).any()
    assert (model.w[0][touched] != 0.0).all()
    assert (model.V[0][touched] != start.V[0][touched]).any(axis=1).all()


# ---------------------------------------------------------------------------
# Oracles: the touched-row map by a sort and the FFM gradient by a pair loop


def assert_same_bits(a, b):
    """Equal shapes and values, and zeros of equal signs."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _unique_rows(idx):
    uniq, inv = np.unique(idx, return_inverse=True)
    return uniq, inv.reshape(idx.shape)


def _ffm_pair_loop_grads(inter, P, d_score):
    """FFM field gradients summed into zeros pair by pair, e < f."""
    k = inter.block_dim
    G = [np.zeros_like(p) for p in P]
    for e, f in itertools.combinations(range(len(P)), 2):
        G[e][:, f * k : (f + 1) * k] += d_score[:, None] * P[f][:, e * k : (e + 1) * k]
        G[f][:, e * k : (e + 1) * k] += d_score[:, None] * P[e][:, f * k : (f + 1) * k]
    return G


def _oracle_backward(model, data, P, d_score):
    """The batched backward with np.unique for the touched rows and, for
    FFM, the pair loop for the field gradients."""
    inter = model.interaction
    if isinstance(inter, FFMFieldConcat):
        G, d_tensors = _ffm_pair_loop_grads(inter, P, d_score), {}
    else:
        G, d_tensors = inter.grads(P, d_score)
    rows, dw, dV = [], [], []
    for fld in model.schema.fields:
        idx, val = data.idx[fld.field_id], data.val[fld.field_id]
        uniq, inv = _unique_rows(idx)
        dw.append(np.bincount(inv.ravel(), (val * d_score[:, None]).ravel(), minlength=uniq.size))
        k = G[fld.field_id].shape[1]
        keys = np.ascontiguousarray(inv.T)[:, :, None] * k + np.arange(k)
        weights = np.ascontiguousarray(val.T)[:, :, None] * G[fld.field_id]
        dV.append(np.bincount(keys.ravel(), weights.ravel(), minlength=uniq.size * k)
                  .reshape(uniq.size, k))
        rows.append(uniq)
    return float(d_score.sum()), rows, dw, dV, d_tensors


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_touched_rows_equal_np_unique(data):
    width = data.draw(st.integers(1, 50))
    n, c = data.draw(st.integers(1, 12)), data.draw(st.integers(0, 5))
    # Draw row 0 often, so that rows repeat.
    entry = st.just(0) | st.integers(0, width - 1)
    idx = np.array(data.draw(st.lists(entry, min_size=n * c, max_size=n * c)),
                   dtype=np.int64).reshape(n, c)
    uniq, inv = training._touched_rows(idx, width)
    want_uniq, want_inv = _unique_rows(idx)
    assert_same_bits(uniq, want_uniq)
    assert_same_bits(inv, want_inv)


@pytest.mark.parametrize("m", [0, 1, 2, 5, 9])
@pytest.mark.parametrize("n", [1, 7, 256])
def test_ffm_grads_equal_pair_loop_bitwise(m, n):
    rng = np.random.default_rng([m, n])
    k = 3
    inter = FFMFieldConcat(num_fields=m, block_dim=k)
    P = [rng.normal(size=(n, m * k)) * (rng.random((n, m * k)) < 0.7) for _ in range(m)]
    d_score = rng.normal(size=n) * (rng.random(n) < 0.7)
    # A negative d_score times a zero entry is -0.0, which the loop's sum
    # from zeros turns into 0.0.
    d_score[0] = -1.0
    for p in P:
        p[0, 0] = 0.0
    G, tensors = inter.grads(P, d_score)
    want = _ffm_pair_loop_grads(inter, P, d_score)
    assert tensors == {} and len(G) == len(want) == m
    for g, w in zip(G, want):
        assert_same_bits(g, w)


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_backward_equals_unique_and_pair_loop_oracle_bitwise(variant):
    # For the same P: the touched rows, w0, the interaction's tensor
    # gradients and the gather path's id field match the oracle bit for bit;
    # the dense path's `b` and `z` sum in BLAS order, so within STEP_ATOL at
    # the touched rows, and are exactly 0.0 at every other row.
    schema = wide_schema()
    rows, labels = wide_rows(64, 5, ids=["0", "3", "7", "unseen"])
    data = pack(schema, rows, labels)
    model = randomized(init_params(schema, make_interaction(variant, schema, 3), seed=2), 4)
    matrix = training._matrix_fields(schema, model.interaction)
    assert matrix == [False, True, True]
    for batch in (data, data.subset(slice(0, 7)), data.subset(slice(7, 8))):
        fbs = training._field_batches(schema, batch, matrix)
        P, linear = _field_vectors(model, batch, fbs)
        scores = model.interaction.scores(P, linear)
        _, d_score = training._loss_and_dscore("binary", scores, batch.y)
        d_score[::3] = 0.0
        g = training._batch_backward(model, batch, fbs, P, d_score / batch.n)
        w0, want_rows, want_w, want_V, want_tensors = _oracle_backward(
            model, batch, P, d_score / batch.n
        )
        assert g.w0 == w0
        got = touched_grads(model, batch, g)
        for use_s, (rows, *arrays), *want in zip(
            matrix, got, want_rows, want_w, want_V, strict=True
        ):
            assert_same_bits(rows, want[0])
            for a, b in zip(arrays, want[1:], strict=True):
                if use_s:
                    npt.assert_allclose(a, b, rtol=0, atol=STEP_ATOL)
                else:
                    assert_same_bits(a, b)
        assert g.tensors.keys() == want_tensors.keys()
        for name, t in want_tensors.items():
            assert_same_bits(g.tensors[name], t)
