import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefm.errors import ConfigError, DataError
from splinefm.model import forward, make_interaction
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
    encode_row,
)
from splinefm.splines import build_uniform
from splinefm.training import (
    TrainConfig,
    evaluate,
    pack,
    predict_scores,
    train,
)
from splinefm.transforms import AffineTransform, fit_quantile


def binary_cat():
    return Categorical({"0": 0, "1": 1}, unknown_slot=False)


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
    schema = mixed_schema()
    rows, labels = random_rows(200, 0)
    data = pack(schema, rows, labels)
    for variant in ("fm", "ffm", "fwfm", "fmfm"):
        inter = make_interaction(variant, schema, 3)
        model, _ = train(
            TrainConfig(epochs=2, seed=1), schema, inter, data
        )
        batch = predict_scores(model, data)
        for i in [0, 7, 42, 199]:
            row = encode_row(schema, rows[i], labels[i])
            assert batch[i] == pytest.approx(forward(model, row)[0], rel=1e-12)


def test_constant_feature_converges_to_logit():
    # One constant categorical field: the score must converge to the
    # logit of the empirical positive rate.
    schema = build_schema([("c", Categorical({"x": 0}, unknown_slot=False))])
    rng = np.random.default_rng(3)
    labels = (rng.random(2000) < 0.3).astype(float)
    rows = [{"c": "x"} for _ in labels]
    data = pack(schema, rows, labels)
    cfg = TrainConfig(loss="logloss", optimizer="adagrad", step_size=1.0, epochs=500, seed=0)
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
    cfg = TrainConfig(
        loss="squared", optimizer="adagrad", step_size=0.3, epochs=150, seed=0
    )
    model, _ = train(cfg, schema, make_interaction("fm", schema, 0), data)
    rmse = evaluate(model, data, "squared").rmse
    assert rmse < 1e-2


def test_same_seed_bit_identical():
    schema = mixed_schema()
    rows, labels = random_rows(300, 5)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=3, seed=7, holdout_fraction=0.2)
    m1, _ = train(cfg, schema, make_interaction("ffm", schema, 2), data)
    m2, _ = train(cfg, schema, make_interaction("ffm", schema, 2), data)
    assert m1.w0 == m2.w0
    npt.assert_array_equal(m1.w, m2.w)
    for a, b in zip(m1.V, m2.V):
        npt.assert_array_equal(a, b)


def test_holdout_rows_never_influence_parameters():
    schema = mixed_schema()
    rows, labels = random_rows(300, 6)
    h1_rows, h1_labels = random_rows(50, 7)
    h2_rows, h2_labels = random_rows(120, 8)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=3, seed=1, select_best=False)
    inter = make_interaction("fm", schema, 2)
    m1, _ = train(cfg, schema, inter, data, holdout=pack(schema, h1_rows, h1_labels))
    m2, _ = train(cfg, schema, inter, data, holdout=pack(schema, h2_rows, h2_labels))
    assert m1.w0 == m2.w0
    npt.assert_array_equal(m1.w, m2.w)
    for a, b in zip(m1.V, m2.V):
        npt.assert_array_equal(a, b)


def test_full_batch_gd_loss_non_increasing_linear_case():
    schema = build_schema([("a", binary_cat()), ("b", binary_cat())])
    rows, labels = random_rows(200, 9)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(
        loss="squared",
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
    metrics = evaluate(m, data, "logloss")
    assert math.isfinite(metrics.cross_entropy)


def test_evaluate_closed_forms():
    schema = build_schema([("a", binary_cat())])
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 1), seed=0)
    rows = [{"a": "0"}, {"a": "1"}, {"a": "0"}]
    data = pack(schema, rows, [0.0, 1.0, 1.0])
    # All-zero parameters predict exactly 0.5.
    assert evaluate(m, data, "logloss").cross_entropy == pytest.approx(math.log(2))
    # Perfect predictions under squared loss.
    data_real = pack(schema, rows, [0.0, 0.0, 0.0])
    assert evaluate(m, data_real, "squared").rmse == 0.0


def test_evaluate_hand_computed_batch():
    schema = build_schema([("a", binary_cat())])
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 1), seed=0)
    m.w[:] = [1.0, -1.0]
    rows = [{"a": "0"}, {"a": "1"}, {"a": "1"}]
    data = pack(schema, rows, [1.0, 0.0, 1.0])
    p0 = 1 / (1 + math.exp(-1.0))
    p1 = 1 / (1 + math.exp(1.0))
    expected = -(math.log(p0) + math.log(1 - p1) + math.log(p1)) / 3
    assert evaluate(m, data, "logloss").cross_entropy == pytest.approx(expected, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        TrainConfig(loss="hinge").validate()
    with pytest.raises(ConfigError):
        TrainConfig(step_size=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(holdout_fraction=1.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()


def test_empty_inputs_rejected():
    schema = mixed_schema()
    data = pack(schema, [], [])
    with pytest.raises(DataError):
        train(TrainConfig(), schema, make_interaction("fm", schema, 2), data)
    from splinefm.model import init_params

    m = init_params(schema, make_interaction("fm", schema, 2), seed=0)
    with pytest.raises(DataError):
        evaluate(m, data, "logloss")


def test_binary_labels_enforced():
    schema = mixed_schema()
    rows, _ = random_rows(10, 1)
    data = pack(schema, rows, np.linspace(0, 1, 10))
    with pytest.raises(DataError):
        train(TrainConfig(), schema, make_interaction("fm", schema, 2), data)


def test_best_epoch_selection_uses_holdout():
    schema = mixed_schema()
    rows, labels = random_rows(400, 11)
    data = pack(schema, rows, labels)
    cfg = TrainConfig(epochs=8, seed=2, holdout_fraction=0.25, select_best=True)
    model, metrics = train(cfg, schema, make_interaction("ffm", schema, 2), data)
    holdout_losses = [r["holdout_loss"] for r in metrics.history]
    assert metrics.cross_entropy == pytest.approx(min(holdout_losses), rel=1e-9)


# ---------------------------------------------------------------------------
# Column-wise packing against the per-row encoder


def oracle_pack(schema, rows):
    """Pack `encode_row` entries row by row: nonzero entries left-aligned
    in index order, padding index 0 with value 0.0."""
    widths = [f.kind.basis.degree + 1 if f.reduction == "sum" else 1 for f in schema.fields]
    idx = [np.zeros((len(rows), c), dtype=np.intp) for c in widths]
    val = [np.zeros((len(rows), c)) for c in widths]
    for r, raw in enumerate(rows):
        cursor = [0] * len(widths)
        for gi, v, fid in encode_row(schema, raw).entries:
            idx[fid][r, cursor[fid]] = gi - schema.fields[fid].offset
            val[fid][r, cursor[fid]] = v
            cursor[fid] += 1
    return idx, val


def assert_packed_bitwise(data, idx, val):
    assert len(data.idx) == len(idx) and len(data.val) == len(val)
    for got, want in zip(data.idx, idx):
        assert got.dtype == want.dtype and got.shape == want.shape
        npt.assert_array_equal(got, want)
    for got, want in zip(data.val, val):
        assert got.dtype == want.dtype and got.shape == want.shape
        npt.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


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

    schema = build_schema(
        [
            ("open", Categorical({"a": 0, "b": 1, "c": 2}, unknown_slot=True)),
            ("closed", Categorical({"x": 0, "y": 1}, unknown_slot=False)),
            ("bin", BinnedNumerical(np.unique(np.asarray(sample, dtype=float)))),
            ("q", ContinuousNumerical(quantile, basis())),
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
    idx, val = oracle_pack(schema, rows)
    assert_packed_bitwise(pack(schema, rows, np.zeros(len(rows))), idx, val)


@settings(max_examples=50, deadline=None)
@given(case=schemas_and_rows(closed_values=("x", "y", "unseen")))
def test_property_pack_raises_what_encode_row_raises(case):
    schema, rows = case
    try:
        expected = oracle_pack(schema, rows)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            pack(schema, rows, np.zeros(len(rows)))
        assert str(got.value) == str(exc)
    else:
        assert_packed_bitwise(pack(schema, rows, np.zeros(len(rows))), *expected)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pack_fewer_rows_than_basis_support(n):
    # Cubic basis: fewer rows than degree + 1, and the single-row case.
    schema = mixed_schema()
    rows, labels = random_rows(n, 12)
    rows[0]["z"] = ""
    data = pack(schema, rows, labels)
    assert data.n == n
    assert [a.shape for a in data.idx] == [(n, 1), (n, 1), (n, 4)]
    assert_packed_bitwise(data, *oracle_pack(schema, rows))

