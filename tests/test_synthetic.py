import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from splinefm.errors import ConfigError
from splinefm.model import init_params, make_interaction
from splinefm.synthetic import (
    DEFAULT_CURVES,
    build_synthetic_schema,
    curve_value,
    emit_curves,
    generate,
    run_comparison,
)
from splinefm.training import TrainConfig


def test_default_curves_stay_in_open_interval():
    grid = np.linspace(0.0, 40.0, 4001)
    for curve in DEFAULT_CURVES:
        p = curve_value(curve, grid)
        assert p.min() > 0.1 - 1e-12
        assert p.max() < 0.9 + 1e-12


def test_curve_value_hand_computed():
    logistic = {"family": "logistic", "base": 0.2, "amplitude": 0.5, "center": 10.0, "scale": 2.0}
    assert curve_value(logistic, 10.0) == pytest.approx(0.2 + 0.25)
    gauss = {"family": "gaussian", "base": 0.3, "amplitude": 0.4, "center": 5.0, "width": 3.0}
    assert curve_value(gauss, 5.0) == pytest.approx(0.7)
    assert curve_value(gauss, 5.0 + 3.0) == pytest.approx(0.3 + 0.4 * math.exp(-0.5))


def test_curve_leaving_unit_interval_rejected():
    bad = {"family": "logistic", "base": 0.5, "amplitude": 0.7, "center": 20.0, "scale": 3.0}
    with pytest.raises(ConfigError):
        curve_value(bad, np.linspace(0, 40, 401))


@pytest.mark.parametrize(
    "family, params, expected",
    [
        ("logistic", {"scale": 0}, None),  # divides by zero, and 0 / 0 at the center
        ("logistic", {"scale": 1e-300}, [0.2, 0.45, 0.7, 0.7, 0.7]),  # exp overflows
        ("gaussian", {"width": 1e-200}, None),  # the squared width underflows to 0
    ],
)
def test_curve_value_extreme_parameters_warn_nothing(family, params, expected):
    curve = {"family": family, "base": 0.2, "amplitude": 0.5, "center": 10.0, **params}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if expected is None:
            with pytest.raises(ConfigError, match=r"leaves \(0, 1\)"):
                curve_value(curve, np.linspace(0.0, 40.0, 5))
        else:
            npt.assert_array_equal(curve_value(curve, np.linspace(0.0, 40.0, 5)), expected)


def test_generate_is_deterministic():
    r1, y1, s1, z1 = generate(DEFAULT_CURVES, 500, seed=42)
    r2, y2, s2, z2 = generate(DEFAULT_CURVES, 500, seed=42)
    assert r1 == r2
    npt.assert_array_equal(y1, y2)
    npt.assert_array_equal(s1, s2)
    npt.assert_array_equal(z1, z2)
    _, y3, _, _ = generate(DEFAULT_CURVES, 500, seed=43)
    assert not np.array_equal(y1, y3)


def test_segment_bits_match_segment_index():
    rows, _, segments, z = generate(DEFAULT_CURVES, 200, seed=0)
    for row, s, zi in zip(rows, segments, z):
        assert int(row["c0"]) * 4 + int(row["c1"]) * 2 + int(row["c2"]) == s
        assert row["z"] == float(zi)


def test_segment_frequencies_uniform():
    n = 40_000
    _, _, segments, _ = generate(DEFAULT_CURVES, n, seed=1)
    counts = np.bincount(segments, minlength=8)
    se = math.sqrt(n * (1 / 8) * (7 / 8))
    npt.assert_allclose(counts, n / 8, atol=4 * se)


def test_numeric_value_distribution_moments():
    # z ~ Binomial(40, q), q ~ Beta(0.9, 1.2): mean = 40 * 0.9 / 2.1.
    n = 60_000
    _, _, _, z = generate(DEFAULT_CURVES, n, seed=2)
    assert z.min() >= 0 and z.max() <= 40
    expected_mean = 40 * 0.9 / 2.1
    assert abs(z.mean() - expected_mean) < 4 * z.std() / math.sqrt(n)


def test_click_rate_tracks_curves_per_cell():
    n = 200_000
    rows, y, segments, z = generate(DEFAULT_CURVES, n, seed=3)
    for s in (0, 3, 6):
        for z0 in (5, 17, 30):
            mask = (segments == s) & (z == z0)
            if mask.sum() < 400:
                continue
            p = curve_value(DEFAULT_CURVES[s], float(z0))
            se = math.sqrt(p * (1 - p) / mask.sum())
            assert abs(y[mask].mean() - p) < 4 * se


def test_schema_strategies():
    binned = build_synthetic_schema("binned", 12)
    assert binned.total_features == 2 + 2 + 2 + 12
    npt.assert_allclose(
        binned.fields[3].kind.boundaries, np.linspace(0, 40, 13), atol=1e-12
    )
    spline = build_synthetic_schema("spline", 6)
    assert spline.fields[3].kind.basis.num_functions == 9
    assert spline.total_features == 2 + 2 + 2 + 9
    with pytest.raises(ConfigError):
        build_synthetic_schema("histogram", 5)
    with pytest.raises(ConfigError):
        build_synthetic_schema("binned", 0)


def small_data(seed: int, n: int = 600) -> tuple:
    """(train rows, train labels, test rows, test labels): n rows each, as
    `generate` draws them with `seed` and `seed + 1`."""
    rows_tr, y_tr, _, _ = generate(DEFAULT_CURVES, n, seed)
    rows_te, y_te, _, _ = generate(DEFAULT_CURVES, n, seed + 1)
    return rows_tr, y_tr, rows_te, y_te


def test_run_comparison_record_layout_and_determinism():
    cfg = TrainConfig(epochs=1, batch_size=512)
    recs = run_comparison(small_data(9), [5], repeats=2, seed=9, train_config=cfg, block_dim=2)
    assert len(recs) == 4  # 2 strategies x 1 count x 2 repeats
    assert {r["strategy"] for r in recs} == {"binned", "spline"}
    for r in recs:
        assert math.isfinite(r["test_loss"]) and math.isfinite(r["train_loss"])
    recs2 = run_comparison(small_data(9), [5], repeats=2, seed=9, train_config=cfg, block_dim=2)
    assert recs == recs2
    # Repeats differ only in initialization, and do differ.
    by_rep = {r["repeat"]: r["test_loss"] for r in recs if r["strategy"] == "spline"}
    assert by_rep[0] != by_rep[1]


def test_emit_curves_identity_for_perfect_spline_model():
    # Hand-build a model whose reduced linear term reproduces a spline
    # function exactly: emit_curves must return its sigmoid everywhere.
    schema = build_synthetic_schema("spline", 6)
    model = init_params(schema, make_interaction("fm", schema, 0), seed=0)
    fld = schema.fields[3]
    rng = np.random.default_rng(5)
    coef = rng.normal(size=fld.width)
    model.w[fld.field_id] = coef
    grid = np.linspace(0.0, 40.0, 81)
    records = emit_curves(model, grid, DEFAULT_CURVES)
    basis = fld.kind.basis
    for rec in records:
        u = rec["z"] / 40.0
        expected = 1.0 / (1.0 + math.exp(-float(basis.eval_many([u])[0] @ coef)))
        assert rec["predicted"] == pytest.approx(expected, rel=1e-12)
    assert len(records) == 8 * len(grid)


def test_emit_curves_truth_column():
    schema = build_synthetic_schema("spline", 4)
    model = init_params(schema, make_interaction("fm", schema, 1), seed=1)
    grid = np.array([0.0, 20.0, 40.0])
    records = emit_curves(model, grid, DEFAULT_CURVES)
    for rec in records:
        expected = float(curve_value(DEFAULT_CURVES[rec["segment"]], rec["z"]))
        assert rec["truth"] == pytest.approx(expected, rel=1e-12)


def test_generate_input_validation():
    with pytest.raises(ConfigError):
        generate(DEFAULT_CURVES, 0, seed=0)
    with pytest.raises(ConfigError):
        generate(DEFAULT_CURVES[:3], 10, seed=0)
    with pytest.raises(ConfigError):
        run_comparison(small_data(0, 10), [5], repeats=0, seed=0, train_config=TrainConfig(),
                       block_dim=4)
