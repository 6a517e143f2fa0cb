"""End-to-end acceptance suite.

Each test checks one shipped guarantee at its stated tolerance and
runtime budget and prints a single pass/fail line so the whole
contract can be audited from the test log at a glance.
"""
import csv
import math
import os
import time

import numpy as np
import pytest
import yaml
from oracles import (
    binary_cat,
    brute_force_score,
    fit_pairwise_span,
    fit_span,
    offsets,
    perturb,
    random_model,
    sum_reduced_score,
    touched_params,
    train_step,
)

from splinefm import training
from splinefm.bin_export import export_binned, make_boundaries
from splinefm.cli import main as cli_main
from splinefm.model import (
    PackedData,
    make_interaction,
    predict_scores,
)
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
    infer_schema,
)
from splinefm.splines import build_uniform
from splinefm.synthetic import DEFAULT_CURVES, generate, run_comparison
from splinefm.training import TrainConfig, evaluate, pack, train
from splinefm.transforms import AffineTransform

VARIANTS = ("fm", "ffm", "fwfm", "fmfm")


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[acceptance {num}] {name}: {status} ({detail})", flush=True)
    assert ok, f"acceptance criterion {num} ({name}): {detail}"


def mixed_schema(num_functions=6):
    return build_schema(
        [
            ("a", binary_cat()),
            ("b", Categorical({"p": 0, "q": 1, "r": 2}, unknown_slot=False)),
            (
                "z",
                ContinuousNumerical(
                    AffineTransform(0, 1), build_uniform(num_functions, 3)
                ),
            ),
        ]
    )


def scores(model, rows):
    """Raw scores of raw rows under the shipped scorer, `predict_scores`."""
    return predict_scores(model, pack(model.schema, rows, np.zeros(len(rows))))


# ---------------------------------------------------------------------------
# 1. Spanning property


def test_acceptance_1_spanning(capsys):
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(0)
    for i in range(50):
        variant = VARIANTS[i % 4]
        schema = mixed_schema(num_functions=int(rng.integers(4, 10)))
        model = random_model(schema, variant, seed=1000 + i)
        segment = {"a": str(rng.integers(0, 2)), "b": ["p", "q", "r"][rng.integers(0, 3)]}
        _, _, res = fit_span(model, segment, "z")
        worst = max(worst, res)
    elapsed = time.time() - start
    ok = worst < 1e-9 and elapsed < 10.0
    report(capsys, 1, "segmentized curves lie in the spline span", ok,
           f"max residual {worst:.2e} over 50 models, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 2. Pairwise spanning


def test_acceptance_2_pairwise_spanning(capsys):
    start = time.time()

    def two_field_schema(l1, l2):
        return build_schema(
            [
                ("a", binary_cat()),
                ("u", ContinuousNumerical(AffineTransform(0, 1), build_uniform(l1, 3))),
                ("v", ContinuousNumerical(AffineTransform(-2, 3), build_uniform(l2, 3))),
            ]
        )

    rng = np.random.default_rng(1)
    worst_res = 0.0
    worst_cross = 0.0
    for i in range(20):
        schema = two_field_schema(int(rng.integers(4, 8)), int(rng.integers(4, 8)))
        model = random_model(schema, VARIANTS[i % 4], seed=2000 + i)
        _, _, res = fit_pairwise_span(model, {"a": "0"}, "u", "v")
        worst_res = max(worst_res, res)
    # Zero pair matrix: no spurious cross terms may be fitted.
    for i in range(5):
        schema = two_field_schema(6, 5)
        model = random_model(schema, "fmfm", seed=2100 + i)
        model.interaction.matrices[2] = 0.0  # the pair (1, 2)
        alpha, _, res = fit_pairwise_span(model, {"a": "1"}, "u", "v")
        worst_res = max(worst_res, res)
        worst_cross = max(worst_cross, float(np.max(np.abs(alpha[1:, 1:]))))
    elapsed = time.time() - start
    ok = worst_res < 1e-9 and worst_cross < 1e-9 and elapsed < 30.0
    report(capsys, 2, "pairwise surfaces lie in the tensor-product span", ok,
           f"max residual {worst_res:.2e}, max spurious cross coeff "
           f"{worst_cross:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. B-spline correctness


def naive_cox_de_boor(knots, degree, i, z):
    if degree == 0:
        if knots[i] <= z < knots[i + 1]:
            return 1.0
        if z == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    denom = knots[i + degree] - knots[i]
    if denom > 0.0:
        left = (z - knots[i]) / denom * naive_cox_de_boor(knots, degree - 1, i, z)
    right = 0.0
    denom = knots[i + degree + 1] - knots[i + 1]
    if denom > 0.0:
        right = (
            (knots[i + degree + 1] - z)
            / denom
            * naive_cox_de_boor(knots, degree - 1, i + 1, z)
        )
    return left + right


def test_acceptance_3_bspline_correctness(capsys):
    start = time.time()
    worst_pu = 0.0
    worst_oracle = 0.0
    max_nonzeros = 0
    rng = np.random.default_rng(2)
    for ell in (4, 8, 9, 16):
        basis = build_uniform(ell, 3)
        _, values = basis.eval_batch(rng.random(10_000))
        worst_pu = max(worst_pu, float(np.max(np.abs(values.sum(axis=1) - 1.0))))
        max_nonzeros = max(max_nonzeros, int(np.count_nonzero(values, axis=1).max()))
        grid = np.linspace(0.0, 1.0, 1001)
        for z, dense in zip(grid, basis.eval_many(grid)):
            oracle = np.array(
                [naive_cox_de_boor(basis.knots, 3, i, z) for i in range(ell)]
            )
            worst_oracle = max(worst_oracle, float(np.max(np.abs(dense - oracle))))
    elapsed = time.time() - start
    ok = worst_pu < 1e-12 and max_nonzeros <= 4 and worst_oracle < 1e-12 and elapsed < 5.0
    report(capsys, 3, "B-spline basis matches the direct recurrence", ok,
           f"partition error {worst_pu:.2e}, <= {max_nonzeros} nonzeros, "
           f"oracle gap {worst_oracle:.2e}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 4. Gradient check


def test_acceptance_4_gradient_check(capsys):
    # `train`'s forward and backward on each row as a batch of one with
    # d_score = 1, against central differences of the row's score under the
    # shipped scorer. Each row runs on the path `train` picks for this
    # schema (dense, through S, for every field) and on the gather path.
    start = time.time()
    h = 1e-5
    worst = 0.0
    kinds = set()
    rng = np.random.default_rng(3)
    for i in range(100):
        schema = mixed_schema()
        model = random_model(schema, VARIANTS[i % 4], seed=4000 + i)
        assert training._matrix_fields(schema, model.interaction) == [True] * 3
        raw = {
            "a": str(rng.integers(0, 2)),
            "b": ["p", "q", "r"][rng.integers(0, 3)],
            "z": float(rng.random()),
        }
        data = pack(schema, [raw], [0.0])
        for matrix in (None, [False] * 3):
            _, backward = train_step(model, data, matrix)
            for kind, key, g in touched_params(model, data, backward(np.ones(1))):
                kinds.add(kind)
                perturb(model, kind, key, h)
                plus = predict_scores(model, data)[0]
                perturb(model, kind, key, -2 * h)
                minus = predict_scores(model, data)[0]
                perturb(model, kind, key, h)
                fd = (plus - minus) / (2 * h)
                # Floor keeps roundoff noise in near-zero gradients from
                # masquerading as relative error.
                rel = abs(fd - g) / max(abs(fd), abs(g), 1e-6)
                worst = max(worst, rel)
    elapsed = time.time() - start
    ok = worst < 1e-4 and elapsed < 30.0 and kinds == {"w0", "w", "v", "s", "m"}
    report(capsys, 4, "analytic gradients match finite differences", ok,
           f"max relative error {worst:.2e} over 100 rows on both paths, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 5. Brute-force equivalence


def test_acceptance_5_brute_force_equivalence(capsys):
    # `predict_scores` against the raw double loop, on rows the schema can
    # encode: one entry per one-hot field, here with a random value.
    worst = 0.0
    rng = np.random.default_rng(4)
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("b", Categorical({"p": 0, "q": 1, "r": 2}, unknown_slot=False)),
            ("c", BinnedNumerical(np.array([0.0, 1.0]))),
        ]
    )
    n = 10
    for i, variant in enumerate(VARIANTS):
        model = random_model(schema, variant, seed=5000 + i)
        local = [rng.integers(0, f.width, size=(n, 1)) for f in schema.fields]
        value = [rng.normal(size=(n, 1)) for _ in schema.fields]
        got = predict_scores(model, PackedData(idx=local, val=value, y=np.zeros(n)))
        for r in range(n):
            entries = [(start + int(local[f.field_id][r, 0]), float(value[f.field_id][r, 0]),
                        f.field_id) for f, start in zip(schema.fields, offsets(schema))]
            expected = brute_force_score(model, entries)
            worst = max(worst, abs(got[r] - expected) / max(abs(expected), 1e-12))
    # Sum-reduced field: pre-sum its entries and apply the same oracle.
    raw = {"a": "1", "b": "q", "z": 0.37}
    for i, variant in enumerate(VARIANTS):
        model = random_model(mixed_schema(), variant, seed=5100 + i)
        score = scores(model, [raw])[0]
        expected = sum_reduced_score(model, raw, "z")
        worst = max(worst, abs(score - expected) / max(abs(expected), 1e-12))
    ok = worst < 1e-12
    report(capsys, 5, "predict_scores equals the raw double-loop oracle", ok,
           f"max relative gap {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. Binning-export fidelity


def test_acceptance_6_export_fidelity(capsys):
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("z", ContinuousNumerical(AffineTransform(0.0, 10.0), build_uniform(9, 3))),
        ]
    )
    model = random_model(schema, "ffm", seed=6000, dim=3)
    transform = schema.fields[1].kind.transform
    grid = [{"a": "1", "z": float(z)} for z in np.linspace(0.0, 10.0, 2001)[:-1]]
    worst_mid = 0.0
    grid_errors = []
    for num_bins in (10, 200, 1000):
        boundaries = make_boundaries(transform, num_bins, "inverse_cdf")
        binned, export = export_binned(model, "z", boundaries)
        mids = [{"a": "0", "z": float(mid)} for mid in export.midpoints]
        s0, s1 = scores(model, mids), scores(binned, mids)
        worst_mid = max(worst_mid, float(np.max(np.abs(s1 - s0) / np.maximum(np.abs(s0), 1e-12))))
        grid_errors.append(float(np.mean(np.abs(scores(model, grid) - scores(binned, grid)))))
    monotone = grid_errors[0] > grid_errors[1] > grid_errors[2]
    ok = worst_mid < 1e-12 and monotone
    report(capsys, 6, "binning export reproduces midpoint scores", ok,
           f"max midpoint gap {worst_mid:.2e}, mean grid errors "
           f"{grid_errors[0]:.2e} > {grid_errors[1]:.2e} > {grid_errors[2]:.2e}")


# ---------------------------------------------------------------------------
# 7. Synthetic bins-versus-splines experiment


def test_acceptance_7_synthetic_experiment(capsys):
    start = time.time()
    # 25,000 training and 75,000 test rows, drawn with seeds 0 and 1.
    rows_tr, y_tr, _, _ = generate(DEFAULT_CURVES, 25_000, 0)
    rows_te, y_te, _, _ = generate(DEFAULT_CURVES, 75_000, 1)
    records = run_comparison(
        (rows_tr, y_tr, rows_te, y_te),
        interval_counts=[5, 6, 12, 120],
        repeats=15,
        seed=0,
        train_config=TrainConfig(step_size=0.05, epochs=12),
        block_dim=4,
    )
    means = {}
    for strategy in ("binned", "spline"):
        for count in (5, 6, 12, 120):
            losses = [
                r["test_loss"]
                for r in records
                if r["strategy"] == strategy and r["intervals"] == count
            ]
            means[(strategy, count)] = float(np.mean(losses))
    spline6 = means[("spline", 6)]
    ordering = all(spline6 < means[("binned", c)] for c in (5, 12, 120))
    u_shape = means[("binned", 120)] > means[("binned", 12)]
    elapsed = time.time() - start
    ok = ordering and u_shape and elapsed < 1800.0
    report(capsys, 7, "splines beat binning on the synthetic task", ok,
           f"spline6 {spline6:.5f} vs binned5 {means[('binned', 5)]:.5f} / "
           f"binned12 {means[('binned', 12)]:.5f} / binned120 "
           f"{means[('binned', 120)]:.5f}, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# 8. Real-data directional check (optional; user-supplied CSV)


def test_acceptance_8_california_housing(capsys):
    path = os.environ.get("SPLINEFM_CALHOUSING_CSV")
    if not path:
        with capsys.disabled():
            print(
                "\n[acceptance 8] spline beats binning on California housing: "
                "SKIP (set SPLINEFM_CALHOUSING_CSV to a local CSV to enable)",
                flush=True,
            )
        pytest.skip("SPLINEFM_CALHOUSING_CSV not set")
    target_col = os.environ.get("SPLINEFM_CALHOUSING_TARGET", "median_house_value")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = np.array([float(r.pop(target_col)) for r in rows])
    labels = (labels - labels.mean()) / labels.std()
    numeric_cols = [
        c for c in rows[0] if all(_is_float(r[c]) for r in rows[:200])
    ]

    def run(strategy):
        decls = []
        for c in numeric_cols:
            if strategy == "spline":
                decls.append(
                    {"name": c, "kind": "continuous", "num_functions": 8,
                     "transform": "quantile", "resolution": 200}
                )
            else:
                decls.append({"name": c, "kind": "binned", "bins": 8})
        schema = infer_schema(rows, {"label_kind": "real", "fields": decls})
        data = pack(schema, rows, labels)
        rmses = []
        for seed in range(20):
            best = math.inf
            for step in (0.05, 0.15):
                cfg = TrainConfig(step_size=step, epochs=8, seed=seed, holdout_fraction=0.2)
                model, _ = train(cfg, schema, make_interaction("fm", schema, 4), data)
                m = evaluate(model, data)
                best = min(best, m.rmse)
            rmses.append(best)
        return float(np.mean(rmses))

    spline_rmse = run("spline")
    binned_rmse = run("binned")
    ok = spline_rmse < 0.98 * binned_rmse
    report(capsys, 8, "spline beats binning on California housing", ok,
           f"spline rmse {spline_rmse:.4f} vs binned {binned_rmse:.4f}")


def _is_float(s):
    try:
        float(s)
        return True
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_acceptance_9_cli_determinism(capsys, tmp_path):
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(9)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["color", "x", "label"])
        for _ in range(400):
            color = ["red", "green", "blue"][rng.integers(0, 3)]
            x = float(rng.random() * 5)
            writer.writerow([color, x, int(rng.random() < 0.4)])
    cfg = tmp_path / "config.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(
            {
                "data": {"path": str(data), "label": "label"},
                "schema": {
                    "fields": [
                        {"name": "color", "kind": "categorical"},
                        {"name": "x", "kind": "continuous", "num_functions": 6,
                         "transform": "quantile", "resolution": 50},
                    ]
                },
                "model": {"variant": "fmfm", "dim": 3},
                "train": {"epochs": 3, "seed": 11, "holdout_fraction": 0.2},
            },
            fh,
        )
    assert cli_main(["train", str(cfg), "--output", str(tmp_path / "r1")]) == 0
    assert cli_main(["train", str(cfg), "--output", str(tmp_path / "r2")]) == 0
    model_same = (tmp_path / "r1" / "model.json").read_bytes() == (
        tmp_path / "r2" / "model.json"
    ).read_bytes()
    metrics_same = (tmp_path / "r1" / "metrics.json").read_bytes() == (
        tmp_path / "r2" / "metrics.json"
    ).read_bytes()
    ok = model_same and metrics_same
    report(capsys, 9, "repeated CLI runs are bit-identical", ok,
           f"model identical: {model_same}, metrics identical: {metrics_same}")
