import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles

from splinefm import synthetic
from splinefm.cli import _read_table, main
from splinefm.errors import DataError
from splinefm.model import load_model
from splinefm.training import TrainConfig


def write_dataset(path, n=300, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["color", "x", "label"])
        for _ in range(n):
            color = ["red", "green", "blue"][rng.integers(0, 3)]
            x = float(rng.random() * 10)
            p = 0.2 + 0.5 * (x / 10) + (0.1 if color == "red" else 0.0)
            writer.writerow([color, x, int(rng.random() < p)])


def write_config(path, data_path, out_dir, epochs=2):
    doc = {
        "data": {"path": str(data_path), "label": "label"},
        "schema": {
            "fields": [
                {"name": "color", "kind": "categorical"},
                {
                    "name": "x",
                    "kind": "continuous",
                    "num_functions": 6,
                    "transform": "quantile",
                    "resolution": 50,
                },
            ]
        },
        "model": {"variant": "ffm", "dim": 2},
        "train": {"epochs": epochs, "seed": 3, "batch_size": 64},
        "output": {"directory": str(out_dir)},
    }
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return doc


@pytest.fixture()
def trained(tmp_path):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "config.yaml"
    out = tmp_path / "run"
    write_dataset(data)
    write_config(cfg, data, out)
    assert main(["train", str(cfg)]) == 0
    return {"data": data, "config": cfg, "out": out}


def test_train_writes_model_metrics_manifest(trained, capsys):
    out = trained["out"]
    assert (out / "model.json").is_file()
    metrics = json.loads((out / "metrics.json").read_text())
    assert np.isfinite(metrics["cross_entropy"])
    assert len(metrics["history"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == ["train", str(trained["config"])]
    assert manifest["config"]["train"]["seed"] == 3
    assert "splinefm_version" in manifest and "numpy_version" in manifest


def test_train_determinism_bit_identical(tmp_path):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "config.yaml"
    write_dataset(data)
    write_config(cfg, data, tmp_path / "unused")
    assert main(["train", str(cfg), "--output", str(tmp_path / "r1")]) == 0
    assert main(["train", str(cfg), "--output", str(tmp_path / "r2")]) == 0
    m1 = (tmp_path / "r1" / "model.json").read_bytes()
    m2 = (tmp_path / "r2" / "model.json").read_bytes()
    assert m1 == m2
    j1 = (tmp_path / "r1" / "metrics.json").read_bytes()
    j2 = (tmp_path / "r2" / "metrics.json").read_bytes()
    assert j1 == j2


def test_eval_prints_metrics(trained, tmp_path, capsys):
    model = trained["out"] / "model.json"
    rc = main(["eval", str(model), str(trained["data"]), "--output", str(tmp_path / "ev")])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    doc = json.loads((tmp_path / "ev" / "metrics.json").read_text())
    assert printed == doc
    assert doc["sample_count"] == 300
    assert np.isfinite(doc["cross_entropy"])


@pytest.mark.parametrize("variant", ["fm", "ffm", "fwfm", "fmfm"])
def test_bias_only_model_trains_and_evaluates(tmp_path, capsys, variant):
    # No fields: the row count comes from the data, not from a field array.
    data = tmp_path / "data.csv"
    write_dataset(data, n=50)
    cfg = tmp_path / "config.yaml"
    doc = write_config(cfg, data, tmp_path / "run")
    doc["schema"]["fields"] = []
    doc["model"]["variant"] = variant
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "run" / "model.json"), str(data)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["sample_count"] == 50 and math.isfinite(metrics["cross_entropy"])


def test_export_bins_verb(trained, tmp_path):
    export_cfg = tmp_path / "export.yaml"
    with open(export_cfg, "w") as fh:
        yaml.safe_dump({"export": {"field": "x", "bins": 16, "mode": "inverse_cdf"}}, fh)
    out = tmp_path / "exp"
    model = trained["out"] / "model.json"
    assert main(["export-bins", str(model), str(export_cfg), "--output", str(out)]) == 0
    assert (out / "model_binned.json").is_file()
    with open(out / "bins.tsv", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0][:4] == ["low", "high", "midpoint", "linear"]
    assert len(rows) == 1 + 16


@pytest.mark.parametrize(
    "export, message",
    [
        ({"mode": "inverse_cdf", "bins": 4, "boundaries": [0, 1, 2]},
         "export.boundaries is read only by export.mode explicit"),
        ({"mode": "explicit"}, "export.mode explicit needs export.boundaries"),
        ({"mode": "explicit", "bins": 7, "boundaries": [0, 5, 10]},
         "export.bins is not read by export.mode explicit"),
    ],
    ids=["boundaries_without_explicit", "explicit_without_boundaries", "bins_with_explicit"],
)
def test_export_boundaries_only_with_explicit_mode(trained, tmp_path, capsys, export, message):
    export_cfg = tmp_path / "export.yaml"
    export_cfg.write_text(yaml.safe_dump({"export": {"field": "x", **export}}))
    out = tmp_path / "exp"
    model = trained["out"] / "model.json"
    assert main(["export-bins", str(model), str(export_cfg), "--output", str(out)]) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (out / "bins.tsv").exists()


def _export_geometric(model_path, tmp_path):
    export_cfg = tmp_path / "geometric.yaml"
    with open(export_cfg, "w") as fh:
        yaml.safe_dump({"export": {"field": "x", "bins": 8, "mode": "geometric"}}, fh)
    out = tmp_path / "geometric"
    return main(["export-bins", str(model_path), str(export_cfg), "--output", str(out)]), out


def test_export_bins_geometric_ladder(trained, tmp_path):
    model = trained["out"] / "model.json"
    code, out = _export_geometric(model, tmp_path)
    assert code == 0
    with open(out / "bins.tsv", newline="") as fh:
        table = np.array([row[:2] for row in list(csv.reader(fh, delimiter="\t"))[1:]], float)
    bounds = np.append(table[:, 0], table[-1, 1])
    transform = load_model(model).schema.field_named("x").kind.transform
    ends = transform.inverse_many([0.0, 1.0])
    assert len(bounds) == 9 and ends[0] > 0.0
    npt.assert_allclose(bounds[[0, -1]], ends, rtol=1e-12)
    ratios = bounds[1:] / bounds[:-1]
    npt.assert_allclose(ratios, ratios[0], rtol=1e-12)
    assert ratios[0] > 1.0


def test_export_bins_geometric_needs_a_positive_domain(trained, tmp_path, capsys):
    # The quantile transform's first reference point is its inverse at 0.
    def zero_low(doc):
        doc["schema"]["fields"][1]["transform"]["reference_points"][0] = 0.0

    model = _broken_model(tmp_path, trained, "zero_low.json", zero_low)
    code, out = _export_geometric(model, tmp_path)
    assert code == 2
    assert "positive domain" in capsys.readouterr().err
    assert not (out / "bins.tsv").exists()


def test_curves_verb(trained, tmp_path):
    model = trained["out"] / "model.json"
    out = tmp_path / "curve.tsv"
    rc = main(
        [
            "curves",
            str(model),
            "x",
            "--segment",
            "color=red",
            "--grid",
            "0:10:21",
            "--output",
            str(out),
        ]
    )
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0] == ["z", "score"]
    assert len(rows) == 22
    scores = [float(r[1]) for r in rows[1:]]
    assert all(np.isfinite(scores))


def test_curves_empty_grid_prints_no_rows(trained, capsys):
    capsys.readouterr()
    model = str(trained["out"] / "model.json")
    assert main(["curves", model, "x", "--segment", "color=red", "--grid", "0:10:0"]) == 0
    assert capsys.readouterr().out == ""


def test_curves_grid_and_segment_values_may_start_with_a_dash(tmp_path, capsys):
    # A negative grid bound, and a segment whose first field is named "-color".
    data = tmp_path / "data.csv"
    write_dataset(data)
    data.write_text(data.read_text().replace("color", "-color", 1))
    cfg = tmp_path / "config.yaml"
    doc = write_config(cfg, data, tmp_path / "run")
    doc["schema"]["fields"][0]["name"] = "-color"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg)]) == 0
    capsys.readouterr()
    model = str(tmp_path / "run" / "model.json")
    assert main(["curves", model, "x", "--segment", "-color=red", "--grid", "-5:5:11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [float(line.split("\t")[0]) for line in lines] == np.linspace(-5, 5, 11).tolist()


def test_sweep_verb(tmp_path):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "config.yaml"
    write_dataset(data, n=150)
    doc = write_config(cfg, data, tmp_path / "out", epochs=1)
    doc["sweep"] = {"grid": {"step_size": [0.05, 0.2]}}
    with open(cfg, "w") as fh:
        yaml.safe_dump(doc, fh)
    assert main(["sweep", str(cfg)]) == 0
    with open(tmp_path / "out" / "sweep.tsv", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0] == ["step_size", "loss"]
    assert len(rows) == 3


def test_synth_verb_small(tmp_path):
    cfg = tmp_path / "synth.yaml"
    out = tmp_path / "synth"
    with open(cfg, "w") as fh:
        yaml.safe_dump(
            {
                "synth": {
                    "n_train": 400,
                    "n_test": 400,
                    "repeats": 1,
                    "seed": 5,
                    "interval_counts": [4, 6],
                },
                "model": {"dim": 2},
                "train": {"epochs": 1, "batch_size": 128},
                "output": {"directory": str(out)},
            },
            fh,
        )
    assert main(["synth", str(cfg)]) == 0
    with open(out / "results.tsv", newline="") as fh:
        rows = list(csv.reader(fh, delimiter="\t"))
    assert rows[0] == ["strategy", "intervals", "repeat", "test_loss", "train_loss"]
    assert len(rows) == 1 + 2 * 2  # 2 strategies x 2 counts x 1 repeat
    with open(out / "train.csv", newline="") as fh:
        train_rows = list(csv.reader(fh))
    assert train_rows[0] == ["c0", "c1", "c2", "z", "label"]
    assert len(train_rows) == 401
    assert (out / "curves.tsv").is_file()
    assert (out / "manifest.json").is_file()


def test_synth_draws_its_data_once(tmp_path, monkeypatch):
    # `run_comparison` trains on the rows `synth` drew for train.csv and
    # test.csv, and draws none of its own.
    from splinefm import cli, synthetic

    drawn, generate = [], synthetic.generate

    def counted(curves, n, seed):
        drawn.append((n, seed))
        return generate(curves, n, seed)

    monkeypatch.setattr(cli, "generate", counted)
    monkeypatch.setattr(synthetic, "generate", counted)
    cfg = tmp_path / "synth.yaml"
    synth = {"n_train": 300, "n_test": 200, "repeats": 1, "seed": 5, "interval_counts": [4]}
    cfg.write_text(yaml.safe_dump({"synth": synth, "train": {"epochs": 1}}))
    assert main(["synth", str(cfg), "--output", str(tmp_path / "out")]) == 0
    assert drawn == [(300, 5), (200, 6)]


def test_synth_block_dim_is_model_dim(tmp_path):
    # `synth` trains its FFMs with block dim `model.dim`, not the default 4.
    synth = {"n_train": 300, "n_test": 200, "repeats": 1, "seed": 5, "interval_counts": [4]}
    train_cfg = {"epochs": 1, "batch_size": 64}
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(yaml.safe_dump({"synth": synth, "model": {"dim": 2}, "train": train_cfg}))
    assert main(["synth", str(cfg), "--output", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "results.tsv", newline="") as fh:
        written = list(csv.reader(fh, delimiter="\t"))[1:]
    data = (*synthetic.generate(synthetic.DEFAULT_CURVES, 300, 5)[:2],
            *synthetic.generate(synthetic.DEFAULT_CURVES, 200, 6)[:2])

    def expected(block_dim):
        records = synthetic.run_comparison(data, [4], 1, 5, TrainConfig(**train_cfg), block_dim)
        return [[r["strategy"], str(r["intervals"]), str(r["repeat"]), repr(r["test_loss"]),
                 repr(r["train_loss"])] for r in records]

    assert written == expected(2)
    assert written != expected(4)  # the default block dim gives other losses


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"model": {"variant": "fwfm"}}, "model.variant must be 'ffm', got 'fwfm'"),
        ({"synth": {"block_dim": 2}}, "unknown key 'block_dim' in section 'synth'"),
        ({"model": {"dim": -1}}, "model.dim must be >= 0"),
    ],
    ids=["fwfm_variant", "synth_block_dim", "negative_dim"],
)
def test_synth_model_section_errors(tmp_path, capsys, doc, message):
    synth = {"n_train": 100, "n_test": 100, "repeats": 1, "interval_counts": [4]}
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(yaml.safe_dump({"synth": synth, **doc}))
    capsys.readouterr()
    assert main(["synth", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


def test_synth_zero_repeats_fails_before_writing(tmp_path, capsys):
    synth = {"n_train": 100, "n_test": 100, "repeats": 0, "interval_counts": [4]}
    cfg = tmp_path / "synth.yaml"
    cfg.write_text(yaml.safe_dump({"synth": synth}))
    capsys.readouterr()
    assert main(["synth", str(cfg), "--output", str(tmp_path / "out")]) == 2
    assert "synth.repeats must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "train.csv").exists()


# ---------------------------------------------------------------------------
def test_label_only_csv_trains_a_bias_only_model(tmp_path, capsys):
    # A file with no feature column still has its rows.
    data = tmp_path / "labels.csv"
    data.write_text("label\n1\n0\n1\n1\n")
    cfg = tmp_path / "config.yaml"
    doc = write_config(cfg, data, tmp_path / "run", epochs=1)
    doc["schema"]["fields"] = []
    doc["sweep"] = {"grid": {"step_size": [0.05, 0.2]}}
    cfg.write_text(yaml.safe_dump(doc))
    for verb in ("train", "sweep"):
        assert main([verb, str(cfg)]) == 0
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "run" / "model.json"), str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["sample_count"] == 4
    doc["schema"]["fields"] = [{"name": "color", "kind": "categorical"}]
    cfg.write_text(yaml.safe_dump(doc))
    for verb in ("train", "sweep"):
        assert main([verb, str(cfg)]) == 2
        assert "declared field 'color' not found in the sample header" in capsys.readouterr().err


# Exit codes


def test_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    with open(bad, "w") as fh:
        yaml.safe_dump({"trian": {"epochs": 2}}, fh)
    assert main(["train", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


def test_exit_code_missing_config_file(tmp_path):
    assert main(["train", str(tmp_path / "nope.yaml")]) == 2


def test_exit_code_unknown_train_key(tmp_path):
    cfg = tmp_path / "c.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump({"train": {"learning_rate": 0.1}}, fh)
    assert main(["train", str(cfg)]) == 2


def test_exit_code_data_error(tmp_path, capsys):
    cfg = tmp_path / "c.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(
            {
                "data": {"path": str(tmp_path / "missing.csv")},
                "schema": {"fields": [{"name": "a", "kind": "categorical"}]},
            },
            fh,
        )
    assert main(["train", str(cfg)]) == 3
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "decl",
    [
        {"kind": "binned", "bins": 4, "binning": "uniform"},
        {"kind": "binned", "bins": 4, "binning": "quantile"},
        {"kind": "continuous", "transform": "quantile"},
        {"kind": "continuous", "transform": "minmax"},
    ],
    ids=["uniform_bins", "quantile_bins", "quantile_transform", "minmax_transform"],
)
def test_constant_numerical_column_is_data_error(tmp_path, capsys, decl):
    data = tmp_path / "d.csv"
    data.write_text("x,label\n5,0\n5,1\n5,0\n")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": {"path": str(data)},
        "schema": {"fields": [{"name": "x", **decl}]},
    }))
    assert main(["train", str(cfg), "--output", str(tmp_path / "out")]) == 3
    assert "data error: field 'x' is constant" in capsys.readouterr().err


def test_exit_code_bad_label_column(tmp_path):
    data = tmp_path / "d.csv"
    with open(data, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["a", "y"])
        w.writerow(["u", "1"])
    cfg = tmp_path / "c.yaml"
    with open(cfg, "w") as fh:
        yaml.safe_dump(
            {
                "data": {"path": str(data), "label": "label"},
                "schema": {"fields": [{"name": "a", "kind": "categorical"}]},
            },
            fh,
        )
    assert main(["train", str(cfg)]) == 3


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
def test_eval_non_finite_continuous_value_is_data_error(trained, tmp_path, capsys, value):
    data = tmp_path / "inf.csv"
    write_rows(data, ["color", "x", "label"], [["red", "3.0", 1], ["red", value, 1]])
    assert main(["eval", str(trained["out"] / "model.json"), str(data)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'x'" in err


def test_train_non_finite_binned_value_is_data_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset(data, n=50)
    with open(data, "a", newline="") as fh:
        csv.writer(fh).writerow(["red", "inf", 1])
    cfg = tmp_path / "config.yaml"
    doc = write_config(cfg, data, tmp_path / "out", epochs=1)
    doc["schema"]["fields"][1] = {"name": "x", "kind": "binned", "bins": 4}
    with open(cfg, "w") as fh:
        yaml.safe_dump(doc, fh)
    assert main(["train", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'x'" in err


def test_eval_missing_schema_column_is_data_error(trained, tmp_path, capsys):
    data = tmp_path / "no_x.csv"
    write_rows(data, ["color", "label"], [["red", 1], ["blue", 0]])
    assert main(["eval", str(trained["out"] / "model.json"), str(data)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "'x'" in err


def test_curves_segment_missing_field_is_config_error(trained, capsys):
    model = trained["out"] / "model.json"
    assert main(["curves", str(model), "x", "--grid", "0:10:3"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "color" in err


def test_curves_on_categorical_field_is_config_error(trained, capsys):
    model = trained["out"] / "model.json"
    rc = main(["curves", str(model), "color", "--segment", "x=3", "--grid", "0:10:3"])
    assert rc == 2
    assert "not continuous" in capsys.readouterr().err


def test_curves_on_binned_field_is_config_error(trained, tmp_path, capsys):
    export_cfg = tmp_path / "export.yaml"
    with open(export_cfg, "w") as fh:
        yaml.safe_dump({"export": {"field": "x", "bins": 8}}, fh)
    out = tmp_path / "exp"
    assert main(["export-bins", str(trained["out"] / "model.json"), str(export_cfg),
                 "--output", str(out)]) == 0
    rc = main(["curves", str(out / "model_binned.json"), "x", "--segment", "color=red",
               "--grid", "0:10:3"])
    assert rc == 2
    assert "not continuous" in capsys.readouterr().err


def _broken_model(tmp_path, trained, name, edit):
    doc = json.loads((trained["out"] / "model.json").read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _eval_data_error(trained, model_path, capsys):
    assert main(["eval", str(model_path), str(trained["data"])]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(model_path) in err
    return err


def test_eval_missing_model_file_is_data_error(trained, tmp_path, capsys):
    err = _eval_data_error(trained, tmp_path / "absent.json", capsys)
    assert "cannot read" in err


def test_eval_unparsable_model_file_is_data_error(trained, tmp_path, capsys):
    path = tmp_path / "oops.json"
    path.write_text("{oops")
    err = _eval_data_error(trained, path, capsys)
    assert "not valid JSON" in err


def test_eval_deeply_nested_model_file_is_data_error(trained, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    err = _eval_data_error(trained, path, capsys)
    assert "nests JSON too deeply" in err


def test_eval_fmfm_model_of_unequal_dims_is_data_error(trained, tmp_path, capsys):
    # Every array agrees with dims [4, 2]: a file the format held before
    # every field had one embedding width.
    def unequal(doc):
        matrices = {"0,1": [[0.5] * 2] * 4}
        doc["interaction"] = {"variant": "fmfm", "dims": [4, 2], "matrices": matrices}
        doc["V"][1] = [row[:2] for row in doc["V"][1]]

    path = _broken_model(tmp_path, trained, "unequal.json", unequal)
    err = _eval_data_error(trained, path, capsys)
    assert "dims [4, 2] differ" in err


def test_eval_short_embedding_table_is_data_error(trained, tmp_path, capsys):
    def drop_two_rows(doc):
        doc["V"][1] = doc["V"][1][:-2]

    path = _broken_model(tmp_path, trained, "short.json", drop_two_rows)
    err = _eval_data_error(trained, path, capsys)
    assert "'x'" in err and "shape" in err


def test_eval_nan_linear_weight_is_data_error(trained, tmp_path, capsys):
    def poison(doc):
        doc["w"][0] = float("nan")

    path = _broken_model(tmp_path, trained, "nan.json", poison)
    assert "NaN" in path.read_text()
    err = _eval_data_error(trained, path, capsys)
    assert "non-finite" in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d.__setitem__("format_version", 99), "format version 99"),
        # A format 1 file: its FFM document also held num_fields.
        (lambda d: d.update(format_version=1, interaction={**d["interaction"], "num_fields": 2}),
         "format version 1 is not supported"),
        (lambda d: d["interaction"].__setitem__("variant", "xfm"), "variant 'xfm'"),
    ],
)
def test_eval_unsupported_model_document_is_data_error(trained, tmp_path, capsys, edit, message):
    path = _broken_model(tmp_path, trained, "unsupported.json", edit)
    err = _eval_data_error(trained, path, capsys)
    assert message in err


def _write_loss_config(tmp_path, label_kind, loss, sweep=False):
    """A config of `label_kind` that sets `train.loss` (or, with `sweep`,
    sweeps it), or sets no loss when `loss` is None."""
    data = tmp_path / "data.csv"
    cfg = tmp_path / "config.yaml"
    write_dataset(data, n=100)
    doc = write_config(cfg, data, tmp_path / "out", epochs=1)
    doc["schema"]["label_kind"] = label_kind
    if sweep:
        doc["sweep"] = {"grid": {"loss": ["logloss", "squared"]}}
    elif loss is not None:
        doc["train"]["loss"] = loss
    with open(cfg, "w") as fh:
        yaml.safe_dump(doc, fh)
    return cfg


# The label kind decides the loss; `train.loss` is no setting, so a config
# that names one, matching the label kind or not, exits 2 as an unknown key.
@pytest.mark.parametrize(
    "label_kind, loss", [("binary", "squared"), ("real", "logloss")]
)
def test_train_loss_label_kind_mismatch_is_config_error(tmp_path, capsys, label_kind, loss):
    cfg = _write_loss_config(tmp_path, label_kind, loss)
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown key 'loss' in section 'train'" in err
    assert not (tmp_path / "out" / "model.json").exists()


@pytest.mark.parametrize("label_kind, loss", [("binary", "logloss"), ("real", "squared")])
def test_train_loss_key_is_unknown_even_when_it_matches(tmp_path, capsys, label_kind, loss):
    cfg = _write_loss_config(tmp_path, label_kind, loss)
    assert main(["train", str(cfg)]) == 2
    assert "unknown key 'loss' in section 'train'" in capsys.readouterr().err


def test_train_real_label_kind_with_squared_loss(tmp_path, capsys):
    cfg = _write_loss_config(tmp_path, "real", None)
    assert main(["train", str(cfg)]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["cross_entropy"] is None and math.isfinite(metrics["rmse"])
    capsys.readouterr()
    assert main(["eval", str(tmp_path / "out" / "model.json"), str(tmp_path / "data.csv")]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["cross_entropy"] is None and math.isfinite(printed["rmse"])


@pytest.mark.parametrize("label_kind", ["binary", "real"])
def test_sweep_loss_label_kind_mismatch_is_config_error(tmp_path, capsys, label_kind):
    # The grid holds both losses, one of which disagrees with either kind;
    # no grid may name `loss`, as it is no train parameter.
    cfg = _write_loss_config(tmp_path, label_kind, None, sweep=True)
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: sweep.grid key 'loss' is not a train parameter" in err
    assert not (tmp_path / "out" / "sweep.tsv").exists()


def _label_data(tmp_path, label):
    """50 rows of `write_dataset` with the label of row 2 replaced."""
    path = tmp_path / "labels.csv"
    write_dataset(path, n=50)
    rows = path.read_text().splitlines()
    rows[3] = rows[3].rsplit(",", 1)[0] + "," + label
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("label", ["2", "nan", "inf", "-1", "0.5"])
def test_eval_binary_label_not_0_or_1_exits_3(trained, tmp_path, capsys, label):
    # Logloss cannot score such a label, and a NaN metric is not JSON.
    data = _label_data(tmp_path, label)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["eval", str(trained["out"] / "model.json"), str(data)]) == 3
    captured = capsys.readouterr()
    assert f"data error: row 2: label {float(label)} is not 0 or 1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("verb", ["train", "eval"])
@pytest.mark.parametrize("label", ["nan", "inf", "-inf"])
def test_real_label_not_finite_exits_3(tmp_path, capsys, verb, label):
    # Squared error cannot score such a label: a data error, not a numerical one.
    cfg = _write_loss_config(tmp_path, "real", None)
    if verb == "eval":
        assert main(["train", str(cfg)]) == 0
        argv = ["eval", str(tmp_path / "out" / "model.json"), str(_label_data(tmp_path, label))]
    else:
        doc = yaml.safe_load(cfg.read_text())
        doc["data"]["path"] = str(_label_data(tmp_path, label))
        cfg.write_text(yaml.safe_dump(doc))
        argv = ["train", str(cfg), "--output", str(tmp_path / "bad")]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"data error: row 2: label {float(label)} is not finite" in captured.err
    assert captured.out == ""


def _continuous_x(doc):
    return doc["schema"]["fields"][1]


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d["schema"].__setitem__("label_kind", "ordinal"),
        lambda d: _continuous_x(d).__setitem__(
            "transform", {"kind": "affine", "low": 1.0, "high": 1.0}
        ),
        lambda d: _continuous_x(d)["basis"].__setitem__("degree", -1),
        lambda d: _continuous_x(d)["transform"].__setitem__("kind", "log"),
        lambda d: d["schema"]["fields"][0].__setitem__("kind", "ordinal"),
        lambda d: _continuous_x(d).__setitem__("name", "color"),
        lambda d: d["schema"]["fields"].__setitem__(
            1, {"name": "x", "kind": "binned", "boundaries": [0.0, 1.0, 1.0]}
        ),
        lambda d: _continuous_x(d)["transform"]["levels"].pop(),
        lambda d: _continuous_x(d)["transform"]["reference_points"].__setitem__(3, float("nan")),
        lambda d: _continuous_x(d)["transform"]["levels"].reverse(),
        lambda d: d["schema"]["fields"][0]["vocabulary"].__setitem__("red", 5),
        lambda d: _continuous_x(d).__setitem__("transform", None),
        lambda d: d["schema"]["fields"][0].__setitem__("name", None),
    ],
    ids=["label_kind", "affine_range", "degree", "transform_kind", "field_kind",
         "duplicate_name", "boundaries", "quantile_levels", "quantile_nan_point",
         "quantile_reversed_levels", "vocabulary_index",
         "null_transform", "null_name"],
)
def test_eval_invalid_schema_section_is_data_error(trained, tmp_path, capsys, edit):
    path = _broken_model(tmp_path, trained, "bad_schema.json", edit)
    _eval_data_error(trained, path, capsys)


@pytest.mark.parametrize(
    "section, entries, key",
    [
        ("export", {"bins": "abc"}, "export.bins"),
        ("export", {"mode": "explicit", "boundaries": ["a", "b"]}, "boundaries"),
        ("export", {"mode": "explicit", "boundaries": [0, 5, 5]}, "boundaries"),
        ("export", {"mode": "explicit", "boundaries": [3]}, "boundaries"),
        ("model", {"dim": "abc"}, "model.dim"),
        ("train", {"epochs": "x"}, "train.epochs"),
        ("train", {"batch_size": 2.5}, "train.batch_size"),
        ("field", {"num_functions": "two"}, "num_functions"),
        ("export", {"bins": 2.5}, "export.bins"),
        ("model", {"dim": True}, "model.dim"),
        ("field", {"num_functions": "3"}, "num_functions"),
    ],
    ids=["bins", "boundaries", "repeated_boundary", "one_boundary", "dim", "epochs",
         "batch_size", "num_functions", "fractional_bins", "bool_dim", "string_num_functions"],
)
def test_config_number_of_wrong_type_is_config_error(
    trained, tmp_path, capsys, section, entries, key
):
    doc = yaml.safe_load(trained["config"].read_text())
    if section == "export":
        doc = {"export": {"field": "x", **entries}}
        verb = ["export-bins", str(trained["out"] / "model.json")]
    else:
        (_continuous_x(doc) if section == "field" else doc[section]).update(entries)
        verb = ["train"]
    cfg = tmp_path / "wrong_type.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    assert main([*verb, str(cfg), "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_config_exponent_without_decimal_point_is_a_number(tmp_path):
    # YAML 1.1 reads `5e-2`, `1e-8` and `0.5e2` as strings; the config loader
    # reads them as floats, and an integer setting takes `0.5e2` as 50.
    data = tmp_path / "data.csv"
    write_dataset(data, n=150)
    models = []
    for step, eps, resolution in (("5e-2", "1e-8", "0.5e2"), ("0.05", "1.0e-8", "50")):
        doc = write_config(tmp_path / "unused.yaml", data, tmp_path / "out")
        doc["train"].update(step_size="STEP", adagrad_eps="EPS")
        _continuous_x(doc)["resolution"] = "RESOLUTION"
        text = yaml.safe_dump(doc).replace("STEP", step).replace("EPS", eps)
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text.replace("RESOLUTION", resolution))
        assert main(["train", str(cfg)]) == 0
        models.append((tmp_path / "out" / "model.json").read_bytes())
    assert models[0] == models[1]


def test_synth_squared_loss_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "synth.yaml"
    out = tmp_path / "synth"
    cfg.write_text(
        yaml.safe_dump(
            {
                "synth": {"n_train": 400, "n_test": 400, "repeats": 1, "interval_counts": [5]},
                "train": {"loss": "squared", "epochs": 1},
                "output": {"directory": str(out)},
            }
        )
    )
    assert main(["synth", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: unknown key 'loss' in section 'train'" in err
    assert not (out / "results.tsv").exists()


def test_sweep_fwfm_losses_do_not_depend_on_grid_order(tmp_path):
    data = tmp_path / "data.csv"
    write_dataset(data, n=150)
    losses = []
    for order in ([0.05, 0.2], [0.2, 0.05]):
        cfg = tmp_path / "config.yaml"
        doc = write_config(cfg, data, tmp_path / "out", epochs=1)
        doc["model"]["variant"] = "fwfm"
        doc["sweep"] = {"grid": {"step_size": order}}
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["sweep", str(cfg)]) == 0
        with open(tmp_path / "out" / "sweep.tsv", newline="") as fh:
            losses.append(dict(list(csv.reader(fh, delimiter="\t"))[1:]))
    assert losses[0] == losses[1]


def test_eval_config_supplies_only_how_to_read_data(trained, tmp_path, capsys):
    # The config's data section names the training file; eval must score DATA
    # and take only the delimiter and label column from the config.
    doc = yaml.safe_load(trained["config"].read_text())
    doc["data"].update(delimiter=";", label="clicked")
    cfg = tmp_path / "eval.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    test = tmp_path / "test.csv"
    test.write_text("color;x;clicked\nred;1.5;1\nblue;7.0;0\n")
    capsys.readouterr()
    assert main(["eval", str(trained["out"] / "model.json"), str(test), "--config", str(cfg)]) == 0
    with_config = json.loads(capsys.readouterr().out)
    assert with_config["sample_count"] == 2
    plain = tmp_path / "plain.csv"
    plain.write_text("color,x,label\nred,1.5,1\nblue,7.0,0\n")
    assert main(["eval", str(trained["out"] / "model.json"), str(plain)]) == 0
    assert json.loads(capsys.readouterr().out) == with_config


@pytest.mark.parametrize("what", ["config", "data"])
@pytest.mark.parametrize("fault", ["directory", "not_utf8"])
def test_unreadable_input_file_exits_with_its_code(trained, tmp_path, capsys, what, fault):
    bad = tmp_path / "bad"
    if fault == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"color,x,label\n\xff\xfe,1.0,1\n")
    if what == "config":
        argv, code = ["train", str(bad)], 2
    else:
        argv, code = ["eval", str(trained["out"] / "model.json"), str(bad)], 3
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert f"cannot read {what} file {bad}" in err


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_deeply_nested_config_is_config_error(trained, tmp_path, capsys, verb):
    deep = tmp_path / "deep.yaml"
    deep.write_text("train: {seed: " + "[" * 5_000 + "]" * 5_000 + "}\n")
    model, data = trained["out"] / "model.json", trained["data"]
    argv = ["train", deep] if verb == "train" else ["eval", model, data, "--config", deep]
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 2
    assert f"cannot parse config {deep}: it nests too deeply" in capsys.readouterr().err


def _synth_curves(edit):
    """A small synth section with the default curves as `edit` leaves them."""
    curves = copy.deepcopy(synthetic.DEFAULT_CURVES)
    edit(curves)
    return {"n_train": 100, "n_test": 100, "interval_counts": [4], "curves": curves}


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: d["data"].__setitem__("delimiter", ";;"), "data.delimiter"),
        (lambda d: d.__setitem__("sweep", {"grid": {"step_size": 0.1}}), "sweep.grid.step_size"),
        # An empty list would sweep nothing and write a header-only sweep.tsv.
        (lambda d: d.__setitem__("sweep", {"grid": {"seed": []}}), "sweep.grid.seed"),
        (lambda d: d["output"].__setitem__("directory", "FILE"), "output.directory"),
        (lambda d: d["train"].__setitem__("seed", -1), "train.seed"),
        (lambda d: d["model"].__setitem__("dim", -2), "model.dim"),
        (lambda d: d["train"].__setitem__("l2", float("nan")), "l2"),
        (lambda d: d["train"].__setitem__("adagrad_eps", float("inf")), "train.adagrad_eps"),
        (lambda d: _continuous_x(d).update(kind="binned", bins=-2), "field 'x': bins"),
        (lambda d: _continuous_x(d).update(kind="binned", bins=0), "field 'x': bins"),
        (lambda d: d.__setitem__("synth", {"seed": -1, "interval_counts": [4]}), "synth.seed"),
        (lambda d: _continuous_x(d).__setitem__("name", ["x"]), "'name'"),
        # An int path would open that file descriptor.
        (lambda d: d["data"].__setitem__("path", 987), "data.path"),
        (lambda d: d["schema"]["fields"][0].__setitem__("unknown_slot", "no"), "unknown_slot"),
        (lambda d: d["data"].__setitem__("label", ["label"]), "data.label"),
        (lambda d: d["output"].__setitem__("directory", 5), "output.directory"),
        (lambda d: d.__setitem__("synth", {"interval_counts": 5}), "synth.interval_counts"),
        (lambda d: d.__setitem__("synth", {"curves": 5}), "synth.curves must be a list"),
        (lambda d: d.__setitem__("synth", {"curves": list(range(1, 9))}), "must be a mapping"),
        (lambda d: d.__setitem__("synth", _synth_curves(lambda c: c[2].pop("base"))),
         "KeyError 'base'"),
        (lambda d: d.__setitem__("synth", _synth_curves(lambda c: c[2].update(base="a"))),
         "'base': 'a'"),
        # NaN compares false with every bound.
        (lambda d: d.__setitem__("synth", _synth_curves(lambda c: c[0].update(base=math.nan))),
         "leaves (0, 1)"),
    ],
    ids=["delimiter", "sweep_grid", "sweep_grid_empty", "output_file", "train_seed", "model_dim",
         "nan_l2", "inf_adagrad_eps", "negative_bins", "zero_bins", "synth_seed", "field_name", "int_path", "unknown_slot", "list_label",
         "int_directory", "synth_counts", "synth_curves", "synth_curve_kind", "synth_curve_key",
         "synth_curve_text", "synth_curve_nan"],
)
def test_config_value_that_fails_later_is_config_error(trained, tmp_path, capsys, edit, key):
    doc = yaml.safe_load(trained["config"].read_text())
    edit(doc)
    if doc["output"]["directory"] == "FILE":
        (tmp_path / "file").write_text("")
        doc["output"]["directory"] = str(tmp_path / "file")
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    verb = "sweep" if "sweep" in doc else "synth" if "synth" in doc else "train"
    capsys.readouterr()
    assert main([verb, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def _reject(*args, **kwargs):
    raise AssertionError("an out-of-range setting reached the code it sizes")


@pytest.mark.parametrize(
    "verb, edit, key, sized",
    [
        ("train", lambda d: d["train"].__setitem__("epochs", 1e300), "train.epochs", "cli.train"),
        ("train", lambda d: d["model"].__setitem__("dim", 1e300), "model.dim",
         "cli.make_interaction"),
        ("train", lambda d: _continuous_x(d).__setitem__("num_functions", 1e300),
         "num_functions", "schema.build_uniform"),
        ("train", lambda d: _continuous_x(d).__setitem__("resolution", 1e300), "resolution",
         "schema.fit_quantile"),
        ("train", lambda d: _continuous_x(d).update(degree=9999, num_functions=10_000), "degree",
         "schema.build_uniform"),
        ("train", lambda d: _continuous_x(d).update(kind="binned", bins=1e300), "bins",
         "schema.BinnedNumerical"),
        ("export-bins", lambda d: d.__setitem__("export", {"field": "x", "bins": 1e300}),
         "export.bins", "cli.make_boundaries"),
        ("synth", lambda d: d["synth"].__setitem__("n_train", 1e300), "synth.n_train",
         "cli.generate"),
        ("synth", lambda d: d["synth"].__setitem__("n_test", 1e300), "synth.n_test",
         "cli.generate"),
        ("synth", lambda d: d["synth"].__setitem__("repeats", 1e300), "synth.repeats",
         "cli.run_comparison"),
        ("synth", lambda d: d["synth"].__setitem__("interval_counts", [5, 1e300]),
         "synth.interval_counts", "cli.run_comparison"),
        # The FFM block dim of `synth`.
        ("synth", lambda d: d["model"].__setitem__("dim", 1e300), "model.dim",
         "cli.run_comparison"),
    ],
    ids=["epochs", "dim", "num_functions", "resolution", "degree", "field_bins", "export_bins",
         "n_train", "n_test", "repeats", "interval_counts", "block_dim"],
)
def test_integer_setting_above_its_limit_is_config_error(
    trained, tmp_path, capsys, monkeypatch, verb, edit, key, sized
):
    # What the setting sizes fails the test instead of running.
    from splinefm import cli, schema

    module, name = sized.split(".")
    monkeypatch.setattr({"cli": cli, "schema": schema}[module], name, _reject)
    doc = yaml.safe_load(trained["config"].read_text())
    doc["synth"] = {"n_train": 100, "n_test": 100, "repeats": 1, "interval_counts": [5]}
    edit(doc)
    cfg = tmp_path / "limit.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    argv = [verb, str(cfg)]
    if verb == "export-bins":
        argv.insert(1, str(trained["out"] / "model.json"))
    capsys.readouterr()
    assert main(argv + ["--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err and "must be <=" in err


def test_model_basis_degree_above_its_limit_is_data_error(trained, tmp_path, capsys, monkeypatch):
    from splinefm import splines

    monkeypatch.setattr(splines, "build_uniform", _reject)
    basis = {"degree": 9999, "num_functions": 10_000}
    path = _broken_model(tmp_path, trained, "deep.json", lambda d: _continuous_x(d)["basis"]
                         .update(basis))
    err = _eval_data_error(trained, path, capsys)
    assert "basis degree must be <= 20, got 9999" in err


@pytest.mark.parametrize("verb", ["train", "export-bins", "curves"])
def test_unwritable_output_file_is_config_error(trained, tmp_path, capsys, verb):
    # A directory where `train` or `export-bins` writes its file, or a file
    # where `curves --output` needs its directory; the message names it.
    out, model = tmp_path / "out", str(trained["out"] / "model.json")
    export = tmp_path / "export.yaml"
    export.write_text(yaml.safe_dump({"export": {"field": "x", "bins": 4}}))
    blocked, output, argv = {
        "train": (out / "model.json", out, ["train", str(trained["config"])]),
        "export-bins": (out / "bins.tsv", out, ["export-bins", model, str(export)]),
        "curves": (out, out / "curve.tsv",
                   ["curves", model, "x", "--segment", "color=red", "--grid", "0:1:3"]),
    }[verb]
    if verb == "curves":
        blocked.write_text("")
    else:
        blocked.mkdir(parents=True)
    capsys.readouterr()
    assert main(argv + ["--output", str(output)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(blocked) in err


@pytest.mark.parametrize("grid", ["-1e308:1e308:3", "0:inf:3", "nan:1:3", "-inf:inf:0"])
def test_curves_grid_not_finite_is_config_error(trained, capsys, grid):
    # high - low overflows in the first spec. A warning would raise here.
    model = str(trained["out"] / "model.json")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["curves", model, "x", "--segment", "color=red", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == (
        f"config error: grid spec {grid!r}: low, high and high - low must be finite"
    )


def test_curves_grid_count_above_its_limit_is_config_error(trained, capsys, monkeypatch):
    from splinefm import cli

    monkeypatch.setattr(cli, "segmentized_curve", _reject)
    capsys.readouterr()
    model = str(trained["out"] / "model.json")
    grid = "0:1:1000000000000"
    assert main(["curves", model, "x", "--segment", "color=red", "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--grid count must be <=" in err


def _train_bytes(tmp_path, doc, name):
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["train", str(cfg), "--output", str(tmp_path / name)]) == 0
    return [(tmp_path / name / f).read_bytes() for f in ("model.json", "metrics.json")]


def test_train_integer_settings_take_integral_floats(trained, tmp_path):
    doc = yaml.safe_load(trained["config"].read_text())
    as_ints = _train_bytes(tmp_path, doc, "ints")
    doc["train"].update(epochs=2.0, batch_size=64.0, seed=3.0)
    assert _train_bytes(tmp_path, doc, "floats") == as_ints


def test_train_manifest_holds_a_date_the_config_does_not_use(trained, tmp_path):
    # YAML reads 2001-01-01 as a date, which JSON has no type for.
    cfg = tmp_path / "dated.yaml"
    cfg.write_text(trained["config"].read_text() + "export: {mode: 2001-01-01}\n")
    assert main(["train", str(cfg), "--output", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["export"] == {"mode": "2001-01-01"}


# ---------------------------------------------------------------------------
# Fuzzing the input boundary: malformed configs, data and model files must
# end in a documented exit code, never in an exception.

# Numbers stay small: an integer setting's upper bound sits far above what
# a test can run, so a value such as `epochs: 50000` would still take long.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.floats(-20, 20) | st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(["", "x", "color", "nan", "1e-8", "quantile", "explicit", "squared"]),
    st.text(max_size=4),
    st.dates(),
    st.lists(st.integers(-2, 3), max_size=3),
    st.dictionaries(st.sampled_from(["name", "kind", "a"]), st.integers(0, 3), max_size=2),
)
_CELLS = st.one_of(
    st.sampled_from(["", "nan", "inf", "abc", "1e400", "0", "1", "2", "0.5", "red"]),
    st.text(max_size=3),
)
_EXIT_CODES = {0, 2, 3, 4}
_FUZZ = settings(max_examples=40, deadline=None)


def _paths(doc, prefix=()):
    """The key path of every value nested in a document of dicts and lists."""
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """`doc` with one to three values replaced, deleted or added."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JUNK)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=4))] = draw(_JUNK)
        else:
            parent.append(draw(_JUNK))
    return doc


@st.composite
def _csv_bytes(draw):
    """The base dataset with a few cells, row lengths or bytes broken."""
    rows = [["color", "x", "label"]] + [
        [["red", "green", "blue"][i % 3], str(i * 0.37), str(i % 2)] for i in range(30)
    ]
    for _ in range(draw(st.integers(0, 4))):
        row = draw(st.sampled_from(rows))
        j = draw(st.integers(0, len(row)))
        if j == len(row):
            row.append(draw(_CELLS))
        elif draw(st.booleans()):
            del row[j]
        else:
            row[j] = draw(_CELLS)
    text = "\n".join(",".join(r) for r in rows).encode()
    return draw(st.one_of(st.just(text), st.binary(max_size=40), st.just(text[:-7] + b"\xff")))


def _config_text(doc):
    return _mutated(doc).map(yaml.safe_dump) | st.text(max_size=20)


def _model_text(doc):
    """The model document, mutated, cut short or not an object."""
    text = _mutated(doc).map(lambda d: json.dumps(d, default=str))
    return text | text.map(lambda t: t[: len(t) // 2]) | st.just("[]")


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A config and data file that train, and the model document they give."""
    d = tmp_path_factory.mktemp("fuzz")
    write_dataset(d / "data.csv", n=40)
    doc = write_config(d / "config.yaml", d / "data.csv", d / "run", epochs=1)
    assert main(["train", str(d / "config.yaml")]) == 0
    return {"config": doc, "model": json.loads((d / "run" / "model.json").read_text())}


@contextlib.contextmanager
def _in_directory(files: dict):
    """A fresh working directory holding `files` (name -> text or bytes), so
    that every relative path a run reads or writes stays inside it."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            Path(tmp, name).write_bytes(content if isinstance(content, bytes) else content.encode())
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


def _exit_code(argv) -> int:
    """The exit code of the `splinefm` process `argv` describes."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


@_FUZZ
@given(data=st.data())
def test_fuzz_train(fuzz_base, data):
    doc = copy.deepcopy(fuzz_base["config"])
    doc["data"]["path"] = "data.csv"
    files = {"config.yaml": data.draw(_config_text(doc)), "data.csv": data.draw(_csv_bytes())}
    with _in_directory(files):
        assert _exit_code(["train", "config.yaml", "--output", "out"]) in _EXIT_CODES


def _not_json(constant):
    raise AssertionError(f"eval printed {constant}, which is not JSON")


@_FUZZ
@given(data=st.data())
def test_fuzz_eval(fuzz_base, data):
    files = {"model.json": data.draw(_model_text(fuzz_base["model"])),
             "data.csv": data.draw(_csv_bytes())}
    argv = ["eval", "model.json", "data.csv"]
    if data.draw(st.booleans()):
        files["config.yaml"] = data.draw(_config_text(fuzz_base["config"]))
        argv += ["--config", "config.yaml"]
    printed = io.StringIO()
    with _in_directory(files), contextlib.redirect_stdout(printed):
        code = _exit_code(argv)
    assert code in _EXIT_CODES
    if code == 0:  # strict JSON: no NaN or Infinity
        json.loads(printed.getvalue(), parse_constant=_not_json)


@_FUZZ
@given(data=st.data())
def test_fuzz_export_bins(fuzz_base, data):
    export = data.draw(st.sampled_from([
        {"export": {"field": "x", "bins": 8, "mode": "inverse_cdf"}},
        {"export": {"field": "x", "mode": "explicit", "boundaries": [0.0, 2.5, 5.0, 10.0]}},
    ]))
    model = fuzz_base["model"]
    files = {"model.json": data.draw(st.just(json.dumps(model)) | _model_text(model)),
             "export.yaml": data.draw(_config_text(export))}
    argv = ["export-bins", "model.json", "export.yaml", "--output", "out"]
    with _in_directory(files):
        assert _exit_code(argv) in _EXIT_CODES


@_FUZZ
@given(data=st.data())
def test_fuzz_curves(fuzz_base, data):
    model = fuzz_base["model"]
    files = {"model.json": data.draw(st.just(json.dumps(model)) | _model_text(model))}
    field = data.draw(st.sampled_from(["x", "color", "nope", ""]))
    segment = data.draw(st.sampled_from(["color=red", "", "color", "x=1,color=", "color=red,a=1"])
                        | st.text(max_size=6))
    grid = data.draw(st.sampled_from(["0:10:5", "0:10:0", "1:0:3", "a:b:c", "0:10:-1", "nan:inf:3",
                                      "0:10", "-1e308:1e308:3"]) | st.text(max_size=6))
    argv = ["curves", "model.json", field, "--segment", segment, "--grid", grid]
    with _in_directory(files):
        assert _exit_code(argv) in _EXIT_CODES


@_FUZZ
@given(data=st.data())
def test_fuzz_sweep(fuzz_base, data):
    doc = copy.deepcopy(fuzz_base["config"])
    doc["data"]["path"] = "data.csv"
    doc["sweep"] = {"grid": {"step_size": [0.05, 0.2], "l2": [0.0]}}
    files = {"config.yaml": data.draw(_config_text(doc)), "data.csv": data.draw(_csv_bytes())}
    with _in_directory(files):
        assert _exit_code(["sweep", "config.yaml", "--output", "out"]) in _EXIT_CODES


# The synth sizes a test can run; a mutation that deletes one of these keys
# would otherwise fall back to the default of 25,000 or 75,000 rows.
_SYNTH_CAPS = {"n_train": 200, "n_test": 200, "repeats": 1}


def _capped_synth(doc):
    """`doc` with `_SYNTH_CAPS` put back into its synth section, whenever the
    document and that section are still mappings."""
    if isinstance(doc, dict) and isinstance(doc.setdefault("synth", {}), dict):
        for key, cap in _SYNTH_CAPS.items():
            value = doc["synth"].get(key, cap)
            doc["synth"][key] = cap if isinstance(value, (int, float)) and value > cap else value
    return doc


@_FUZZ
@given(data=st.data())
def test_fuzz_synth(data):
    doc = {"synth": {**_SYNTH_CAPS, "seed": 1, "interval_counts": [5],
                     "curves": copy.deepcopy(synthetic.DEFAULT_CURVES)},
           "model": {"dim": 2}, "train": {"epochs": 1, "batch_size": 64}}
    text = yaml.safe_dump(_capped_synth(data.draw(_mutated(doc))))
    with _in_directory({"synth.yaml": text}):
        assert _exit_code(["synth", "synth.yaml", "--output", "out"]) in _EXIT_CODES


# ---------------------------------------------------------------------------
# The CSV reader against the `csv.DictReader` oracle


def _read_outcomes(path, delimiter=",", label="label"):
    """What `_read_table` and `oracles.read_table` give for one file: the
    columns as lists and the label bits, or the error message."""
    outcomes = []
    for read in (
        lambda: _read_table({"path": str(path), "delimiter": delimiter, "label": label}),
        lambda: oracles.read_table(str(path), delimiter, label),
    ):
        try:
            columns, labels = read()
        except DataError as exc:
            outcomes.append(str(exc))
        else:
            assert labels.dtype == np.float64
            outcomes.append(({k: list(v) for k, v in columns.items()}, labels.tobytes()))
    return outcomes


@_FUZZ
@given(content=_csv_bytes())
def test_read_table_equals_dictreader_oracle_on_fuzzed_files(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("read") / "data.csv"
    path.write_bytes(content)
    got, expected = _read_outcomes(path)
    assert got == expected


# More rows than the reader's chunk of 4,096: blank lines at the first
# chunk's edge, and a short and a long row in later chunks.
_MANY_ROWS = ["label,x,c"] + [f"{i % 2},{i},a" for i in range(9_000)]
_MANY_ROWS[4096:4098] = ["", ""]
_MANY_ROWS[5001], _MANY_ROWS[8201] = "0,5000", "1,8200,b,extra"

_READ_CASES = {
    "blank_lines": ("x,label\n\n1,0\n\n\n2,1\n\n", {}, ({"x": ["1", "2"]}, [0.0, 1.0])),
    "short_row": ("c,x,label\na,1,0\nb\n", {}, "row 1: cannot parse label None"),
    "short_row_label_first": ("label,c,x\n0,a,1\n1,b\n", {},
                              ({"c": ["a", "b"], "x": ["1", None]}, [0.0, 1.0])),
    "long_row": ("x,label\n1,0,extra,more\n2,1\n", {}, ({"x": ["1", "2"]}, [0.0, 1.0])),
    "duplicate_header": ("x,x,label,label\n1,2,0,1\n3,4,1,0\n", {},
                         "data file {path} names column 'x' more than once"),
    "duplicate_later_name": ("a,b,b,a,label\n1,2,3,4,0\n", {},
                             "data file {path} names column 'a' more than once"),
    "duplicate_empty_name": (",x,,label\n1,2,3,0\n", {},
                             "data file {path} names column '' more than once"),
    "semicolon_and_label": ("x;clicked;label\n1,5;1;a\n2;0;b\n",
                            {"delimiter": ";", "label": "clicked"},
                            ({"x": ["1,5", "2"], "label": ["a", "b"]}, [1.0, 0.0])),
    "bad_label": ("x,label\n1,0\n\n2,abc\n3,zz\n", {}, "row 1: cannot parse label 'abc'"),
    "header_only": ("x,label\n", {}, "data file {path} has no rows"),
    "empty_file": ("", {}, "data file {path} has no rows"),
    "no_label_column": ("x,y\n1,2\n", {}, "label column 'label' not found in {path}"),
    # Checked against the oracle only.
    "many_rows": ("\n".join(_MANY_ROWS) + "\n", {}, None),
}


@pytest.mark.parametrize("case", _READ_CASES, ids=list(_READ_CASES))
def test_read_table_named_cases(tmp_path, case):
    text, data, expected = _READ_CASES[case]
    path = tmp_path / "data.csv"
    path.write_text(text)
    got, oracle = _read_outcomes(path, **data)
    assert got == oracle
    if isinstance(expected, str):
        assert got == expected.format(path=path)
    elif expected is not None:
        assert got == (expected[0], np.array(expected[1]).tobytes())


@pytest.mark.parametrize("verb", ["train", "eval"])
def test_bad_label_exits_3_naming_row_and_cell(trained, tmp_path, capsys, verb):
    data = tmp_path / "bad.csv"
    data.write_text("color,x,label\nred,1.5,1\n\nblue,2.5,yes\n")
    if verb == "train":
        write_config(tmp_path / "bad.yaml", data, tmp_path / "bad_run")
        argv = ["train", str(tmp_path / "bad.yaml")]
    else:
        argv = ["eval", str(trained["out"] / "model.json"), str(data)]
    assert main(argv) == 3
    assert "data error: row 1: cannot parse label 'yes'" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["train", "eval", "sweep"])
def test_repeated_header_name_exits_3_naming_it(trained, tmp_path, capsys, verb):
    # Read as a mapping, the second `x` would silently replace the first.
    data = tmp_path / "repeated.csv"
    data.write_text("color,x,x,label\nred,1.5,100,1\nblue,2.5,400,0\n")
    doc = write_config(tmp_path / "repeated.yaml", data, tmp_path / "repeated_run")
    doc["sweep"] = {"grid": {"step_size": [0.1]}}
    (tmp_path / "repeated.yaml").write_text(yaml.safe_dump(doc))
    if verb == "eval":
        argv = ["eval", str(trained["out"] / "model.json"), str(data)]
    else:
        argv = [verb, str(tmp_path / "repeated.yaml")]
    capsys.readouterr()
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"data error: data file {data} names column 'x' more than once" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "segment, named",
    [("color=red,zz=3", "'zz'"), ("color=red,x=5", "'x'"), ("zz=3,color=red,x=5", "'zz', 'x'")],
    ids=["unknown", "curve_field", "both"],
)
def test_curves_segment_name_the_curve_does_not_use_is_config_error(
    trained, capsys, segment, named
):
    model = str(trained["out"] / "model.json")
    capsys.readouterr()
    assert main(["curves", model, "x", "--segment", segment, "--grid", "0:10:3"]) == 2
    captured = capsys.readouterr()
    assert f"config error: --segment names {named}: not a field" in captured.err
    assert captured.out == ""


def test_curves_segment_naming_a_field_twice_is_config_error(trained, capsys):
    # Read as a mapping, the second value would silently replace the first.
    model = str(trained["out"] / "model.json")
    capsys.readouterr()
    argv = ["curves", model, "x", "--segment", "color=red,color=blue", "--grid", "0:10:3"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error: --segment names 'color' twice" in captured.err
    assert captured.out == ""
