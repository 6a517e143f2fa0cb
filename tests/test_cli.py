import csv
import json

import numpy as np
import pytest
import yaml

from splinefm.cli import main


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
                    "block_dim": 2,
                },
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


# ---------------------------------------------------------------------------
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
        (lambda d: d["interaction"].__setitem__("variant", "xfm"), "variant 'xfm'"),
    ],
)
def test_eval_unsupported_model_document_is_data_error(trained, tmp_path, capsys, edit, message):
    path = _broken_model(tmp_path, trained, "unsupported.json", edit)
    err = _eval_data_error(trained, path, capsys)
    assert message in err


def _write_loss_config(tmp_path, label_kind, loss, sweep=False):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "config.yaml"
    write_dataset(data, n=100)
    doc = write_config(cfg, data, tmp_path / "out", epochs=1)
    doc["schema"]["label_kind"] = label_kind
    if sweep:
        doc["sweep"] = {"grid": {"loss": ["logloss", "squared"]}}
    else:
        doc["train"]["loss"] = loss
    with open(cfg, "w") as fh:
        yaml.safe_dump(doc, fh)
    return cfg


@pytest.mark.parametrize(
    "label_kind, loss", [("binary", "squared"), ("real", "logloss")]
)
def test_train_loss_label_kind_mismatch_is_config_error(tmp_path, capsys, label_kind, loss):
    cfg = _write_loss_config(tmp_path, label_kind, loss)
    assert main(["train", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"train.loss {loss!r}" in err and f"label_kind {label_kind!r}" in err
    assert not (tmp_path / "out" / "model.json").exists()


def test_train_real_label_kind_with_squared_loss(tmp_path):
    cfg = _write_loss_config(tmp_path, "real", "squared")
    assert main(["train", str(cfg)]) == 0
    assert main(["eval", str(tmp_path / "out" / "model.json"), str(tmp_path / "data.csv")]) == 0


@pytest.mark.parametrize("label_kind", ["binary", "real"])
def test_sweep_loss_label_kind_mismatch_is_config_error(tmp_path, capsys, label_kind):
    # The grid holds both losses, so one of them disagrees with either kind.
    cfg = _write_loss_config(tmp_path, label_kind, None, sweep=True)
    assert main(["sweep", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "train.loss" in err and f"label_kind {label_kind!r}" in err
    assert not (tmp_path / "out" / "sweep.tsv").exists()


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
    ],
    ids=["label_kind", "affine_range", "degree", "transform_kind", "field_kind",
         "duplicate_name", "boundaries"],
)
def test_eval_invalid_schema_section_is_data_error(trained, tmp_path, capsys, edit):
    path = _broken_model(tmp_path, trained, "bad_schema.json", edit)
    _eval_data_error(trained, path, capsys)


@pytest.mark.parametrize(
    "section, entries, key",
    [
        ("export", {"bins": "abc"}, "export.bins"),
        ("export", {"mode": "explicit", "boundaries": ["a", "b"]}, "boundaries"),
        ("model", {"dim": "abc"}, "model.dim"),
        ("train", {"epochs": "x"}, "train.epochs"),
        ("train", {"batch_size": 2.5}, "train.batch_size"),
        ("field", {"num_functions": "two"}, "num_functions"),
        ("export", {"bins": 2.5}, "export.bins"),
        ("model", {"dim": True}, "model.dim"),
        ("field", {"num_functions": "3"}, "num_functions"),
    ],
    ids=["bins", "boundaries", "dim", "epochs", "batch_size", "num_functions",
         "fractional_bins", "bool_dim", "string_num_functions"],
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
    assert "train.loss 'squared'" in err and "label_kind 'binary'" in err
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
