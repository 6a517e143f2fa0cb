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
