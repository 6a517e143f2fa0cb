"""Command-line entry point.

Every run is driven by one strict YAML config document and writes a
manifest (config snapshot, seed, versions, wall time) next to its
outputs so it can be re-run exactly. Exit codes: 0 success, 2 config
error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .bin_export import export_binned, make_boundaries
from .errors import ConfigError, DataError, NumericalError
from .model import (
    _continuous_kind,
    load_model,
    make_interaction,
    save_model,
    segmentized_curve,
)
from .schema import infer_schema
from .synthetic import (
    DEFAULT_CURVES,
    build_synthetic_schema,
    emit_curves,
    generate,
    run_comparison,
)
from .training import TrainConfig, evaluate, pack, train

_TRAIN_KEYS = {
    "loss",
    "optimizer",
    "step_size",
    "adagrad_eps",
    "batch_size",
    "epochs",
    "l2",
    "seed",
    "holdout_fraction",
    "shuffle",
    "select_best",
}
_ALLOWED = {
    "data": {"path", "delimiter", "label"},
    "schema": {"label_kind", "fields"},
    "model": {"variant", "dim"},
    "train": _TRAIN_KEYS,
    "export": {"field", "mode", "bins", "boundaries"},
    "synth": {
        "curves",
        "n_train",
        "n_test",
        "repeats",
        "seed",
        "interval_counts",
        "block_dim",
    },
    "sweep": {"grid"},
    "output": {"directory"},
}
_FIELD_KEYS = {
    "name",
    "kind",
    "bins",
    "binning",
    "num_functions",
    "degree",
    "transform",
    "resolution",
    "unknown_slot",
}


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    for section, body in doc.items():
        if section not in _ALLOWED:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key in body:
            if key not in _ALLOWED[section]:
                raise ConfigError(f"unknown key {key!r} in section {section!r}")
    for decl in doc.get("schema", {}).get("fields", []):
        for key in decl:
            if key not in _FIELD_KEYS:
                raise ConfigError(f"unknown key {key!r} in field declaration")
    return doc


def _read_table(data_cfg: dict):
    path = data_cfg.get("path")
    if path is None:
        raise ConfigError("data.path is required")
    delimiter = data_cfg.get("delimiter", ",")
    label_col = data_cfg.get("label", "label")
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh, delimiter=delimiter)
            rows = list(reader)
    except FileNotFoundError:
        raise DataError(f"data file not found: {path}") from None
    if not rows:
        raise DataError(f"data file {path} has no rows")
    if label_col not in rows[0]:
        raise DataError(f"label column {label_col!r} not found in {path}")
    labels = []
    for i, r in enumerate(rows):
        try:
            labels.append(float(r.pop(label_col)))
        except (TypeError, ValueError):
            raise DataError(f"row {i}: cannot parse label {r.get(label_col)!r}") from None
    return rows, np.asarray(labels)


def _out_dir(config: dict, override=None) -> Path:
    directory = override or config.get("output", {}).get("directory", ".")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, config: dict, started: float, extra=None) -> None:
    manifest = {
        "command": sys.argv[1:],
        "config": config,
        "splinefm_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version,
        "wall_time_seconds": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)


def _write_tsv(path: Path, header, rows, delimiter="\t") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)


def _train_config(config: dict) -> TrainConfig:
    return TrainConfig(**config.get("train", {}))


def _metrics_doc(metrics) -> dict:
    return {
        "cross_entropy": metrics.cross_entropy,
        "rmse": metrics.rmse,
        "sample_count": metrics.sample_count,
        "history": metrics.history,
    }


# ---------------------------------------------------------------------------
# Verbs


def cmd_train(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    rows, labels = _read_table(config.get("data", {}))
    schema_cfg = config.get("schema", {})
    schema = infer_schema(rows, schema_cfg)
    model_cfg = config.get("model", {})
    interaction = make_interaction(
        model_cfg.get("variant", "fm"), schema, int(model_cfg.get("dim", 4))
    )
    train_cfg = _train_config(config)
    data = pack(schema, rows, labels)

    def progress(record):
        print(json.dumps(record), flush=True)

    model, metrics = train(train_cfg, schema, interaction, data, progress=progress)
    out = _out_dir(config, args.output)
    save_model(model, out / "model.json")
    with open(out / "metrics.json", "w") as fh:
        json.dump(_metrics_doc(metrics), fh, indent=2)
    _write_manifest(out, config, started)
    print(f"model written to {out / 'model.json'}")


def cmd_eval(args) -> None:
    config = _load_config(args.config) if args.config else {}
    model = load_model(args.model)
    rows, labels = _read_table(config.get("data", {"path": args.data}))
    loss = "logloss" if model.schema.label_kind == "binary" else "squared"
    data = pack(model.schema, rows, labels)
    metrics = evaluate(model, data, loss)
    doc = _metrics_doc(metrics)
    print(json.dumps(doc, indent=2))
    if args.output:
        out = _out_dir({}, args.output)
        with open(out / "metrics.json", "w") as fh:
            json.dump(doc, fh, indent=2)


def cmd_export_bins(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    export_cfg = config.get("export", {})
    field_name = export_cfg.get("field")
    if field_name is None:
        raise ConfigError("export.field is required")
    model = load_model(args.model)
    kind = _continuous_kind(model, field_name)
    boundaries = make_boundaries(
        kind.transform,
        int(export_cfg.get("bins", 200)),
        export_cfg.get("mode", "inverse_cdf"),
        explicit=export_cfg.get("boundaries"),
    )
    exported, export = export_binned(model, field_name, boundaries)
    out = _out_dir(config, args.output)
    save_model(exported, out / "model_binned.json")
    k_f = export.bin_embeddings.shape[1]
    _write_tsv(
        out / "bins.tsv",
        ["low", "high", "midpoint", "linear"] + [f"e{i}" for i in range(k_f)],
        export.table(),
    )
    _write_manifest(out, config, started)
    print(f"exported model written to {out / 'model_binned.json'}")


def cmd_synth(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    synth_cfg = config.get("synth", {})
    curves = synth_cfg.get("curves", DEFAULT_CURVES)
    seed = int(synth_cfg.get("seed", 0))
    n_train = int(synth_cfg.get("n_train", 25_000))
    n_test = int(synth_cfg.get("n_test", 75_000))
    repeats = int(synth_cfg.get("repeats", 15))
    counts = [int(c) for c in synth_cfg.get("interval_counts", [5, 6, 12, 120])]
    block_dim = int(synth_cfg.get("block_dim", 4))
    train_cfg = _train_config(config)
    out = _out_dir(config, args.output)

    rows_tr, y_tr, seg_tr, z_tr = generate(curves, n_train, seed)
    rows_te, y_te, _, _ = generate(curves, n_test, seed + 1)
    _write_tsv(
        out / "train.csv",
        ["c0", "c1", "c2", "z", "label"],
        [(r["c0"], r["c1"], r["c2"], r["z"], int(y)) for r, y in zip(rows_tr, y_tr)],
        delimiter=",",
    )
    _write_tsv(
        out / "test.csv",
        ["c0", "c1", "c2", "z", "label"],
        [(r["c0"], r["c1"], r["c2"], r["z"], int(y)) for r, y in zip(rows_te, y_te)],
        delimiter=",",
    )

    records = run_comparison(
        curves, counts, repeats, seed, n_train, n_test, train_cfg, block_dim
    )
    _write_tsv(
        out / "results.tsv",
        ["strategy", "intervals", "repeat", "test_loss", "train_loss"],
        [
            (r["strategy"], r["intervals"], r["repeat"], r["test_loss"], r["train_loss"])
            for r in records
        ],
    )

    # Curve plot-data from one spline model at the smallest interval count.
    spline_count = min(counts)
    schema = build_synthetic_schema("spline", spline_count)
    interaction = make_interaction("ffm", schema, block_dim)
    model, _ = train(train_cfg, schema, interaction, pack(schema, rows_tr, y_tr))
    grid = np.linspace(0.0, 40.0, 161)
    curve_rows = emit_curves(model, grid, curves)
    _write_tsv(
        out / "curves.tsv",
        ["segment", "z", "predicted", "truth"],
        [(r["segment"], r["z"], r["predicted"], r["truth"]) for r in curve_rows],
    )
    _write_manifest(out, config, started, {"seed": seed})
    print(f"results written to {out / 'results.tsv'}")


def _parse_segment(spec: str) -> dict:
    segment = {}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise ConfigError(f"bad segment component {part!r}; expected name=value")
            name, value = part.split("=", 1)
            segment[name.strip()] = value.strip()
    return segment


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        return np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected low:high:count") from None


def cmd_curves(args) -> None:
    model = load_model(args.model)
    segment = _parse_segment(args.segment)
    grid = _parse_grid(args.grid)
    _continuous_kind(model, args.field)
    missing = [
        f.name for f in model.schema.fields if f.name != args.field and f.name not in segment
    ]
    if missing:
        raise ConfigError(f"--segment gives no value for field(s) {', '.join(missing)}")
    scores = segmentized_curve(model, segment, args.field, grid)
    out_rows = list(zip(grid.tolist(), scores.tolist()))
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_tsv(out, ["z", "score"], out_rows)
        print(f"curve written to {out}")
    else:
        for z, s in out_rows:
            print(f"{z}\t{s}")


def cmd_sweep(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    grid = config.get("sweep", {}).get("grid")
    if not grid:
        raise ConfigError("sweep.grid is required")
    for key in grid:
        if key not in _TRAIN_KEYS:
            raise ConfigError(f"sweep.grid key {key!r} is not a train parameter")
    rows, labels = _read_table(config.get("data", {}))
    schema = infer_schema(rows, config.get("schema", {}))
    model_cfg = config.get("model", {})
    interaction = make_interaction(
        model_cfg.get("variant", "fm"), schema, int(model_cfg.get("dim", 4))
    )
    data = pack(schema, rows, labels)

    keys = sorted(grid)
    combos = [{}]
    for key in keys:
        combos = [dict(c, **{key: v}) for c in combos for v in grid[key]]
    results = []
    base = config.get("train", {})
    for combo in combos:
        cfg = TrainConfig(**{**base, **combo})
        _, metrics = train(cfg, schema, interaction, data)
        loss = metrics.cross_entropy if cfg.loss == "logloss" else metrics.rmse
        results.append((*[combo[k] for k in keys], loss))
    out = _out_dir(config, args.output)
    _write_tsv(out / "sweep.tsv", keys + ["loss"], results)
    _write_manifest(out, config, started)
    print(f"sweep results written to {out / 'sweep.tsv'}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splinefm",
        description="Factorization machines with B-spline encoded numerical fields",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("train", help="train a model from a config document")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model file on a dataset")
    p.add_argument("model")
    p.add_argument("data")
    p.add_argument("--config", default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-bins", help="materialize a binned model")
    p.add_argument("model")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_export_bins)

    p = sub.add_parser("synth", help="run the synthetic bins-vs-splines comparison")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("curves", help="emit a segmentized curve for one field")
    p.add_argument("model")
    p.add_argument("field")
    p.add_argument("--segment", default="")
    p.add_argument("--grid", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("sweep", help="grid-sweep training hyperparameters")
    p.add_argument("config")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
