"""Command-line entry point.

Every run is driven by one strict YAML config document and writes a
manifest (command line, config snapshot, seed, versions, wall time)
next to its outputs so it can be re-run exactly. Exit codes: 0 success,
2 config error, 3 data error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import re
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
from .schema import FIELD_KEYS, MAX_BINS, MAX_FUNCTIONS, _config_int, infer_schema
from .synthetic import (
    DEFAULT_CURVES,
    build_synthetic_schema,
    emit_curves,
    generate,
    run_comparison,
)
from .training import TrainConfig, evaluate, pack, train

_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)}
_ALLOWED = {
    "data": {"path", "delimiter", "label"},
    "schema": {"label_kind", "fields"},
    "model": {"variant", "dim"},
    "train": _TRAIN_KEYS,
    "export": {"field", "mode", "bins", "boundaries"},
    "synth": {"curves", "n_train", "n_test", "repeats", "seed", "interval_counts"},
    "sweep": {"grid"},
    "output": {"directory"},
}


# Upper bounds of the integer settings that size what this module builds;
# see also `schema.MAX_BINS` and `training._INT_RANGE`.
MAX_DIM = 1_024
MAX_SYNTH_ROWS = 1_000_000
MAX_REPEATS = 1_000
MAX_GRID_POINTS = 100_000


class _ConfigLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that also reads every number with an exponent as a
    float, as YAML 1.2 does. YAML 1.1 reads one without a decimal point
    (`1e-8`, `5E2`) or without a sign on the exponent (`1.5e3`) as a
    string. Plain integers stay integers."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def _load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_ConfigLoader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {_reason(exc)}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"cannot parse config {path}: it nests too deeply") from None
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
    decls = doc.get("schema", {}).get("fields", [])
    if not isinstance(decls, list) or not all(isinstance(d, dict) for d in decls):
        raise ConfigError("schema.fields must be a list of mappings")
    for decl in decls:
        for key in decl:
            if key not in FIELD_KEYS:
                raise ConfigError(f"unknown key {key!r} in field declaration")
    return doc


def _reason(exc: Exception) -> str:
    """What went wrong reading a file, without repeating its name."""
    return getattr(exc, "strerror", None) or str(exc)


def _read_table(data_cfg: dict):
    """Feature columns (by name) and labels of a CSV file. Blank lines are
    skipped, short rows padded with None and extra cells dropped; a header
    that names a column twice is a data error."""
    path = data_cfg.get("path")
    delimiter = data_cfg.get("delimiter", ",")
    label_col = data_cfg.get("label", "label")
    if not isinstance(path, str):
        raise ConfigError(f"data.path must name a file, got {path!r}")
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"data.delimiter must be one character, got {delimiter!r}")
    if not isinstance(label_col, str):
        raise ConfigError(f"data.label must be a column name, got {label_col!r}")
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            header, rows, n = next(reader, []), filter(None, reader), 0
            width, lists = len(header), [[] for _ in header]
            # A chunk of rows at a time: holding every row's list at once
            # costs about as much again in garbage collection.
            while chunk := list(itertools.islice(rows, 4096)):
                n += len(chunk)
                if set(map(len, chunk)) != {width}:
                    chunk = [(row + [None] * width)[:width] for row in chunk]
                for column, part in zip(lists, zip(*chunk)):
                    column.extend(part)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read data file {path}: {_reason(exc)}") from None
    if not n:
        raise DataError(f"data file {path} has no rows")
    if len(set(header)) < len(header):
        repeated = next(name for name in header if header.count(name) > 1)
        raise DataError(f"data file {path} names column {repeated!r} more than once")
    columns = dict(zip(header, lists))
    if label_col not in columns:
        raise DataError(f"label column {label_col!r} not found in {path}")
    cells = columns.pop(label_col)
    try:
        return columns, np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except (TypeError, ValueError):
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except (TypeError, ValueError):
                raise DataError(f"row {i}: cannot parse label {cell!r}") from None


def _out_dir(config: dict, override=None) -> Path:
    directory = override or config.get("output", {}).get("directory", ".")
    if not isinstance(directory, str):
        raise ConfigError(f"output.directory must be a path, got {directory!r}")
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output.directory {out}: {_reason(exc)}") from None
    return out


@contextlib.contextmanager
def _writing(path: Path):
    """Yield `path`; an OSError while it is written, such as a directory
    already at that name, is a ConfigError naming it."""
    try:
        yield path
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {_reason(exc)}") from None


def _write_manifest(out: Path, command: list, config: dict, started: float, extra=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "splinefm_version": __version__,
        "numpy_version": np.__version__,
        "python_version": sys.version,
        "wall_time_seconds": time.time() - started,
    }
    if extra:
        manifest.update(extra)
    with _writing(out / "manifest.json") as path, open(path, "w") as fh:
        # str() for what YAML reads beyond JSON's types, such as a date.
        json.dump(manifest, fh, indent=2, default=str)


def _write_tsv(path: Path, header, rows, delimiter="\t") -> None:
    with _writing(path), open(path, "w", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(rows)


def _model_dim(config: dict) -> int:
    return _config_int(config.get("model", {}).get("dim", 4), "model.dim", 0, MAX_DIM)


def _interaction(config: dict, schema):
    variant = config.get("model", {}).get("variant", "fm")
    return make_interaction(variant, schema, _model_dim(config))


# ---------------------------------------------------------------------------
# Verbs


def cmd_train(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    table, labels = _read_table(config.get("data", {}))
    schema = infer_schema(table, config.get("schema", {}))
    interaction = _interaction(config, schema)
    train_cfg = TrainConfig(**config.get("train", {})).validate()
    data = pack(schema, table, labels)

    def progress(record):
        print(json.dumps(record), flush=True)

    model, metrics = train(train_cfg, schema, interaction, data, progress=progress)
    out = _out_dir(config, args.output)
    with _writing(out / "model.json") as path:
        save_model(model, path)
    with _writing(out / "metrics.json") as path, open(path, "w") as fh:
        json.dump(dataclasses.asdict(metrics), fh, indent=2)
    _write_manifest(out, args.argv, config, started)
    print(f"model written to {out / 'model.json'}")


def cmd_eval(args) -> None:
    # The config supplies only how to read DATA: its delimiter and label column.
    config = _load_config(args.config) if args.config else {}
    model = load_model(args.model)
    table, labels = _read_table({**config.get("data", {}), "path": args.data})
    data = pack(model.schema, table, labels)
    metrics = evaluate(model, data)
    doc = dataclasses.asdict(metrics)
    print(json.dumps(doc, indent=2))
    if args.output:
        out = _out_dir({}, args.output)
        with _writing(out / "metrics.json") as path, open(path, "w") as fh:
            json.dump(doc, fh, indent=2)


def cmd_export_bins(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    export_cfg = config.get("export", {})
    field_name = export_cfg.get("field")
    if field_name is None:
        raise ConfigError("export.field is required")
    mode, boundaries = export_cfg.get("mode", "inverse_cdf"), export_cfg.get("boundaries")
    if mode == "explicit" and boundaries is None:
        raise ConfigError("export.mode explicit needs export.boundaries")
    if mode != "explicit" and boundaries is not None:
        raise ConfigError(f"export.boundaries is read only by export.mode explicit, not {mode!r}")
    if mode == "explicit" and "bins" in export_cfg:
        raise ConfigError("export.bins is not read by export.mode explicit; the boundaries set it")
    model = load_model(args.model)
    transform = _continuous_kind(model, field_name).transform
    if mode != "explicit":  # `export_binned` validates explicit boundaries
        num_bins = _config_int(export_cfg.get("bins", 200), "export.bins", maximum=MAX_BINS)
        boundaries = make_boundaries(transform, num_bins, mode)
    exported, export = export_binned(model, field_name, boundaries)
    out = _out_dir(config, args.output)
    _write_export(out, exported, export)
    _write_manifest(out, args.argv, config, started)
    print(f"exported model written to {out / 'model_binned.json'}")


def _write_export(out: Path, exported, export) -> None:
    """Write `model_binned.json` and `bins.tsv` from one `repr` of each bin's
    floats: for a finite float, the text both `json` and `csv.writer` write."""
    lines = export.lines()
    v_text = {export.field_id: ("[" + ", ".join(s.split("\t")[4:]) + "]" for s in lines)}
    with _writing(out / "model_binned.json") as path:
        save_model(exported, path, v_text=v_text)
    k_f = export.bin_embeddings.shape[1]
    header = "\t".join(["low", "high", "midpoint", "linear"] + [f"e{i}" for i in range(k_f)])
    # csv.writer's "\r\n" line ends
    with _writing(out / "bins.tsv") as path, open(path, "w", newline="") as fh:
        fh.writelines(s + "\r\n" for s in [header, *lines])


def cmd_synth(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    synth_cfg = config.get("synth", {})
    curves = synth_cfg.get("curves", DEFAULT_CURVES)
    counts = synth_cfg.get("interval_counts", [5, 6, 12, 120])
    for key, value in (("curves", curves), ("interval_counts", counts)):
        if not isinstance(value, list):
            raise ConfigError(f"synth.{key} must be a list, got {value!r}")
    seed = _config_int(synth_cfg.get("seed", 0), "synth.seed", 0)
    n_train = _config_int(synth_cfg.get("n_train", 25_000), "synth.n_train",
                          maximum=MAX_SYNTH_ROWS)
    n_test = _config_int(synth_cfg.get("n_test", 75_000), "synth.n_test", maximum=MAX_SYNTH_ROWS)
    repeats = _config_int(synth_cfg.get("repeats", 15), "synth.repeats", 1, MAX_REPEATS)
    counts = [_config_int(c, "synth.interval_counts", maximum=MAX_FUNCTIONS) for c in counts]
    if not counts:
        raise ConfigError("synth.interval_counts must not be empty")
    variant = config.get("model", {}).get("variant", "ffm")
    if variant != "ffm":
        raise ConfigError(f"synth trains FFMs only; model.variant must be 'ffm', got {variant!r}")
    block_dim = _model_dim(config)
    # Curve plot-data comes from one spline model at the smallest interval count.
    schema = build_synthetic_schema("spline", min(counts))
    train_cfg = TrainConfig(**config.get("train", {})).validate()
    out = _out_dir(config, args.output)

    rows_tr, y_tr, _, _ = generate(curves, n_train, seed)
    rows_te, y_te, _, _ = generate(curves, n_test, seed + 1)
    for name, rows, labels in (("train.csv", rows_tr, y_tr), ("test.csv", rows_te, y_te)):
        _write_tsv(
            out / name,
            ["c0", "c1", "c2", "z", "label"],
            [(r["c0"], r["c1"], r["c2"], r["z"], int(y)) for r, y in zip(rows, labels)],
            delimiter=",",
        )

    records = run_comparison((rows_tr, y_tr, rows_te, y_te), counts, repeats, seed, train_cfg,
                             block_dim)
    keys = ["strategy", "intervals", "repeat", "test_loss", "train_loss"]
    _write_tsv(out / "results.tsv", keys, [[r[key] for key in keys] for r in records])

    interaction = make_interaction("ffm", schema, block_dim)
    model, _ = train(train_cfg, schema, interaction, pack(schema, rows_tr, y_tr))
    grid = np.linspace(0.0, 40.0, 161)
    keys = ["segment", "z", "predicted", "truth"]
    curve_rows = [[r[key] for key in keys] for r in emit_curves(model, grid, curves)]
    _write_tsv(out / "curves.tsv", keys, curve_rows)
    _write_manifest(out, args.argv, config, started, {"seed": seed})
    print(f"results written to {out / 'results.tsv'}")


def _parse_segment(spec: str) -> dict:
    segment = {}
    if spec:
        for part in spec.split(","):
            if "=" not in part:
                raise ConfigError(f"bad segment component {part!r}; expected name=value")
            name, value = (text.strip() for text in part.split("=", 1))
            if name in segment:
                raise ConfigError(f"--segment names {name!r} twice")
            segment[name] = value
    return segment


def _parse_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected low:high:count") from None
    if not np.isfinite(hi - lo):  # also when lo or hi is not finite
        raise ConfigError(f"grid spec {spec!r}: low, high and high - low must be finite")
    return np.linspace(lo, hi, _config_int(count, "--grid count", 0, MAX_GRID_POINTS))


def cmd_curves(args) -> None:
    model = load_model(args.model)
    segment = _parse_segment(args.segment)
    grid = _parse_grid(args.grid)
    _continuous_kind(model, args.field)
    others = {f.name for f in model.schema.fields} - {args.field}
    unused = [name for name in segment if name not in others]
    if unused:
        raise ConfigError(f"--segment names {', '.join(map(repr, unused))}: "
                          f"not a field of the model other than {args.field!r}")
    missing = [
        f.name for f in model.schema.fields if f.name != args.field and f.name not in segment
    ]
    if missing:
        raise ConfigError(f"--segment gives no value for field(s) {', '.join(missing)}")
    scores = segmentized_curve(model, segment, args.field, grid)
    out_rows = list(zip(grid.tolist(), scores.tolist()))
    if args.output:
        out = Path(args.output)
        _out_dir({}, str(out.parent))
        _write_tsv(out, ["z", "score"], out_rows)
        print(f"curve written to {out}")
    else:
        for z, s in out_rows:
            print(f"{z}\t{s}")


def cmd_sweep(args) -> None:
    started = time.time()
    config = _load_config(args.config)
    grid = config.get("sweep", {}).get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep.grid is required: a mapping of train keys to lists")
    for key, values in grid.items():
        if key not in _TRAIN_KEYS:
            raise ConfigError(f"sweep.grid key {key!r} is not a train parameter")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.grid.{key} must be a non-empty list, got {values!r}")
    table, labels = _read_table(config.get("data", {}))
    schema = infer_schema(table, config.get("schema", {}))
    interaction = _interaction(config, schema)
    data = pack(schema, table, labels)

    keys = sorted(grid)
    combos = list(itertools.product(*(grid[key] for key in keys)))
    results = []
    base = config.get("train", {})
    configs = [TrainConfig(**{**base, **dict(zip(keys, combo))}).validate() for combo in combos]
    for combo, cfg in zip(combos, configs):
        _, metrics = train(cfg, schema, interaction, data)
        loss = metrics.cross_entropy if schema.label_kind == "binary" else metrics.rmse
        results.append((*combo, loss))
    out = _out_dir(config, args.output)
    _write_tsv(out / "sweep.tsv", keys + ["loss"], results)
    _write_manifest(out, args.argv, config, started)
    print(f"sweep results written to {out / 'sweep.tsv'}")


# ---------------------------------------------------------------------------


def _join_values(argv: list) -> list:
    """`argv` with `--grid` and `--segment` each joined to the argument
    after it (`--grid=-5:5:11`), so that argparse reads a value that
    starts with "-" as a value and not as an option."""
    joined = []
    for arg in argv:
        if joined and joined[-1] in ("--grid", "--segment"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="splinefm",
        description="Factorization machines with B-spline encoded numerical fields",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # Each verb: its function, help, positional arguments and own options;
    # every verb also takes --output.
    for verb, func, help_text, positionals, options in (
        ("train", cmd_train, "train a model from a config document", ["config"], {}),
        ("eval", cmd_eval, "evaluate a model file on a dataset", ["model", "data"],
         {"--config": {"default": None}}),
        ("export-bins", cmd_export_bins, "materialize a binned model", ["model", "config"], {}),
        ("synth", cmd_synth, "run the synthetic bins-vs-splines comparison", ["config"], {}),
        ("curves", cmd_curves, "emit a segmentized curve for one field", ["model", "field"],
         {"--segment": {"default": ""}, "--grid": {"required": True}}),
        ("sweep", cmd_sweep, "grid-sweep training hyperparameters", ["config"], {}),
    ):
        p = sub.add_parser(verb, help=help_text)
        for name in positionals:
            p.add_argument(name)
        for flag, kwargs in {**options, "--output": {"default": None}}.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_values(argv))
    args.argv = argv  # the command line the manifest records
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
