"""Check that two splinefm source trees give the same outputs.

Usage: python3 scripts/compare_outputs.py BASE_SRC HEAD_SRC [--work DIR]

For each benchmark workload and each seed in `SEEDS`, the inputs come from
`perfbench/workloads.write_inputs`, written once and read by both sides,
`write_malformed` writes a malformed but readable copy of the test data,
and `write_cuts` writes the first 1 and the first 1,025 data rows of
`test.csv` (`CUT_ROWS`): a single row, and a whole scoring block of 1,024
rows followed by a last block of one. Each side then runs `train`, `eval`
(on all four test files), `export-bins` and one `curves` call per segment
through its own `splinefm.cli.main`, in a fresh interpreter that imports
`splinefm` from its source directory. `export-bins` runs twice: once on
the workload's `export.yaml` (`inverse_cdf` mode) and once on
`export_explicit.yaml`, which `write_explicit_export` writes: `explicit`
mode with the same field and bin count, its boundaries evenly spaced over
the field's range in `train.csv`. Each exported binned model is scored
too: `eval` on `test.csv` and on `malformed.csv`, and, where the workload's
curve field is not its exported field, one `curves` call on the first
segment, which holds a value of the binned field. `model.json`,
`metrics.json`, the four printed `eval` metrics, `model_binned.json`,
`bins.tsv` and the two printed `eval` metrics of both exports, and every
curve file must be equal byte for byte. Then both sides score the base
side's trained `model.json` with the same `eval`, `export-bins` and
`curves` calls, and every output of those must be equal byte for byte
too: a change that moves trained bits cannot hide a change of scoring.
Once per invocation, each side also runs an FwFM `sweep` (`SWEEP_GRID`)
on the `SWEEP_SYNTH_INPUTS` training data, a small `synth` (`SYNTH`), a
`train` of the `SWEEP_SYNTH_INPUTS` config
with `schema.label_kind: real`, which trains and scores by squared error,
followed by an `eval` of that model on the workload's `test.csv`, a
`train` of that config with `SGD_TRAIN` (SGD with an L2 penalty, the
optimizer branches no other output runs), and, for each of `BINNINGS`, a
`train` and an `eval` of that config with its field `BINNED_FIELD`
declared binned (`BINNED_BINS` bins), the only trained binned fields;
`sweep.tsv`, `results.tsv`, `train.csv`, `test.csv`, `curves.tsv`, the
real model's `model.json`, `metrics.json` and printed `eval` metrics, the
SGD model's `model.json` and `metrics.json`, and each binned model's
`model.json`, `metrics.json` and printed `eval` metrics must be equal byte
for byte. Prints two lines per workload and seed (its outputs, and the
base model scored) and one for `sweep`, `synth`, the real label kind, SGD
and the binned fields; exits 1 when any output differs. For a model file
that differs, the line also names the
top-level entries that differ and the largest absolute gap over `w0`, `w`,
`V` and the interaction's arrays, which tells a change of the file format
from a change of the numbers.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, write_inputs  # noqa: E402

SEEDS = (1, 7)
CUT_ROWS = (1, 1_025)  # data rows of the cuts of `test.csv` that `eval` also scores
EXPORTS = ("export", "export_explicit")  # output directories of the two exports
# The field that the binned trains declare binned, its bin count, and their binnings.
BINNED_FIELD, BINNED_BINS, BINNINGS = "z", 40, ("uniform", "quantile")
EXACT = ["model.json", "metrics.json", "eval.json", "eval_malformed.json",
         *(f"eval_{rows}.json" for rows in CUT_ROWS),
         *(f"{d}/{name}" for d in EXPORTS
           for name in ("model_binned.json", "bins.tsv", "eval.json", "eval_malformed.json"))]
# What scoring the base side's model writes: every output but train's.
SCORED_EXACT = [name for name in EXACT if name not in ("model.json", "metrics.json")]
MODELS = {"model.json", "real/model.json", "sgd/model.json",
          *(f"{d}/model_binned.json" for d in EXPORTS),
          *(f"binned_{mode}/model.json" for mode in BINNINGS)}
# The workload and seed (one of `SEEDS`) whose inputs `sweep` runs on, and
# what it sweeps.
SWEEP_SYNTH_INPUTS = ("paper_synth", 1)
SWEEP_GRID = {"step_size": [0.05, 0.1], "l2": [0.0, 0.001]}
SGD_TRAIN = {"optimizer": "sgd", "l2": 0.001}  # train settings of the SGD model
SYNTH = {"n_train": 2_000, "n_test": 2_000, "repeats": 1, "interval_counts": [5, 12], "seed": 1}
SWEEP_SYNTH = "sweep-synth"  # the case of `sweep`, `synth`, the real label kind, SGD, binned
SWEEP_SYNTH_EXACT = ["sweep/sweep.tsv", "synth/results.tsv", "synth/train.csv", "synth/test.csv",
                     "real/model.json", "real/metrics.json", "real/eval.json",
                     "sgd/model.json", "sgd/metrics.json",
                     *(f"binned_{mode}/{name}" for mode in BINNINGS
                       for name in ("model.json", "metrics.json", "eval.json"))]


def write_case(workload: str, seed: int, inputs: Path) -> None:
    """Write one workload's inputs, and its curve segments as JSON."""
    facts = write_inputs(WORKLOADS[workload], seed, inputs)
    (inputs / "segments.json").write_text(json.dumps(facts["segments"]))
    write_malformed(inputs)
    write_cuts(inputs)
    write_explicit_export(inputs)


def write_cuts(inputs: Path) -> None:
    """Write `test_<rows>.csv` for each of `CUT_ROWS`: the header and the
    first `rows` data rows of `test.csv`."""
    lines = (inputs / "test.csv").read_text().splitlines(keepends=True)
    for rows in CUT_ROWS:
        (inputs / f"test_{rows}.csv").write_text("".join(lines[: rows + 1]))


def write_explicit_export(inputs: Path) -> None:
    """Write `export_explicit.yaml`: the field and bin count of `export.yaml`
    in `explicit` mode, with boundaries evenly spaced from the field's least
    to its greatest value in `train.csv`."""
    export = yaml.safe_load((inputs / "export.yaml").read_text())["export"]
    with open(inputs / "train.csv", newline="") as fh:
        values = [float(row[export["field"]]) for row in csv.DictReader(fh)]
    boundaries = np.linspace(min(values), max(values), export["bins"] + 1).tolist()
    explicit = {"field": export["field"], "mode": "explicit", "boundaries": boundaries}
    (inputs / "export_explicit.yaml").write_text(yaml.safe_dump({"export": explicit}))


def write_malformed(inputs: Path) -> None:
    """Write `malformed.csv`: the rows of `test.csv` with `;` between cells
    and the label column first, renamed `clicked`, after the first two rows a
    blank line, then a row short of its last cell (a continuous field, which
    reads as missing) and a row with an extra cell. `malformed.yaml` gives
    `eval --config` that delimiter and label column."""
    with open(inputs / "test.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    first = rows[0].index("label")
    rows = [[row[first]] + row[:first] + row[first + 1 :] for row in rows]
    rows[0][0] = "clicked"
    rows[3] = rows[3][:-1]
    rows[4] = rows[4] + ["extra"]
    rows.insert(3, [])
    with open(inputs / "malformed.csv", "w", newline="") as fh:
        csv.writer(fh, delimiter=";").writerows(rows)
    data = {"data": {"delimiter": ";", "label": "clicked"}}
    (inputs / "malformed.yaml").write_text(yaml.safe_dump(data))


def write_sweep_synth(workload_inputs: Path, inputs: Path) -> None:
    """Write the `sweep` and `synth` configs, `real.yaml` (the config of the
    workload inputs `workload_inputs` with `schema.label_kind: real`),
    `sgd.yaml` (that config with `SGD_TRAIN`), `binned_<binning>.yaml` for
    each of `BINNINGS` (that config with `BINNED_FIELD` binned) and a copy of
    their `test.csv`; the sweep trains an FwFM on their training data, for 2
    epochs."""
    config = yaml.safe_load((workload_inputs / "config.yaml").read_text())
    inputs.mkdir(parents=True, exist_ok=True)
    real = {**config, "schema": {**config["schema"], "label_kind": "real"}}
    (inputs / "real.yaml").write_text(yaml.safe_dump(real))
    sgd = {**config, "train": {**config["train"], **SGD_TRAIN}}
    (inputs / "sgd.yaml").write_text(yaml.safe_dump(sgd))
    binned = {"name": BINNED_FIELD, "kind": "binned", "bins": BINNED_BINS}
    for mode in BINNINGS:
        fields = [{**binned, "binning": mode} if d["name"] == BINNED_FIELD else d
                  for d in config["schema"]["fields"]]
        doc = {**config, "schema": {**config["schema"], "fields": fields}}
        (inputs / f"binned_{mode}.yaml").write_text(yaml.safe_dump(doc))
    shutil.copyfile(workload_inputs / "test.csv", inputs / "test.csv")
    config["model"]["variant"] = "fwfm"
    config["train"]["epochs"] = 2
    (inputs / "sweep.yaml").write_text(yaml.safe_dump({**config, "sweep": {"grid": SWEEP_GRID}}))
    (inputs / "synth.yaml").write_text(yaml.safe_dump({"synth": SYNTH, "train": {"epochs": 2}}))


def run_side(src: str, inputs: str, out: str, case: str, model: str | None = None) -> None:
    """Run the verbs of one case with the package under `src`: a workload's
    on the inputs `write_case` wrote to `inputs`, or `SWEEP_SYNTH`'s on the
    configs `write_sweep_synth` wrote there. The outputs go to `out`. Given
    `model`, a workload's case scores a copy of that model file in place of
    the one its `train` writes."""
    sys.path.insert(0, src)
    from splinefm import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "splinefm").resolve():
        sys.exit(f"imported splinefm from {cli.__file__}, not from {src}")
    inputs, out = Path(inputs), Path(out)

    def verb(argv) -> str:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            sys.exit(f"{argv[0]} exited {code}")
        return printed.getvalue()

    if case == SWEEP_SYNTH:
        verb(["sweep", inputs / "sweep.yaml", "--output", out / "sweep"])
        verb(["synth", inputs / "synth.yaml", "--output", out / "synth"])
        verb(["train", inputs / "real.yaml", "--output", out / "real"])
        printed = verb(["eval", out / "real" / "model.json", inputs / "test.csv"])
        (out / "real" / "eval.json").write_text(printed)
        verb(["train", inputs / "sgd.yaml", "--output", out / "sgd"])
        for mode in BINNINGS:
            trained = out / f"binned_{mode}"
            verb(["train", inputs / f"binned_{mode}.yaml", "--output", trained])
            printed = verb(["eval", trained / "model.json", inputs / "test.csv"])
            (trained / "eval.json").write_text(printed)
        return
    w = WORKLOADS[case]
    segments = json.loads((inputs / "segments.json").read_text())

    def evaluate(model: Path) -> None:
        """`eval` of a model on `test.csv` and on `malformed.csv`, printed
        to `eval.json` and `eval_malformed.json` beside the model."""
        (model.parent / "eval.json").write_text(verb(["eval", model, inputs / "test.csv"]))
        malformed = ["eval", model, inputs / "malformed.csv", "--config", inputs / "malformed.yaml"]
        (model.parent / "eval_malformed.json").write_text(verb(malformed))

    def curve(model: Path, segment: dict, output: Path) -> None:
        lo, hi, points = w.curve_grid
        spec = ",".join(f"{k}={v}" for k, v in segment.items())
        verb(["curves", model, w.curve_field, "--segment", spec,
              "--grid", f"{lo}:{hi}:{points}", "--output", output])

    if model is None:
        verb(["train", inputs / "config.yaml", "--output", out])
    else:
        out.mkdir(parents=True)
        shutil.copyfile(model, out / "model.json")
    evaluate(out / "model.json")
    for rows in CUT_ROWS:
        cut = verb(["eval", out / "model.json", inputs / f"test_{rows}.csv"])
        (out / f"eval_{rows}.json").write_text(cut)
    for config, directory in zip(("export.yaml", "export_explicit.yaml"), EXPORTS):
        verb(["export-bins", out / "model.json", inputs / config, "--output", out / directory])
        binned = out / directory / "model_binned.json"
        evaluate(binned)
        if w.curve_field != w.export_field:
            curve(binned, segments[0], out / directory / "curve.tsv")
    for i, segment in enumerate(segments):
        curve(out / "model.json", segment, out / f"curve{i}.tsv")


def _model_arrays(doc: dict) -> dict:
    """`w0`, `w`, each `V` table and each interaction array of a model
    document, by name."""
    inter = doc.get("interaction", {})
    arrays = {"w0": doc.get("w0"), "w": doc.get("w"), "strengths": inter.get("strengths")}
    arrays.update({f"V{i}": v for i, v in enumerate(doc.get("V", []))})
    arrays.update({f"matrix {key}": m for key, m in inter.get("matrices", {}).items()})
    return {name: np.asarray(a, dtype=float) for name, a in arrays.items() if a is not None}


def model_gaps(base: Path, head: Path) -> str:
    """The top-level entries in which two model files differ, and the
    largest absolute gap between their arrays of one name and shape."""
    a, b = json.loads(base.read_text()), json.loads(head.read_text())
    entries = [key for key in {**a, **b} if a.get(key) != b.get(key)]
    arrays_a, arrays_b = _model_arrays(a), _model_arrays(b)
    gaps = [
        float(np.max(np.abs(x - y), initial=0.0))
        for name, x in arrays_a.items()
        if name in arrays_b and (y := arrays_b[name]).shape == x.shape
    ]
    gap = max(gaps, default=0.0)
    return f"entries {', '.join(entries) or 'none'} differ, largest gap {gap:.3g}"


def compare(base: Path, head: Path, exact=EXACT, curves="**/curve*.tsv") -> list:
    """What differs between the outputs of two sides, one line each: the
    files `exact`, and the curve files the pattern `curves` matches, each
    compared byte for byte."""
    base_curves = sorted(str(p.relative_to(base)) for p in base.glob(curves))
    same_curves = base_curves == sorted(str(p.relative_to(head)) for p in head.glob(curves))
    diffs = [
        f"{name} ({model_gaps(base / name, head / name)})" if name in MODELS else name
        for name in exact + (base_curves if same_curves else [])
        if (base / name).read_bytes() != (head / name).read_bytes()
    ]
    return diffs if same_curves else diffs + ["the curve files"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source directory holding the base splinefm package")
    parser.add_argument("head", help="source directory holding the changed splinefm package")
    parser.add_argument("--work", default=None, help="directory for inputs and outputs "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = Path(args.work or stack.enter_context(tempfile.TemporaryDirectory()))

        def run(case: str, inputs: Path, directory: Path, *model: Path) -> None:
            for side, src in (("base", args.base), ("head", args.head)):
                subprocess.run(
                    [sys.executable, __file__, "--side", str(Path(src).resolve()),
                     str(inputs), str(directory / side), case, *map(str, model)],
                    check=True,
                )

        failed = False
        for name in sorted(WORKLOADS):
            for seed in SEEDS:
                case = work / f"{name}-{seed}"
                write_case(name, seed, case / "inputs")
                run(name, case / "inputs", case)
                diffs = compare(case / "base", case / "head")
                failed |= bool(diffs)
                print(f"{name} seed {seed}: " + ("; ".join(diffs) or "identical"), flush=True)
                scored = case / "scored"
                run(name, case / "inputs", scored, case / "base" / "model.json")
                diffs = compare(scored / "base", scored / "head", SCORED_EXACT)
                failed |= bool(diffs)
                print(f"{name} seed {seed}, the base model scored by both trees: "
                      + ("; ".join(diffs) or "identical"), flush=True)
        name, seed = SWEEP_SYNTH_INPUTS
        case = work / SWEEP_SYNTH
        write_sweep_synth(work / f"{name}-{seed}" / "inputs", case / "inputs")
        run(SWEEP_SYNTH, case / "inputs", case)
        diffs = compare(case / "base", case / "head", SWEEP_SYNTH_EXACT, "synth/curves.tsv")
        failed |= bool(diffs)
        print(f"sweep, synth, real label kind, SGD and binned fields on {name} seed {seed}: "
              + ("; ".join(diffs) or "identical"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        run_side(*sys.argv[2:])
    else:
        sys.exit(main())
