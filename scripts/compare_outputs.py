"""Check that two splinefm source trees give the same outputs.

Usage: python3 scripts/compare_outputs.py BASE_SRC HEAD_SRC [--work DIR]

For each benchmark workload and each seed in `SEEDS`, the inputs come from
`perfbench/workloads.write_inputs`, written once and read by both sides.
Each side then runs `train`, `eval`, `export-bins` and one `curves` call
per segment through its own `splinefm.cli.main`, in a fresh interpreter
that imports `splinefm` from its source directory. `model.json`,
`metrics.json`, the printed `eval` metrics, `model_binned.json` and
`bins.tsv` must be equal byte for byte, and every curve value within
`CURVE_TOLERANCE`. Prints one line per workload and seed; exits 1 when
any output differs. For a model file that differs, the line also names
the top-level entries that differ and the largest absolute gap over
`w0`, `w`, `V` and the interaction's arrays, which tells a change of the
file format from a change of the numbers.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import WORKLOADS, write_inputs  # noqa: E402

CURVE_TOLERANCE = 1e-12
SEEDS = (1, 7)
EXACT = ["model.json", "metrics.json", "eval.json", "export/model_binned.json", "export/bins.tsv"]
MODELS = {"model.json", "export/model_binned.json"}


def write_case(workload: str, seed: int, inputs: Path) -> None:
    """Write one workload's inputs, and its curve segments as JSON."""
    facts = write_inputs(WORKLOADS[workload], seed, inputs)
    (inputs / "segments.json").write_text(json.dumps(facts["segments"]))


def run_side(src: str, inputs: str, out: str, workload: str) -> None:
    """Run every verb of one workload with the package under `src` on the
    inputs `write_case` wrote to `inputs`; the outputs go to `out`."""
    sys.path.insert(0, src)
    from splinefm import cli

    if Path(cli.__file__).resolve().parent != (Path(src) / "splinefm").resolve():
        sys.exit(f"imported splinefm from {cli.__file__}, not from {src}")
    w = WORKLOADS[workload]
    inputs, out = Path(inputs), Path(out)
    segments = json.loads((inputs / "segments.json").read_text())

    def verb(argv) -> str:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            sys.exit(f"{argv[0]} exited {code}")
        return printed.getvalue()

    verb(["train", inputs / "config.yaml", "--output", out])
    (out / "eval.json").write_text(verb(["eval", out / "model.json", inputs / "test.csv"]))
    verb(["export-bins", out / "model.json", inputs / "export.yaml", "--output", out / "export"])
    lo, hi, points = w.curve_grid
    for i, segment in enumerate(segments):
        spec = ",".join(f"{k}={v}" for k, v in segment.items())
        verb(["curves", out / "model.json", w.curve_field, "--segment", spec,
              "--grid", f"{lo}:{hi}:{points}", "--output", out / f"curve{i}.tsv"])


def _curve(path: Path) -> list:
    lines = path.read_text().splitlines()
    return [lines[0]] + [[float(x) for x in line.split("\t")] for line in lines[1:]]


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


def compare(base: Path, head: Path) -> list:
    """What differs between the outputs of two sides, one line each."""
    diffs = [
        f"{name} ({model_gaps(base / name, head / name)})" if name in MODELS else name
        for name in EXACT
        if (base / name).read_bytes() != (head / name).read_bytes()
    ]
    base_curves = sorted(p.name for p in base.glob("curve*.tsv"))
    if base_curves != sorted(p.name for p in head.glob("curve*.tsv")):
        return diffs + ["the curve files"]
    for name in base_curves:
        a, b = _curve(base / name), _curve(head / name)
        if a[0] != b[0] or len(a) != len(b):
            diffs.append(f"{name}: header or length")
            continue
        worst = max((abs(x - y) for ra, rb in zip(a[1:], b[1:]) for x, y in zip(ra, rb)),
                    default=0.0)
        if not worst <= CURVE_TOLERANCE:
            diffs.append(f"{name}: differs by {worst:.3g}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="source directory holding the base splinefm package")
    parser.add_argument("head", help="source directory holding the changed splinefm package")
    parser.add_argument("--work", default=None, help="directory for inputs and outputs "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        work = Path(args.work or stack.enter_context(tempfile.TemporaryDirectory()))
        failed = False
        for name in sorted(WORKLOADS):
            for seed in SEEDS:
                case = work / f"{name}-{seed}"
                write_case(name, seed, case / "inputs")
                for side, src in (("base", args.base), ("head", args.head)):
                    subprocess.run(
                        [sys.executable, __file__, "--side", str(Path(src).resolve()),
                         str(case / "inputs"), str(case / side), name],
                        check=True,
                    )
                diffs = compare(case / "base", case / "head")
                failed |= bool(diffs)
                print(f"{name} seed {seed}: " + ("; ".join(diffs) or "identical"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--side"]:
        run_side(*sys.argv[2:])
    else:
        sys.exit(main())
