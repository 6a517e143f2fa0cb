"""Benchmark of splinefm driven the way its users drive it.

Usage (from the repository root):

    python3 perfbench/run.py --workload spline_ctr --seed 1 --seconds 30 --trace 0

Each run draws its inputs from the seed, writes them as CSV and YAML
files, runs one warm-up round, and then repeats whole rounds until
`--seconds` of rounds have been measured. A round is: the `train`, `eval`, `export-bins` and
`curves` verbs through `splinefm.cli.main`, a closed loop of scoring
requests (one client) through `pack` + `predict_scores` on a model
loaded once, and one cold set-up probe in a fresh interpreter. Slices of
a fixed calibration task (`hostspeed.py`) run between the operations, and
each round's timings are scaled by the host speed they show. Later
rounds must reproduce the first round's outputs exactly; after the last
round the outputs are checked against an independent scorer.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` — the end-to-end metrics with
`--trace 0`, the per-layer metrics of the traced run with `--trace 1`.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; probes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from reference import ReferenceModel  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
MIN_REQUESTS = 1_000  # measured requests, so that 10 samples lie beyond the p99
CHECKED_REQUESTS = 50
REQUEST_BLOCK = 20  # requests between two calibration slices


def _import_splinefm():
    """Import the package from this checkout's `src`, never from elsewhere."""
    if not (SRC / "splinefm" / "__init__.py").is_file():
        sys.exit(f"splinefm sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import splinefm
    from splinefm import cli, training

    if Path(splinefm.__file__).resolve().parent != (SRC / "splinefm").resolve():
        sys.exit(f"imported splinefm from {splinefm.__file__}, not from {SRC}")
    return splinefm, cli, training


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: inputs, rounds, checks and metrics."""

    def __init__(self, workload, seed: int, trace: bool, directory: Path):
        self.w = workload
        self.seed = seed
        self.splinefm, self.cli, self.training = _import_splinefm()
        self.tracer = Tracer() if trace else None
        self.inputs = write_inputs(workload, seed, directory)
        self.paths = self.inputs["paths"]
        self.model_path = self.paths["run"] / "model.json"
        self.export_dir = self.paths["run"] / "export"
        self.curve_paths = [
            self.paths["run"] / f"curve{i}.tsv" for i in range(workload.curve_segments)
        ]
        self.requests = self._read_requests()
        self.attempted = 0
        self.failed = 0
        self.failures = []  # failed checks against the reference and invariants
        self.quality_failures = []  # failed checks of model quality (size-dependent)
        self.calibration = hostspeed.Calibration()
        self.rounds = []  # per round: its wall time, calibration slices and operations
        self.slices = []  # this round's calibration slices, in seconds
        self.ops = []  # this round's (key, seconds as measured) per timed operation
        self.digests = None  # outputs of the first round
        self.cross_entropy = None  # printed by the first round's `eval`
        self.quality = None  # paper_synth only: distance from the truth
        self.model = None  # loaded once for scoring
        self.checked_scores = []  # the first round's scores of the checked requests
        # Traced runs only: what the wrapped calls returned this round, and
        # what is kept from it for the per-layer metrics.
        self.packed_this_round = []  # (schema, PackedData) per `pack` call
        self.trained_this_round = []  # (TrainConfig, PackedData, model) per `train` call
        self.entries = self.packed_rows = 0
        self.forward_epoch = []  # seconds of one forward pass over an epoch's rows
        self.fit = None  # (TrainConfig, PackedData, schema) of the last `train` call

    def _read_requests(self):
        grouped = {}
        with open(self.paths["requests"], newline="") as fh:
            for row in csv.DictReader(fh):
                grouped.setdefault(row.pop("request"), []).append(row)
        return list(grouped.values())

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    # -- operations -------------------------------------------------------------

    def _verb(self, key: str, argv) -> str:
        """Run one CLI verb in-process; returns its captured stdout."""
        out = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            with self._span(f"cli.{key}"):
                code = self.cli.main([str(a) for a in argv])
            self._op(key, time.perf_counter() - start)
        if code != 0:
            self.failed += 1
            _log(f"{key} exited {code}")
        return out.getvalue()

    def _calibrate(self) -> None:
        self.slices.append(self.calibration.slice_seconds())

    def _op(self, key: str, seconds: float) -> None:
        self.ops.append((key, seconds))

    def _score_requests(self) -> None:
        """Serve every request once, with a calibration slice before
        every `REQUEST_BLOCK` of them."""
        model, schema, training = self.model, self.model.schema, self.training
        for i, rows in enumerate(self.requests):
            if i % REQUEST_BLOCK == 0:
                self._calibrate()
            labels = np.zeros(len(rows))
            self.attempted += 1
            start = time.perf_counter()
            with self._span("score.request"):
                scores = training.predict_scores(model, training.pack(schema, rows, labels))
            self._op("request", time.perf_counter() - start)
            if self.digests is None and i < CHECKED_REQUESTS:
                self.checked_scores.append(scores)

    def _probe_setup(self) -> None:
        self.attempted += 1
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), str(SRC), str(self.model_path)],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            self.failed += 1
            _log(f"set-up probe failed: {done.stderr.strip()}")
            return
        self._op("setup", float(done.stdout.strip().splitlines()[-1]))

    # -- rounds -----------------------------------------------------------------

    def round(self) -> None:
        """One of each operation, with calibration slices between them;
        every round's requests form one block, so the run's latency
        samples spread over all its rounds."""
        w, p = self.w, self.paths
        self.slices, self.ops = [], []
        start = time.perf_counter()
        self._calibrate()
        self._verb("train", ["train", p["config"]])
        self._calibrate()
        if self.model is None:
            self.model = self.splinefm.load_model(self.model_path)
        out = self._verb("eval", ["eval", self.model_path, p["test"]])
        cross_entropy = json.loads(out)["cross_entropy"]
        self._score_requests()
        self._calibrate()
        self._verb("export", ["export-bins", self.model_path, p["export"],
                              "--output", self.export_dir])
        lo, hi, points = w.curve_grid
        for segment, path in zip(self.inputs["segments"], self.curve_paths):
            self._calibrate()
            spec = ",".join(f"{k}={v}" for k, v in segment.items())
            self._verb("curves", [
                "curves", self.model_path, w.curve_field, "--segment", spec,
                "--grid", f"{lo}:{hi}:{points}", "--output", path,
            ])
        self._calibrate()
        self._probe_setup()
        self._calibrate()
        self.rounds.append({"wall": time.perf_counter() - start,
                            "slices": self.slices, "ops": self.ops})
        self._check_round(cross_entropy)

    def _check_round(self, cross_entropy: float) -> None:
        """Later rounds must reproduce the first round's outputs exactly."""
        digests = {
            "cross_entropy": cross_entropy,
            "model": _sha256(self.model_path),
            "bins": _sha256(self.export_dir / "bins.tsv"),
            "curves": [_sha256(path) for path in self.curve_paths],
        }
        if self.tracer:
            self._check_trace_round()
        if self.digests is None:
            self.digests = digests
            self.cross_entropy = cross_entropy
        elif digests != self.digests:
            self.failures.append("a round's outputs differ from the first round's")

    def check_outputs(self) -> None:
        """Check the outputs against the reference scorer and the truth.

        Runs after the last round, so its memory stays out of peak RSS;
        the files still hold the first round's outputs, since every
        round reproduced them.
        """
        w = self.w
        ref = ReferenceModel.load(self.model_path)
        test_rows, test_y = checks.read_rows(self.paths["test"])
        found = checks.check_eval(ref, test_rows, test_y, self.cross_entropy)
        found += checks.check_requests(
            ref, self.requests[:CHECKED_REQUESTS], self.checked_scores
        )
        found += checks.check_export(ref, w.export_field, w.export_bins,
                                     self.export_dir / "bins.tsv")
        for segment, path in zip(self.inputs["segments"], self.curve_paths):
            found += checks.check_curve(ref, w.curve_field, segment, path)
        self.failures += found
        self.quality_failures += checks.check_quality(test_y, self.cross_entropy)
        if w.name == "paper_synth":
            self.quality = checks.paper_synth_quality(
                [checks.read_curve(path) for path in self.curve_paths],
                test_rows, self.inputs["test_p"], test_y, self.cross_entropy,
            )
            _log(f"paper_synth quality: {json.dumps(self.quality)}")
            self.quality_failures += checks.check_paper_synth(self.quality)

    def measure(self, seconds: float, min_requests: int = MIN_REQUESTS) -> None:
        """One warm-up round, then rounds until about `seconds` of them are
        measured (the last round is started only if half a typical round
        still fits) and at least `min_requests` requests have been served.

        The warm-up round pays the process's one-time costs (lazy imports,
        allocator growth, first page faults), which a long-lived user
        process pays once; its outputs are checked, its timings dropped.
        """
        self.round()
        _log(f"warm-up round: {self._summary(self.rounds[0])}")
        self.rounds.clear()
        if self.tracer:
            self.tracer.reset()
            self.entries = self.packed_rows = 0
            self.forward_epoch.clear()
        measured = requests = 0
        while (
            not self.rounds
            or requests < min_requests
            or measured + 0.5 * statistics.median(r["wall"] for r in self.rounds) < seconds
        ):
            self.round()
            measured += self.rounds[-1]["wall"]
            requests += len(self.requests)
            _log(f"round {len(self.rounds)}: {self._summary(self.rounds[-1])}")

    def _summary(self, r: dict) -> str:
        seconds = {k: round(v, 3) for k, v in self.round_seconds(r, False)[0].items()}
        return json.dumps({**seconds, "median_slice_ms": round(statistics.median(r["slices"]) * 1e3, 2)})

    # -- metrics ----------------------------------------------------------------

    @staticmethod
    def round_seconds(r: dict, scaled: bool) -> tuple[dict, dict]:
        """A round's seconds per operation key (summed) and per operation
        (listed); with `scaled`, scaled to the reference host speed by
        REFERENCE_SLICE_S / (the round's median calibration slice)."""
        scale = hostspeed.REFERENCE_SLICE_S / statistics.median(r["slices"]) if scaled else 1.0
        totals, each = {}, {}
        for key, seconds in r["ops"]:
            seconds *= scale
            totals[key] = totals.get(key, 0.0) + seconds
            each.setdefault(key, []).append(seconds)
        return totals, each

    def latencies_ms(self, scaled: bool = True) -> np.ndarray:
        """Every measured request's latency, in milliseconds."""
        return np.array([x for r in self.rounds
                         for x in self.round_seconds(r, scaled)[1]["request"]]) * 1e3

    def end_to_end(self, scaled: bool = True) -> dict:
        """Medians over the run's rounds (over all requests for latency)."""
        w = self.w
        rounds = [self.round_seconds(r, scaled) for r in self.rounds]

        def rate(work, key):
            return statistics.median(work / totals[key] for totals, _ in rounds)

        lat = self.latencies_ms(scaled)
        setup = [x for _, each in rounds for x in each.get("setup", [])]
        points = w.curve_grid[2] * w.curve_segments
        return {
            "setup_s": (statistics.median(setup), "s"),
            "train_rows_per_s": (rate(w.n_train, "train"), "rows/s"),
            "eval_rows_per_s": (rate(w.n_test, "eval"), "rows/s"),
            "export_bins_per_s": (rate(w.export_bins, "export"), "bins/s"),
            "curves_points_per_s": (rate(points, "curves"), "points/s"),
            "score_p50_ms": (float(np.percentile(lat, 50)), "ms"),
            "test_logloss": (self.cross_entropy, "nats"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    # -- tracing ----------------------------------------------------------------

    def instrument(self) -> None:
        """Wrap the package's public functions at each layer boundary."""
        from splinefm import model, splines, training, transforms

        cli, tr = self.cli, self.tracer

        def packed(attrs, args, result):
            attrs["rows"] = result.n
            self.packed_this_round.append((args[0], result))

        def trained(attrs, args, result):
            self.trained_this_round.append((args[0], args[3], result[0]))

        def count(key, of):
            def hook(attrs, args, result):
                attrs[key] = of(result)
            return hook

        tr.patch([cli], "infer_schema", "schema.infer_schema")
        tr.patch([cli, training], "pack", "training.pack", on_result=packed)
        tr.patch([cli], "train", "training.train", on_result=trained)
        self._predict = tr.patch([training], "predict_scores", "training.predict_scores",
                                 on_result=count("rows", len))
        tr.patch([cli, training], "evaluate", "training.evaluate")
        tr.patch([cli], "save_model", "model.save_model")
        tr.patch([cli], "load_model", "model.load_model")
        tr.patch([cli], "segmentized_curve", "model.segmentized_curve",
                 on_result=count("points", len))
        tr.patch([cli], "make_boundaries", "bin_export.make_boundaries")
        tr.patch([cli], "export_binned", "bin_export.export_binned",
                 on_result=count("bins", lambda r: r[1].num_bins))
        tr.patch([training, model], "encode_row", "schema.encode_row", leaf=True)
        tr.patch([splines.SplineBasis], "eval_sparse", "splines.eval_sparse", leaf=True)
        tr.patch([transforms.QuantileTransform], "apply", "transforms.apply", leaf=True)
        tr.patch([transforms.AffineTransform], "apply", "transforms.apply", leaf=True)

    def _check_trace_round(self) -> None:
        """Partition of unity of every packed continuous field, and one
        forward pass over the rows each `train` call saw (outside any span)."""
        for schema, packed in self.packed_this_round:
            self.failures += checks.check_packed(schema, packed)
            self.entries += sum(int(np.count_nonzero(v)) for v in packed.val)
            self.packed_rows += packed.n
        self.packed_this_round.clear()
        for config, data, model in self.trained_this_round:
            start = time.perf_counter()
            self._predict(model, data)
            forward = time.perf_counter() - start
            self.forward_epoch.append(forward * _fitted_rows(config, data) / data.n)
            self.fit = (config, data, model.schema)
        self.trained_this_round.clear()

    def per_layer(self) -> dict:
        tr = self.tracer
        med = statistics.median
        config, data, schema = self.fit
        n_fit = _fitted_rows(config, data)
        epoch = [s / config.epochs for s in tr.self_times("training.train")]
        eval_predict = tr.durations("training.predict_scores", under="cli.eval")
        return {
            "splines.eval_points_per_s": (tr.leaf_rate("splines.eval_sparse"), "points/s"),
            "transforms.apply_points_per_s": (tr.leaf_rate("transforms.apply"), "points/s"),
            "schema.infer_s": (med(tr.durations("schema.infer_schema")), "s"),
            "schema.encode_rows_per_s": (tr.leaf_rate("schema.encode_row"), "rows/s"),
            "schema.entries_per_row": (self.entries / self.packed_rows, "entries"),
            "training.pack_rows_per_s": (tr.rate("training.pack", "rows"), "rows/s"),
            "training.predict_rows_per_s": (
                len(eval_predict) * self.w.n_test / sum(eval_predict), "rows/s"),
            "training.train_epoch_s": (med(epoch), "s"),
            "training.backward_step_epoch_s": (
                med(e - f for e, f in zip(epoch, self.forward_epoch)), "s"),
            "training.touched_row_ratio": (
                touched_row_ratio(data, schema, config.batch_size, n_fit, self.seed), "ratio"),
            "training.batches_per_epoch": (math.ceil(n_fit / config.batch_size), "batches"),
            "model.save_s": (med(tr.durations("model.save_model", under="cli.train")), "s"),
            "model.load_s": (med(tr.durations("model.load_model")), "s"),
            "model.file_mb": (self.model_path.stat().st_size / 1e6, "MB"),
            "model.num_parameters": (self.model.num_parameters, "params"),
            "model.curve_points_per_s": (
                tr.rate("model.segmentized_curve", "points"), "points/s"),
            "bin_export.boundaries_s": (med(tr.durations("bin_export.make_boundaries")), "s"),
            "bin_export.export_bins_per_s": (
                tr.rate("bin_export.export_binned", "bins"), "bins/s"),
            "cli.train_self_s": (med(tr.self_times("cli.train")), "s"),
            "cli.eval_self_s": (med(tr.self_times("cli.eval")), "s"),
            "cli.export_self_s": (med(tr.self_times("cli.export")), "s"),
            "cli.curves_self_s": (med(tr.self_times("cli.curves")), "s"),
        }


def _fitted_rows(config, data) -> int:
    """Rows `train` fits on after setting its holdout aside."""
    return data.n - int(round(config.holdout_fraction * data.n))


def touched_row_ratio(data, schema, batch_size: int, n_fit: int, seed: int) -> float:
    """Distinct table rows a batch touches over the rows the optimizer
    updates per batch (every row of every table), averaged over the
    batches of one random epoch order of `n_fit` training rows."""
    order = np.random.default_rng([seed, 9]).permutation(data.n)[:n_fit]
    table_rows = schema.total_features
    touched = []
    for start in range(0, n_fit, batch_size):
        batch = order[start : start + batch_size]
        count = 0
        for f in schema.fields:
            idx, val = data.idx[f.field_id][batch], data.val[f.field_id][batch]
            count += np.unique(idx[val != 0.0]).size
        touched.append(count / table_rows)
    return float(np.mean(touched))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    directory = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(directory, ignore_errors=True)
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace), directory / "work")
    if run.tracer:
        run.instrument()
    try:
        run.measure(args.seconds)
    finally:
        if run.tracer:
            run.tracer.restore()
    metrics = run.end_to_end()
    unscaled = run.end_to_end(scaled=False)
    run.check_outputs()
    record = {
        "workload": args.workload, "seed": args.seed,
        "rounds": [{"wall": r["wall"], "seconds": run.round_seconds(r, False)[0],
                    "slices": r["slices"]} for r in run.rounds],
        "end_to_end": {k: v[0] for k, v in metrics.items()},
        "unscaled": {k: v[0] for k, v in unscaled.items()},
        # Too unsteady on a shared 2-vCPU machine to gate on; see README.
        "score_p99_ms": float(np.percentile(run.latencies_ms(), 99)),
        "requests": len(run.rounds) * len(run.requests),
    }
    if run.tracer:
        metrics = run.per_layer()
        record["per_layer"] = {k: v[0] for k, v in metrics.items()}
        run.tracer.write(directory / "trace.jsonl")
    if run.quality:
        record["paper_synth_quality"] = run.quality
    record["failures"] = run.failures + run.quality_failures
    shutil.rmtree(directory / "work")
    with open(directory / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    failures = run.failures + run.quality_failures
    for message in failures:
        _log(f"CHECK FAILED: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
