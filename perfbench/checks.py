"""Correctness checks of one run's outputs.

Every check compares the program's output with the independent scorer
in `reference.py`, with the known truth of the generated data, or with a
property the method must have; none compares with a stored copy of an
earlier output. Each check returns a list of failure messages.
"""
from __future__ import annotations

import csv

import numpy as np

from reference import ReferenceModel, logloss
from workloads import paper_truth

# Two float64 computations of the same quantity in a different order
# agree to a few units in the last place; 1e-9 relative is far above
# that and far below any real change in the model's math.
ROUNDING = 1e-9

# paper_synth: how close a learned model must come to the known truth
# (see `paper_synth_quality`). Seeds 1..10 give at most 0.068 and 0.012;
# the limits leave room for other seeds and fail a model that learns
# markedly worse.
PAPER_CURVE_RMS = 0.10
PAPER_BAYES_MARGIN = 0.02


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= ROUNDING * np.maximum(1.0, np.abs(b)))
    )


def read_rows(path):
    """Raw rows (dicts of strings) and float labels of a CSV with `label`."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    labels = np.array([float(r.pop("label")) for r in rows])
    return rows, labels


def check_eval(ref: ReferenceModel, test_rows, test_y, cross_entropy: float) -> list:
    expected = logloss(ref.scores(test_rows), test_y)
    if not _close(cross_entropy, expected):
        return [f"eval cross_entropy {cross_entropy!r} != reference {expected!r}"]
    return []


def check_quality(test_y, cross_entropy: float) -> list:
    """The test loss beats the best constant predictor on the test rows."""
    rate = test_y.mean()
    base = -(rate * np.log(rate) + (1.0 - rate) * np.log(1.0 - rate))
    if not cross_entropy < base:
        return [f"test logloss {cross_entropy} does not beat base rate {base}"]
    return []


def check_requests(ref: ReferenceModel, requests, scores) -> list:
    return [
        f"request {i}: scores differ from the reference"
        for i, (rows, got) in enumerate(zip(requests, scores))
        if not _close(got, ref.scores(rows))
    ]


def check_export(ref: ReferenceModel, field: str, bins: int, tsv_path) -> list:
    """Each bin's embedding and linear term equal the reference reduced
    embedding at the bin's raw-space midpoint."""
    with open(tsv_path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        header = next(reader)
        table = np.array([[float(x) for x in row] for row in reader])
    failures = []
    if header[:4] != ["low", "high", "midpoint", "linear"] or len(table) != bins:
        return [f"bins.tsv has header {header[:4]} and {len(table)} rows, expected {bins}"]
    low, high, mid = table[:, 0], table[:, 1], table[:, 2]
    if not (np.all(low < high) and np.all(high[:-1] == low[1:])):
        failures.append("exported bins are not increasing and contiguous")
    if not _close(mid, 0.5 * (low + high)):
        failures.append("exported midpoints are not the bin centres")
    fid = ref.field_index(field)
    emb, lin = ref.reduced(fid, ref.basis_at(fid, ref.transform(fid, mid)))
    if not _close(table[:, 3], lin):
        failures.append("exported linear terms differ from the reference")
    if not _close(table[:, 4:], emb):
        failures.append("exported embeddings differ from the reference")
    return failures


def read_curve(tsv_path):
    with open(tsv_path, newline="") as fh:
        reader = csv.reader(fh, delimiter="\t")
        next(reader)
        return np.array([[float(x) for x in row] for row in reader]).T


def check_curve(ref: ReferenceModel, field: str, segment: dict, tsv_path) -> list:
    """Every curve point matches the reference scorer, and the curve lies
    in the span of the field's basis plus a constant (spanning property)."""
    z, score = read_curve(tsv_path)
    rows = [{**segment, field: repr(float(v))} for v in z]
    failures = []
    if not _close(score, ref.scores(rows)):
        failures.append(f"curve {segment} differs from the reference")
    fid = ref.field_index(field)
    design = np.column_stack([ref.basis_at(fid, ref.transform(fid, z)), np.ones(z.size)])
    coef, *_ = np.linalg.lstsq(design, score, rcond=None)
    residual = np.max(np.abs(design @ coef - score))
    if residual > ROUNDING * max(1.0, np.max(np.abs(score))):
        failures.append(f"curve {segment} leaves the basis span: residual {residual:.3g}")
    return failures


def check_packed(schema, packed) -> list:
    """Every packed continuous field sums to 1 per row (partition of unity)
    with at most degree + 1 nonzeros."""
    failures = []
    for f in schema.fields:
        if f.reduction != "sum":
            continue
        val = packed.val[f.field_id]
        nonzero = np.count_nonzero(val, axis=1)
        if not _close(val.sum(axis=1), np.ones(packed.n)):
            failures.append(f"packed field {f.name!r} does not sum to 1 per row")
        if np.any(nonzero > f.kind.basis.degree + 1) or np.any(nonzero == 0):
            failures.append(f"packed field {f.name!r} has a row with {nonzero.max()} nonzeros")
    return failures


def paper_synth_quality(curves, test_rows, test_p, test_y, test_logloss: float) -> dict:
    """Distance of the learned segment curves from the true ones, and the
    test loss's excess over the Bayes loss of the true probabilities.

    The distance is the RMS of (learned - true) click probability at
    z = 0..40, each (segment, z) weighted by its count in the test rows,
    so values the data rarely holds count little.
    """
    weight = np.zeros((len(curves), 41))
    for r in test_rows:
        segment = 4 * int(r["c0"]) + 2 * int(r["c1"]) + int(r["c2"])
        weight[segment, int(r["z"])] += 1.0
    squared = 0.0
    for segment, (z, score) in enumerate(curves):
        at = np.isclose(z, np.round(z))
        learned = 1.0 / (1.0 + np.exp(-score[at]))
        error = learned - paper_truth(segment, z[at])
        squared += np.sum(weight[segment, np.round(z[at]).astype(int)] * error ** 2)
    p = np.asarray(test_p)
    bayes = float(np.mean(-(test_y * np.log(p) + (1.0 - test_y) * np.log1p(-p))))
    return {
        "curve_rms": float(np.sqrt(squared / weight.sum())),
        "bayes_logloss": bayes,
        "excess_logloss": test_logloss - bayes,
    }


def check_paper_synth(quality: dict) -> list:
    failures = []
    if quality["curve_rms"] > PAPER_CURVE_RMS:
        failures.append(f"learned curves RMS {quality['curve_rms']:.4f} > {PAPER_CURVE_RMS}")
    if quality["excess_logloss"] > PAPER_BAYES_MARGIN:
        failures.append(
            f"test logloss exceeds Bayes by {quality['excess_logloss']:.4f} > {PAPER_BAYES_MARGIN}"
        )
    return failures
