"""Quick tests of the benchmark itself: the reference scorer against
hand-computed cases, the host-speed scaling, and every workload end to
end at a tiny size.

Run from the repository root with:  python3 -m pytest perfbench -q
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hostspeed
import run
from reference import ReferenceModel, bspline_basis
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def test_cubic_basis_with_four_functions_at_midpoint():
    # One interval: the basis is the cubic Bernstein polynomials.
    np.testing.assert_allclose(
        bspline_basis([0.5], 4, 3)[0], [1 / 8, 3 / 8, 3 / 8, 1 / 8], rtol=0, atol=1e-15
    )


def test_basis_partition_of_unity_and_clamped_ends():
    u = np.linspace(0.0, 1.0, 101)
    B = bspline_basis(u, 9, 3)
    np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert (np.count_nonzero(B, axis=1) <= 4).all()
    np.testing.assert_array_equal(B[0], np.eye(9)[0])
    np.testing.assert_array_equal(B[-1], np.eye(9)[-1])


def test_basis_matches_scipy():
    interpolate = pytest.importorskip("scipy.interpolate")
    n, d = 7, 3
    knots = np.concatenate([np.zeros(d), np.linspace(0, 1, n - d + 1), np.ones(d)])
    u = np.linspace(0.0, 0.999, 57)
    expected = np.column_stack([
        interpolate.BSpline(knots, np.eye(n)[i], d)(u) for i in range(n)
    ])
    np.testing.assert_allclose(bspline_basis(u, n, d), expected, rtol=0, atol=1e-12)


def _two_field_doc(variant: dict, V_a, V_b) -> dict:
    return {
        "schema": {"label_kind": "binary", "fields": [
            {"name": "a", "kind": "categorical", "vocabulary": {"x": 0, "y": 1},
             "unknown_slot": True},
            {"name": "b", "kind": "continuous",
             "transform": {"kind": "affine", "low": 0.0, "high": 10.0},
             "basis": {"num_functions": 4, "degree": 3}},
        ]},
        "interaction": variant,
        "w0": -1.0,
        "w": [0.5, 0.25, 0.0, 8.0, 0.0, 0.0, 16.0],
        "V": [V_a, V_b],
    }


def test_two_field_fm_scored_by_hand():
    doc = _two_field_doc(
        {"variant": "fm", "dim": 2},
        V_a=[[0.0, 0.0], [1.0, 2.0], [9.0, 9.0]],
        V_b=[[8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [0.0, 0.0]],
    )
    # b = 5 -> u = 0.5 -> basis (1/8, 3/8, 3/8, 1/8); p_b = (1 + 3, 3 + 3).
    # linear: w_a[y] + 8/8 + 16/8 = 3.25; pair: (1, 2) . (4, 6) = 16.
    score = ReferenceModel(doc).scores([{"a": "y", "b": "5"}])
    assert score.tolist() == [-1.0 + 3.25 + 16.0]
    # An unseen category takes the unknown slot (9, 9): pair = 9 * 4 + 9 * 6.
    score = ReferenceModel(doc).scores([{"a": "zzz", "b": "5"}])
    assert score.tolist() == [-1.0 + 3.0 + 90.0]


def test_two_field_ffm_and_fwfm_scored_by_hand():
    V_a = [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]
    V_b = [[8.0, 0.0], [0.0, 8.0], [8.0, 8.0], [0.0, 0.0]]
    row = [{"a": "y", "b": "5"}]
    # FFM, block 1: a's block for b (index 1) against b's block for a (index 0).
    ffm = ReferenceModel(_two_field_doc(
        {"variant": "ffm", "num_fields": 2, "block_dim": 1}, V_a, V_b))
    assert ffm.scores(row).tolist() == [-1.0 + 3.25 + 2.0 * 4.0]
    fwfm = ReferenceModel(_two_field_doc(
        {"variant": "fwfm", "dim": 2, "learn": True, "strengths": [[1, 0.5], [0.5, 1]]},
        V_a, V_b))
    assert fwfm.scores(row).tolist() == [-1.0 + 3.25 + 0.5 * 16.0]


def _tiny(name):
    w = WORKLOADS[name]
    lo, hi, _ = w.curve_grid
    return dataclasses.replace(
        w, n_train=800, n_test=400, export_bins=40, curve_grid=(lo, hi, 41),
        requests_per_round=12, candidates=4,
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_checks_at_tiny_size(name, trace, tmp_path):
    bench = run.Run(_tiny(name), seed=3, trace=trace, directory=tmp_path)
    if trace:
        bench.instrument()
    try:
        bench.measure(0.0, min_requests=0)
    finally:
        if trace:
            bench.tracer.restore()
    metrics = bench.per_layer() if trace else bench.end_to_end()
    bench.check_outputs()
    assert bench.failed == 0
    assert bench.failures == []  # model-quality limits need full size
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert sorted(metrics) == sorted(names)
    for value, unit in metrics.values():
        assert math.isfinite(value) and value > 0


def test_round_timings_scale_by_the_median_slice():
    ref = hostspeed.REFERENCE_SLICE_S
    r = {"slices": [ref, 2 * ref, 4 * ref],
         "ops": [("train", 1.0), ("request", 0.25), ("request", 0.75)]}
    totals, each = run.Run.round_seconds(r, scaled=True)
    assert totals == pytest.approx({"train": 0.5, "request": 0.5})
    assert each["request"] == pytest.approx([0.125, 0.375])
    assert run.Run.round_seconds(r, scaled=False)[0] == {"train": 1.0, "request": 1.0}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_runs"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_synth", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
