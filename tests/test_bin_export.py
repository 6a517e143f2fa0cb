import csv
import dataclasses
import json
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from oracles import binary_cat, random_model, scalar_inverse, traced_peak

from splinefm.bin_export import export_binned, make_boundaries
from splinefm.cli import _write_export
from splinefm.errors import ConfigError
from splinefm.model import (
    init_params,
    load_model,
    make_interaction,
    model_from_dict,
    model_to_dict,
    predict_scores,
    save_model,
)
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    build_schema,
)
from splinefm.splines import build_uniform
from splinefm.training import pack
from splinefm.transforms import AffineTransform, QuantileTransform, fit_quantile


def scores(model, rows):
    """Raw scores of raw rows under the model's own schema."""
    return predict_scores(model, pack(model.schema, rows, np.zeros(len(rows))))


def make_model(seed=0, variant="fm", dim=3, num_functions=8, transform=None):
    transform = transform or AffineTransform(0.0, 10.0)
    schema = build_schema(
        [
            ("a", Categorical({"0": 0, "1": 1}, unknown_slot=False)),
            ("z", ContinuousNumerical(transform, build_uniform(num_functions, 3))),
        ]
    )
    model = init_params(schema, make_interaction(variant, schema, dim), seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.w0 = float(rng.normal())
    model.w = [rng.normal(size=f.width) for f in schema.fields]
    return model


# ---------------------------------------------------------------------------
# Boundary construction


def test_inverse_cdf_boundaries_affine_identity():
    npt.assert_allclose(
        make_boundaries(AffineTransform(0.0, 1.0), 4, "inverse_cdf"),
        [0.0, 0.25, 0.5, 0.75, 1.0],
        atol=1e-15,
    )


def test_inverse_cdf_boundaries_are_quantiles():
    ref = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    t = QuantileTransform(ref, np.linspace(0, 1, 5))
    b = make_boundaries(t, 4, "inverse_cdf")
    npt.assert_allclose(b, ref, atol=1e-12)


@pytest.mark.parametrize("transform", ["quantile", "affine"])
def test_inverse_cdf_boundaries_equal_per_point_inverse_bitwise(transform):
    sample = np.random.default_rng(8).lognormal(size=2_000)
    t = fit_quantile(sample, 500) if transform == "quantile" else AffineTransform(0.3, 7.1)
    b = make_boundaries(t, 2_000, "inverse_cdf")
    expected = np.array([scalar_inverse(t, j / 2_000) for j in range(2_001)])
    assert b.tobytes() == expected.tobytes()


def test_geometric_ladder_ratio_two():
    b = make_boundaries(AffineTransform(1.0, 256.0), 8, "geometric")
    npt.assert_allclose(b, [1, 2, 4, 8, 16, 32, 64, 128, 256], rtol=1e-12)


def test_geometric_requires_positive_domain():
    with pytest.raises(ConfigError):
        make_boundaries(AffineTransform(0.0, 10.0), 4, "geometric")


def test_explicit_boundaries_validated():
    # `export_binned` takes explicit boundaries as given and validates them
    # once; these cover the field's range [0, 10], so none warns.
    model = make_model()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, export = export_binned(model, "z", [0.0, 1.0, 10.0])
    npt.assert_array_equal(export.boundaries, [0.0, 1.0, 10.0])
    with pytest.raises(ConfigError, match="boundaries"):
        export_binned(model, "z", [0.0, 10.0, 10.0])
    with pytest.raises(ConfigError, match="boundaries"):
        export_binned(model, "z", [3.0])


def test_unknown_mode_and_bad_count():
    with pytest.raises(ConfigError):
        make_boundaries(AffineTransform(0, 1), 4, "log")
    with pytest.raises(ConfigError):
        make_boundaries(AffineTransform(0, 1), 0, "inverse_cdf")


# ---------------------------------------------------------------------------
# Export fidelity


@pytest.mark.parametrize("variant", ["fm", "ffm", "fwfm", "fmfm"])
def test_midpoint_scores_match_original(variant):
    model = make_model(seed=1, variant=variant)
    boundaries = make_boundaries(AffineTransform(0.0, 10.0), 12, "inverse_cdf")
    binned, export = export_binned(model, "z", boundaries)
    rows = [{"a": a, "z": float(mid)} for mid in export.midpoints for a in ("0", "1")]
    npt.assert_allclose(scores(binned, rows), scores(model, rows), rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["fm", "ffm", "fwfm", "fmfm"])
@pytest.mark.parametrize(
    "transform",
    [AffineTransform(0.0, 10.0), QuantileTransform(np.array([0.0, 1.0, 2.0, 4.0, 10.0]),
                                                   np.linspace(0.0, 1.0, 5))],
)
def test_export_rows_equal_per_midpoint_oracle_bitwise(variant, transform):
    model = make_model(seed=9, variant=variant, transform=transform)
    # Midpoints below 0 or above 10 clamp to the ends of the transform range.
    boundaries = [-30.0, -10.0, 0.5 * np.pi, 2.0, 5.0, 10.0, 25.0, 60.0]
    binned, export = export_binned(model, "z", boundaries)
    kind = model.schema.fields[1].kind
    for j, mid in enumerate(export.midpoints):
        basis = kind.basis.eval_many([kind.transform.apply(mid)])[0]
        assert export.bin_embeddings[j].tobytes() == (basis @ model.V[1]).tobytes()
        linear = basis @ model.w[1]
        assert float(export.bin_linear[j]).hex() == float(linear).hex()
    assert binned.V[1].tobytes() == export.bin_embeddings.tobytes()
    assert binned.w[1].tobytes() == export.bin_linear.tobytes()


def test_scores_constant_within_each_bin():
    model = make_model(seed=2)
    boundaries = np.array([0.0, 2.0, 5.0, 10.0])
    binned, _ = export_binned(model, "z", boundaries)
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        probes = np.linspace(lo, hi - 1e-9, 7)
        in_bin = scores(binned, [{"a": "1", "z": float(z)} for z in probes])
        npt.assert_allclose(in_bin, in_bin[0], atol=1e-12)


def test_discrepancy_shrinks_with_bin_count():
    model = make_model(seed=3, num_functions=10)
    rows = [{"a": "0", "z": float(z)} for z in np.linspace(0.0, 10.0, 2001)[:-1]]
    errors = []
    for num_bins in (10, 100, 1000):
        boundaries = make_boundaries(AffineTransform(0.0, 10.0), num_bins, "inverse_cdf")
        binned, _ = export_binned(model, "z", boundaries)
        errors.append(np.mean(np.abs(scores(model, rows) - scores(binned, rows))))
    assert errors[0] > errors[1] > errors[2]


def test_export_does_not_mutate_original():
    model = make_model(seed=4)
    before = [a.copy() for a in (*model.w, *model.V)]
    export_binned(model, "z", [0.0, 5.0, 10.0])
    for a, b in zip((*model.w, *model.V), before, strict=True):
        npt.assert_array_equal(a, b)
    assert isinstance(model.schema.fields[1].kind, ContinuousNumerical)


def test_exported_schema_and_table_shape():
    model = make_model(seed=5)
    binned, export = export_binned(model, "z", [0.0, 2.5, 5.0, 7.5, 10.0])
    assert isinstance(binned.schema.fields[1].kind, BinnedNumerical)
    assert binned.schema.total_features == 2 + 4
    assert export.num_bins == 4
    lines = export.lines()
    assert len(lines) == 4
    lo, hi, mid, linear, *embed = lines[0].split("\t")
    assert (lo, hi, mid) == ("0.0", "2.5", "1.25")
    assert linear == repr(float(export.bin_linear[0]))
    assert embed == [repr(v) for v in export.bin_embeddings[0].tolist()]
    assert len(embed) == model.interaction.width


def test_export_requires_continuous_field():
    model = make_model(seed=6)
    with pytest.raises(ConfigError):
        export_binned(model, "a", [0.0, 1.0])
    with pytest.raises(ConfigError):
        export_binned(model, "z", [5.0, 1.0])


def test_partial_coverage_warns():
    model = make_model(seed=7)
    with pytest.warns(UserWarning):
        export_binned(model, "z", [2.0, 5.0, 8.0])


def test_exported_model_serialization_round_trip(tmp_path):
    model = make_model(seed=8, variant="ffm", dim=2)
    binned, _ = export_binned(
        model, "z", make_boundaries(AffineTransform(0.0, 10.0), 6, "inverse_cdf")
    )
    path = tmp_path / "binned.json"
    save_model(binned, path)
    clone = load_model(path)
    rows = [{"a": "1", "z": 6.3}]
    s1 = scores(binned, rows)
    assert scores(clone, rows).tobytes() == s1.tobytes()
    # The JSON document itself round-trips through model_from_dict too.
    doc = json.loads(json.dumps(model_to_dict(binned)))
    clone2 = model_from_dict(doc)
    assert scores(clone2, rows).tobytes() == s1.tobytes()


# ---------------------------------------------------------------------------
# The export files against the generic writers


# Floats whose text is easy to get wrong: a signed zero, exponent forms,
# the least subnormal and the greatest finite double.
EDGE_VALUES = [-0.0, 1e-05, 1e16, 5e-324, 1.7976931348623157e308]


def export_case(variant, position, dim=3, num_bins=50, edge_values=True):
    """A random model with the continuous field "z" at `position` of three
    fields, exported to `num_bins` bins; with `edge_values`, the exported
    table and model hold `EDGE_VALUES` and their negatives instead."""
    fields = [("a", binary_cat()), ("b", Categorical({"p": 0, "q": 1, "r": 2}))]
    z = ("z", ContinuousNumerical(AffineTransform(-3.0, 7.0), build_uniform(9, 3)))
    schema = build_schema(fields[:position] + [z] + fields[position:])
    model = random_model(schema, variant, seed=position + 1, dim=dim)
    boundaries = make_boundaries(AffineTransform(-3.0, 7.0), num_bins, "inverse_cdf")
    exported, export = export_binned(model, "z", boundaries)
    if edge_values:
        values = EDGE_VALUES + [-v for v in EDGE_VALUES]
        emb = np.resize(values, export.bin_embeddings.shape)
        linear = np.resize(values[3:] + values[:3], export.bin_linear.shape)
        exported.V[export.field_id], exported.w[export.field_id] = emb.copy(), linear.copy()
        export = dataclasses.replace(export, bin_embeddings=emb, bin_linear=linear)
    return exported, export


def write_bins_with_csv(out, export):
    """`bins.tsv` through `csv.writer` over the rows as Python floats."""
    b, k = export.boundaries, export.bin_embeddings.shape[1]
    rows = np.column_stack(
        [b[:-1], b[1:], export.midpoints, export.bin_linear, export.bin_embeddings]
    ).tolist()
    with open(out / "bins.tsv", "w", newline="") as fh:
        writer = csv.writer(fh, delimiter="\t")
        writer.writerow(["low", "high", "midpoint", "linear"] + [f"e{i}" for i in range(k)])
        writer.writerows(rows)


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("variant, dim", [("fm", 3), ("ffm", 2), ("fwfm", 3), ("fmfm", 3),
                                          ("fm", 0)])
def test_export_files_match_the_generic_writers(tmp_path, variant, dim, position):
    exported, export = export_case(variant, position, dim)
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()
    _write_export(tmp_path / "new", exported, export)
    write_bins_with_csv(tmp_path / "old", export)
    with open(tmp_path / "old" / "model_binned.json", "w") as fh:
        json.dump(model_to_dict(exported), fh)
    for name in ("bins.tsv", "model_binned.json"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()
    text = (tmp_path / "new" / "bins.tsv").read_text()
    for value in EDGE_VALUES:
        assert f"\t{value!r}" in text and f"\t{-value!r}" in text
    npt.assert_array_equal(
        load_model(tmp_path / "new" / "model_binned.json").V[export.field_id],
        exported.V[export.field_id],
    )


def test_export_peak_memory_not_above_save_model_and_csv_writer(tmp_path):
    # About the size of a 2,000-bin export of a 36-wide FFM embedding.
    exported, export = export_case("ffm", 1, dim=12, num_bins=2_000, edge_values=False)
    (tmp_path / "new").mkdir()
    (tmp_path / "old").mkdir()

    def old():
        save_model(exported, tmp_path / "old" / "model_binned.json")
        write_bins_with_csv(tmp_path / "old", export)

    reference = traced_peak(old)
    peak = traced_peak(lambda: _write_export(tmp_path / "new", exported, export))
    assert peak <= reference, (peak, reference)
