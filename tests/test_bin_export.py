import json

import numpy as np
import numpy.testing as npt
import pytest
from oracles import scalar_inverse

from splinefm.bin_export import export_binned, make_boundaries
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
    npt.assert_array_equal(
        make_boundaries(None, 0, "explicit", explicit=[0.0, 1.0, 5.0]),
        [0.0, 1.0, 5.0],
    )
    with pytest.raises(ConfigError):
        make_boundaries(None, 0, "explicit", explicit=[0.0, 1.0, 1.0])
    with pytest.raises(ConfigError):
        make_boundaries(None, 0, "explicit", explicit=[3.0])


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
    table = export.table()
    assert len(table) == 4
    lo, hi, mid, linear, *embed = table[0]
    assert (lo, hi, mid) == (0.0, 2.5, 1.25)
    assert len(embed) == model.interaction.embed_dim(1)


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
