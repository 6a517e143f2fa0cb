import re

import numpy as np
import numpy.testing as npt
import pytest
from oracles import binary_cat, entries, offsets

from splinefm.errors import ConfigError, DataError
from splinefm.schema import (
    BinnedNumerical,
    Categorical,
    ContinuousNumerical,
    DatasetSchema,
    build_schema,
    encode_row,
    infer_schema,
)
from splinefm.splines import build_uniform
from splinefm.transforms import AffineTransform


def assert_encoded_equal(a, b):
    """Two `encode_row` results hold the same arrays, bit for bit."""
    for got, want in zip(a, b, strict=True):
        assert len(got) == len(want)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def test_total_features_width_arithmetic():
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("b", binary_cat()),
            ("c", binary_cat()),
            (
                "z",
                ContinuousNumerical(AffineTransform(0, 1), build_uniform(9, 3)),
            ),
        ]
    )
    assert schema.total_features == 2 + 2 + 2 + 9


def test_unknown_slot_convention():
    rows = [{"color": c} for c in ["red", "blue", "green", "teal", "pink"]]
    schema = infer_schema(rows, {"fields": [{"name": "color", "kind": "categorical"}]})
    field = schema.fields[0]
    assert len(field.kind.vocabulary) == 5
    assert field.width == 6
    idx, val = encode_row(schema, {"color": "mauve"})
    assert idx[0].tolist() == [[field.kind.unknown_index]] and val[0].tolist() == [[1.0]]


@pytest.mark.parametrize("vocabulary", [{0: 0, 1: 1}, {"0": 0, 1: 1}, {None: 0}])
def test_categorical_vocabulary_keys_must_be_strings(vocabulary):
    # Cells are looked up as text, and a model file keeps its keys as text:
    # a key of another type would score one way here and another once loaded.
    with pytest.raises(ConfigError, match="must be a string"):
        Categorical(vocabulary)


def test_quantile_binning_matches_sort_oracle():
    rng = np.random.default_rng(0)
    values = rng.lognormal(size=5_000)  # skewed sample
    rows = [{"x": v} for v in values]
    schema = infer_schema(rows, {"fields": [{"name": "x", "kind": "binned", "bins": 12}]})
    expected = np.quantile(np.sort(values), np.linspace(0, 1, 13))
    npt.assert_allclose(schema.fields[0].kind.boundaries, expected, rtol=1e-12)


def test_infer_schema_errors():
    with pytest.raises(ConfigError):
        infer_schema([{"a": 1}], {"fields": [{"name": "missing", "kind": "binned", "bins": 3}]})
    with pytest.raises(DataError):
        infer_schema([], {"fields": [{"name": "a", "kind": "categorical"}]})


def test_infer_schema_of_columns_equals_infer_schema_of_row_dicts():
    rng = np.random.default_rng(4)

    def cells(values):
        # One cell in ten is missing ("" or None).
        return [rng.choice(["", None]) if rng.random() < 0.1 else repr(float(v)) for v in values]

    n = 300
    columns = {
        "open": [str(v) for v in rng.choice(["a", "b", "c"], n)],
        "closed": [str(v) for v in rng.choice(["x", "y"], n)],
        "binq": cells(rng.lognormal(size=n)),
        "binu": cells(rng.integers(0, 50, n)),
        "cq": cells(rng.normal(size=n)),
        "cm": cells(rng.random(n)),
        "unused": ["u"] * n,
    }
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    decls = [
        {"name": "open", "kind": "categorical"},
        {"name": "closed", "kind": "categorical", "unknown_slot": False},
        {"name": "binq", "kind": "binned", "bins": 5},
        {"name": "binu", "kind": "binned", "bins": 4, "binning": "uniform"},
        {"name": "cq", "kind": "continuous", "num_functions": 6, "resolution": 40},
        {"name": "cm", "kind": "continuous", "transform": "minmax"},
    ]
    for config in ({"fields": decls}, {"label_kind": "real"}):
        assert infer_schema(columns, config).to_dict() == infer_schema(rows, config).to_dict()
    for config, table in (({"fields": [{"name": "nope", "kind": "categorical"}]}, columns),
                          ({"fields": decls}, {"open": []})):
        with pytest.raises((ConfigError, DataError)) as want:
            infer_schema(rows if table is columns else [], config)
        with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
            infer_schema(table, config)
    # A mapping with no columns (a CSV file of labels only) does not say
    # how many rows it has, so it is no empty sample: as rows of no cells.
    assert infer_schema({}, {}) == infer_schema([{}], {})
    with pytest.raises(ConfigError, match="^declared field 'open' not found in the sample header$"):
        infer_schema({}, {"fields": decls})
    # Row dicts: the first row is the header; a later row without a cell
    # for a declared field is at fault, not the config.
    with pytest.raises(DataError, match="^column 'cq' of the schema is missing from the data$"):
        infer_schema(rows[:5] + [{k: v for k, v in rows[5].items() if k != "cq"}],
                     {"fields": decls})


def test_uniform_bins_over_a_range_of_a_few_ulps_is_data_error():
    # Distinct values whose range `np.linspace` cannot split into 4 strictly
    # increasing bins: the data is at fault, not the config.
    rows = [{"x": "1.0"}, {"x": "1.0000000000000002"}, {"x": "1.0"}]
    decl = {"name": "x", "kind": "binned", "bins": 4, "binning": "uniform"}
    with pytest.raises(DataError, match="field 'x': the range 1.0 to 1.0000000000000002"):
        infer_schema(rows, {"fields": [decl]})


def test_binned_interval_membership():
    kind = BinnedNumerical(np.array([0.0, 1.0, 2.0]))
    assert kind.bin_of(0.5) == 0
    assert kind.bin_of(1.0) == 1  # right-open convention at interior boundaries
    assert kind.bin_of(2.0) == 1  # last interval closed
    assert kind.bin_of(-3.0) == 0
    assert kind.bin_of(9.0) == 1
    # One rule for arrays, which `encode_columns` looks up: element by element
    # the cases above, on boundaries, below the first and above the last.
    points = [0.5, 1.0, 2.0, -3.0, 9.0, 0.0]
    assert kind.bin_of(np.array(points)).tolist() == [kind.bin_of(z) for z in points]
    assert kind.bin_of(np.array(points)).tolist() == [0, 1, 1, 0, 1, 0]


def test_continuous_entries_match_basis_eval():
    basis = build_uniform(8, 3)
    schema = build_schema(
        [("z", ContinuousNumerical(AffineTransform(0, 1), basis))]
    )
    idx, val = encode_row(schema, {"z": 0.3})
    assert idx[0].shape == val[0].shape == (1, 4)
    dense = np.zeros(8)
    for i, value, fid in entries(schema, {"z": 0.3}):
        assert fid == 0
        dense[i] = value
    npt.assert_array_equal(dense, basis.eval_many([0.3])[0])
    # The degree+1 active functions sit at their own indices, also on a
    # knot, where one of them is 0.0.
    for z in (0.3, float(basis.knots[5]), 1.0):
        first, values = basis.eval_sparse(z)
        idx, val = encode_row(schema, {"z": z})
        assert idx[0].tolist() == [list(range(first, first + 4))]
        assert val[0].tobytes() == values[None].tobytes()
    assert (basis.eval_sparse(float(basis.knots[5]))[1] == 0.0).any()


def test_row_invariants_and_determinism():
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(8, 3))),
            ("b", BinnedNumerical(np.array([0.0, 0.5, 1.0]))),
        ]
    )
    raw = {"a": "1", "z": 0.37, "b": 0.2}
    assert_encoded_equal(encode_row(schema, raw), encode_row(schema, raw))
    row = entries(schema, raw)
    indices = [e[0] for e in row]
    assert indices == sorted(set(indices))
    # Continuous field entries sum to 1 (partition of unity).
    z_sum = sum(v for _, v, fid in row if fid == 1)
    assert z_sum == pytest.approx(1.0, abs=1e-12)
    # Every entry lies in its own field's index range.
    for idx, _, fid in row:
        assert 0 <= idx - offsets(schema)[fid] < schema.fields[fid].width


def test_reduction_assignment():
    schema = build_schema(
        [
            ("a", binary_cat()),
            ("b", BinnedNumerical(np.array([0.0, 1.0]))),
            ("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(4, 3))),
        ]
    )
    assert [f.reduction for f in schema.fields] == ["identity", "identity", "sum"]


def test_missing_numerical_uses_median():
    schema = build_schema(
        [("z", ContinuousNumerical(AffineTransform(0, 10), build_uniform(8, 3)))]
    )
    assert_encoded_equal(encode_row(schema, {"z": ""}), encode_row(schema, {"z": 5.0}))


def test_unparseable_number_names_field():
    schema = build_schema(
        [("depth", ContinuousNumerical(AffineTransform(0, 1), build_uniform(4, 3)))]
    )
    with pytest.raises(DataError, match="depth"):
        encode_row(schema, {"depth": "not-a-number"})


@pytest.mark.parametrize(
    "raw, shown", [(np.float64("inf"), "inf"), (-np.inf, "-inf"), ("inf", "'inf'")]
)
def test_infinite_number_message_shows_a_plain_float(raw, shown):
    # A number reads as a float, a string as its quoted text.
    schema = build_schema(
        [("z", ContinuousNumerical(AffineTransform(0, 1), build_uniform(4, 3)))]
    )
    with pytest.raises(DataError) as exc:
        encode_row(schema, {"z": raw})
    assert str(exc.value) == f"field 'z': value {shown} is not finite"


def test_schema_serialization_round_trip():
    rows = [
        {"color": c, "x": x}
        for c, x in zip(["a", "b", "c", "a"], [0.1, 2.5, 3.0, 7.2])
    ]
    schema = infer_schema(
        rows,
        {
            "fields": [
                {"name": "color", "kind": "categorical"},
                {"name": "x", "kind": "continuous", "num_functions": 6, "resolution": 3},
            ]
        },
    )
    import json

    clone = DatasetSchema.from_dict(json.loads(json.dumps(schema.to_dict())))
    assert clone.total_features == schema.total_features
    raw = {"color": "b", "x": 2.9}
    assert_encoded_equal(encode_row(clone, raw), encode_row(schema, raw))
