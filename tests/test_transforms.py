import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from splinefm.errors import ConfigError, DataError
from splinefm.transforms import AffineTransform, fit_quantile


def test_fit_uniform_ladder():
    t = fit_quantile([1, 2, 3, 4, 5], 4)
    npt.assert_array_equal(t.reference_points, [1, 2, 3, 4, 5])


def test_apply_median_and_interpolation():
    t = fit_quantile([1, 2, 3, 4, 5], 4)
    assert t.apply(3) == pytest.approx(0.5)
    assert t.apply(2.5) == pytest.approx(0.375)
    assert t.apply(1) == 0.0
    assert t.apply(5) == 1.0


def test_apply_clamps_out_of_range():
    t = fit_quantile([1, 2, 3, 4, 5], 4)
    assert t.apply(-100.0) == 0.0
    assert t.apply(100.0) == 1.0


def test_normal_sample_maps_to_uniform():
    rng = np.random.default_rng(0)
    t = fit_quantile(rng.standard_normal(10_000), 100)
    mapped = [t.apply(z) for z in rng.standard_normal(5_000)]
    stat = kstest(mapped, "uniform").statistic
    assert stat < 0.03


def test_degenerate_and_invalid_inputs():
    with pytest.raises(DataError):
        fit_quantile([7, 7, 7], 4)
    with pytest.raises(DataError):
        fit_quantile([], 4)
    with pytest.raises(DataError):
        fit_quantile([1.0, float("nan")], 4)
    with pytest.raises(ConfigError):
        fit_quantile([1, 2, 3], 0)


def test_inverse_endpoints_and_median():
    t = fit_quantile([1, 2, 3, 4, 5], 4)
    assert t.inverse(0.0) == 1.0
    assert t.inverse(0.5) == pytest.approx(3.0)
    with pytest.raises(ConfigError):
        t.inverse(1.5)


def test_round_trip_on_grid():
    rng = np.random.default_rng(1)
    t = fit_quantile(rng.lognormal(size=2_000), 50)
    for u in np.linspace(0.0, 1.0, 1001):
        assert abs(t.apply(t.inverse(u)) - u) < 1e-12


def test_duplicate_quantiles_collapse():
    # Heavy atom at 0 forces ties between consecutive quantiles.
    values = np.concatenate([np.zeros(900), np.arange(1, 101)])
    t = fit_quantile(values, 100)
    assert (np.diff(t.reference_points) > 0).all()
    assert t.resolution < 100
    assert t.apply(t.reference_points[0]) == 0.0
    assert t.apply(t.reference_points[-1]) == 1.0


def test_monotonicity():
    rng = np.random.default_rng(2)
    t = fit_quantile(rng.exponential(size=3_000), 200)
    zs = np.sort(rng.exponential(size=300))
    applied = [t.apply(z) for z in zs]
    assert (np.diff(applied) >= 0).all()
    us = np.linspace(0, 1, 300)
    inverted = [t.inverse(u) for u in us]
    assert (np.diff(inverted) >= 0).all()


@settings(max_examples=200, deadline=None)
@given(z=st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_property_apply_stays_in_unit_interval(z):
    t = fit_quantile([1, 2, 3, 4, 5], 4)
    assert 0.0 <= t.apply(z) <= 1.0


def test_affine_transform():
    t = AffineTransform(0.0, 40.0)
    assert t.apply(20.0) == 0.5
    assert t.apply(-5.0) == 0.0
    assert t.apply(50.0) == 1.0
    assert t.inverse(0.25) == 10.0
    with pytest.raises(ConfigError):
        AffineTransform(1.0, 1.0)


def test_serialization_round_trip_bit_exact():
    import json

    from splinefm.transforms import transform_from_dict

    rng = np.random.default_rng(3)
    t = fit_quantile(rng.standard_normal(5_000), 100)
    doc = json.loads(json.dumps(t.to_dict()))
    clone = transform_from_dict(doc)
    npt.assert_array_equal(clone.reference_points, t.reference_points)
    npt.assert_array_equal(clone.levels, t.levels)


@settings(max_examples=200, deadline=None)
@given(
    sample=st.lists(st.integers(min_value=-20, max_value=50), min_size=2, max_size=40).filter(
        lambda v: min(v) < max(v)
    ),
    resolution=st.integers(min_value=1, max_value=30),
    points=st.lists(st.floats(min_value=-100, max_value=100), max_size=30),
)
def test_property_apply_many_equals_apply_bitwise(sample, resolution, points):
    quantile = fit_quantile(sample, resolution)
    affine = AffineTransform(float(min(sample)), float(max(sample)))
    # Reference points and bounds exactly, plus -0.0 at the clamp.
    points = points + quantile.reference_points.tolist() + [-0.0, affine.low, affine.high]
    for t in (quantile, affine):
        batch = t.apply_many(points)
        single = np.array([t.apply(z) for z in points])
        npt.assert_array_equal(batch.view(np.uint64), single.view(np.uint64))


def test_apply_many_rejects_non_finite():
    for t in (fit_quantile([1, 2, 3], 2), AffineTransform(0.0, 1.0)):
        with pytest.raises(ConfigError):
            t.apply_many([0.5, float("inf")])
        with pytest.raises(ConfigError):
            t.apply_many([float("nan")])
