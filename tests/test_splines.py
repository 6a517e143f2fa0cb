import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import scalar_basis

from splinefm.errors import ConfigError
from splinefm.splines import build_uniform


def naive_cox_de_boor(knots, degree, i, z):
    """Textbook recurrence evaluated term by term (independent oracle)."""
    if degree == 0:
        # Half-open pieces, except the last non-empty span which closes at 1.
        if knots[i] <= z < knots[i + 1]:
            return 1.0
        if z == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    denom = knots[i + degree] - knots[i]
    if denom > 0.0:
        left = (z - knots[i]) / denom * naive_cox_de_boor(knots, degree - 1, i, z)
    right = 0.0
    denom = knots[i + degree + 1] - knots[i + 1]
    if denom > 0.0:
        right = (
            (knots[i + degree + 1] - z)
            / denom
            * naive_cox_de_boor(knots, degree - 1, i + 1, z)
        )
    return left + right


def oracle_eval(basis, z):
    return np.array(
        [
            naive_cox_de_boor(basis.knots, basis.degree, i, z)
            for i in range(basis.num_functions)
        ]
    )


def test_build_uniform_clamped_knot_layout():
    basis = build_uniform(8, 3)
    assert basis.num_functions - basis.degree == 5  # sub-intervals
    npt.assert_allclose(
        np.unique(basis.knots), [0, 0.2, 0.4, 0.6, 0.8, 1.0], atol=1e-15
    )
    assert (basis.knots[:4] == 0).all() and (basis.knots[-4:] == 1).all()


def test_build_uniform_minimal_is_bernstein():
    basis = build_uniform(4, 3)
    assert basis.num_functions - basis.degree == 1
    # Bernstein cubic at 0.5: (1/8, 3/8, 3/8, 1/8)
    npt.assert_allclose(basis.eval_many([0.5])[0], [0.125, 0.375, 0.375, 0.125], atol=1e-15)


def test_build_uniform_rejects_too_few_functions():
    with pytest.raises(ConfigError):
        build_uniform(3, 3)


def test_endpoint_interpolation():
    basis = build_uniform(8, 3)
    expected0 = np.zeros(8)
    expected0[0] = 1.0
    npt.assert_array_equal(basis.eval_many([0.0])[0], expected0)
    expected1 = np.zeros(8)
    expected1[-1] = 1.0
    npt.assert_array_equal(basis.eval_many([1.0])[0], expected1)


def test_eval_matches_naive_recursion_oracle():
    basis = build_uniform(8, 3)
    grid = np.linspace(0.0, 1.0, 1001)
    for z, row in zip(grid, basis.eval_many(grid)):
        npt.assert_allclose(row, oracle_eval(basis, z), atol=1e-12)


def test_eval_at_030_frozen_values():
    # Frozen from the naive recursion oracle for build_uniform(8, 3).
    basis = build_uniform(8, 3)
    values = basis.eval_many([0.3])[0]
    npt.assert_allclose(oracle_eval(basis, 0.3), values, atol=1e-15)
    npt.assert_allclose(
        values,
        [0.0, 0.03125, 0.46875, 0.47916666666666663, 0.020833333333333332, 0, 0, 0],
        atol=1e-12,
    )
    assert np.count_nonzero(values) == 4
    assert values.sum() == pytest.approx(1.0, abs=1e-12)


def test_eval_sparse_endpoint():
    basis = build_uniform(8, 3)
    first, values = basis.eval_sparse(0.0)
    assert first == 0
    npt.assert_array_equal(values, [1, 0, 0, 0])


def scattered(basis, first, values):
    """The dense rows of the sparse (first, values) rows of `eval_batch`."""
    out = np.zeros((first.size, basis.num_functions))
    for row, (f, v) in enumerate(zip(first, values)):
        out[row, f : f + basis.degree + 1] = v
    return out


def test_eval_sparse_reconstruction_bit_identical():
    basis = build_uniform(8, 3)
    grid = np.linspace(0.0, 1.0, 10_000)
    npt.assert_array_equal(scattered(basis, *basis.eval_batch(grid)), basis.eval_many(grid))


@pytest.mark.parametrize("ell", [4, 8, 9, 16])
def test_partition_of_unity_and_locality(ell):
    basis = build_uniform(ell, 3)
    rng = np.random.default_rng(42)
    _, values = basis.eval_batch(rng.random(10_000))
    assert (np.abs(values.sum(axis=1) - 1.0) < 1e-12).all()
    assert (values >= 0.0).all()
    assert (np.count_nonzero(values, axis=1) <= 4).all()


def test_cubic_continuity_on_fine_grid():
    basis = build_uniform(8, 3)
    grid = np.arange(0.0, 1.0 + 1e-6, 1e-6)[:200_001]  # covers [0, 0.2]
    vals = basis.eval_many(grid)
    assert np.max(np.abs(np.diff(vals, axis=0))) < 1e-4


def test_out_of_range_clamps():
    basis = build_uniform(8, 3)
    npt.assert_array_equal(basis.eval_many([-0.5, 1.5]), basis.eval_many([0.0, 1.0]))
    assert basis.eval_sparse(-0.5)[0] == 0 and basis.eval_sparse(1.5)[0] == 4
    with pytest.raises(ConfigError):
        basis.eval_sparse(float("nan"))


@settings(max_examples=200, deadline=None)
@given(
    z=st.floats(min_value=0.0, max_value=1.0),
    ell=st.integers(min_value=4, max_value=20),
)
def test_property_partition_and_nonnegativity(z, ell):
    basis = build_uniform(ell, 3)
    values = basis.eval_many([z])[0]
    assert (values >= 0.0).all()
    assert abs(values.sum() - 1.0) < 1e-12


def test_serialization_reconstructs_knots():
    from splinefm.splines import SplineBasis

    basis = build_uniform(9, 3)
    clone = SplineBasis.from_dict(basis.to_dict())
    npt.assert_array_equal(clone.knots, basis.knots)


# ---------------------------------------------------------------------------
# Batched evaluation


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@settings(max_examples=300, deadline=None)
@given(
    degree=st.integers(min_value=0, max_value=3),
    extra=st.integers(min_value=0, max_value=12),
    points=st.lists(
        st.one_of(
            st.floats(min_value=-0.5, max_value=1.5),
            st.sampled_from([0.0, -0.0, 1.0, -1e-300, 1.0 + 1e-15, 5e-324]),
        ),
        max_size=40,
    ),
)
def test_property_eval_batch_equals_eval_sparse_bitwise(degree, extra, points):
    # The reference is `oracles.scalar_basis`, one Python float at a time.
    basis = build_uniform(degree + 1 + extra, degree)
    # Every break-point, so points exactly on knots are always covered.
    points = points + np.unique(basis.knots).tolist()
    first, values = basis.eval_batch(points)
    assert first.shape == (len(points),)
    assert values.shape == (len(points), degree + 1)
    for z, f, v in zip(points, first, values):
        f_ref, v_ref = scalar_basis(basis, z)
        assert f == f_ref
        npt.assert_array_equal(bits(v), bits(v_ref))


def test_eval_batch_empty_and_non_finite():
    basis = build_uniform(8, 3)
    first, values = basis.eval_batch([])
    assert first.shape == (0,) and values.shape == (0, 4)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ConfigError):
            basis.eval_batch([0.5, bad])
        with pytest.raises(ConfigError):
            basis.eval_many([bad])


def test_eval_many_rows_equal_dense_eval():
    basis = build_uniform(9, 2)
    grid = np.concatenate([np.linspace(-0.1, 1.1, 257), np.unique(basis.knots)])
    dense = basis.eval_many(grid)
    npt.assert_array_equal(bits(dense), bits(scattered(basis, *basis.eval_batch(grid))))
