import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochmle.checks import (
    cubic_grid_residuals,
    equivariance_defect,
    lambda_monotonicity_ok,
    projection_optimality_defect,
    projection_orthogonality_defect,
    projection_residual_battery,
)
from blochmle.core import CountRecord, InvalidInputError, norm_squared, temporal_estimate
from blochmle.projector import (
    _norm_residual,
    cubic_solve,
    project_mle,
    projection_trajectory,
    solve_lambda,
)

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])

# Frozen from the bisection oracle below.
CUBIC_MU1_A05 = 0.25865202250415276
LAMBDA_SYMMETRIC = 5.186175317511091


def bisect_root(mu, a, iterations=200):
    """Independent oracle: plain bisection of x(1-x^2) - mu(a-x) on [-1, 1]."""
    f = lambda x: x * (1.0 - x * x) - mu * (a - x)
    lo, hi = -1.0, 1.0
    assert f(lo) <= 0.0 <= f(hi)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestCubicSolve:
    def test_zero_target(self):
        assert cubic_solve(7.3, 0.0) == 0.0

    def test_against_bisection_oracle(self):
        x = cubic_solve(1.0, 0.5)
        assert x == pytest.approx(CUBIC_MU1_A05, abs=1e-13)
        assert x == pytest.approx(0.2586, abs=1e-3)

    def test_discriminant_boundary(self):
        # mu = 2, |a| = 1: the arctan radicand is exactly 0, root is 1
        x = cubic_solve(2.0, 1.0)
        assert abs(x * (1.0 - x * x) - 2.0 * (1.0 - x)) < 1e-12

    def test_large_mu_limit(self):
        assert cubic_solve(1000.0, 0.7) == pytest.approx(0.7, abs=1e-3)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            cubic_solve(0.0, 0.5)
        with pytest.raises(InvalidInputError):
            cubic_solve(-1.0, 0.5)
        with pytest.raises(InvalidInputError):
            cubic_solve(1.0, 1.5)

    @given(st.floats(1e-6, 1e6), st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_matches_oracle_and_shrinks(self, mu, a):
        x = cubic_solve(mu, a)
        assert x == pytest.approx(bisect_root(mu, a), abs=1e-9)
        if a == 0.0:
            assert x == 0.0
        else:
            assert math.copysign(1.0, x) == math.copysign(1.0, a)
            assert abs(x) <= abs(a)

    def test_grid_residuals(self):
        grid = cubic_grid_residuals()
        assert grid["max_scaled"] < 1e-12
        assert grid["max_abs_moderate"] < 1e-12


class TestNormResidual:
    def test_small_lambda_limit(self):
        r = _norm_residual(1e-9, EQUAL, np.array([0.8, 0.8, 0.8]))
        assert r == pytest.approx(-1.0, abs=1e-6)

    def test_large_lambda_limit(self):
        r = _norm_residual(1e6, EQUAL, np.array([0.8, 0.8, 0.8]))
        assert r == pytest.approx(0.92, abs=1e-4)

    def test_zero_at_solution(self):
        xi = np.array([0.9, 0.8, 0.5])
        lam = solve_lambda(EQUAL, xi)
        assert abs(_norm_residual(lam, EQUAL, xi)) < 1e-12


class TestSolveLambda:
    def test_symmetric_frozen_value(self):
        lam = solve_lambda(EQUAL, np.array([0.8, 0.8, 0.8]))
        assert lam == pytest.approx(LAMBDA_SYMMETRIC, abs=1e-9)

    def test_positive_and_unique_sign_change(self):
        lam = solve_lambda(EQUAL, np.array([0.9, 0.8, 0.5]))
        assert lam > 0.0
        assert lambda_monotonicity_ok(50, seed=17)

    def test_interior_rejected(self):
        with pytest.raises(InvalidInputError):
            solve_lambda(EQUAL, np.array([0.6, 0.0, 0.3]))


class TestProjectMle:
    def test_interior_untouched(self):
        res = project_mle(np.array([0.6, 0.0, 0.3]), np.array([0.2, 0.5, 0.3]))
        assert not res.was_projected
        assert res.lambda_star is None and res.equation_residuals is None
        np.testing.assert_array_equal(res.xi_star, [0.6, 0.0, 0.3])

    def test_unit_norm_untouched(self):
        res = project_mle(np.array([1.0, 0.0, 0.0]), EQUAL)
        assert not res.was_projected

    def test_symmetric_case(self):
        res = project_mle(np.array([0.8, 0.8, 0.8]), EQUAL)
        assert res.was_projected and res.lambda_star > 0.0
        np.testing.assert_allclose(res.xi_star, np.full(3, 1 / math.sqrt(3)), atol=1e-10)
        assert res.norm_residual < 1e-10
        assert max(res.equation_residuals) < 1e-10

    def test_zero_component_stays_zero(self):
        res = project_mle(np.array([1.0, 0.3, 0.0]), EQUAL)
        assert res.xi_star[2] == 0.0
        assert res.xi_star[0] > 0.0 and res.xi_star[1] > 0.0
        assert res.xi_star[0] ** 2 + res.xi_star[1] ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_residual_battery(self):
        battery = projection_residual_battery(1000, seed=19)
        assert battery["max_norm_residual"] < 1e-10
        assert battery["max_equation_residual"] < 1e-10
        assert battery["shrinkage_ok"]

    def test_metric_orthogonality(self):
        assert projection_orthogonality_defect(200, seed=23) < 1e-8

    def test_global_optimality(self):
        assert projection_optimality_defect(20, 200, seed=29) < 1e-12

    def test_equivariance(self):
        assert equivariance_defect(100, seed=31) < 1e-12

    def test_sign_flip_is_exact(self):
        xi = np.array([0.9, 0.8, 0.5])
        s = np.array([0.25, 0.5, 0.25])
        x = project_mle(xi, s).xi_star
        x_flip = project_mle(xi * np.array([1.0, -1.0, 1.0]), s).xi_star
        np.testing.assert_array_equal(x_flip, x * np.array([1.0, -1.0, 1.0]))

    def test_two_boundary_components_degenerate_case(self):
        # Extreme weights push one component toward the metric singularity;
        # the algebraic solution must still satisfy its defining equations.
        res = project_mle(np.array([1.0, 1.0, 0.0]), np.array([0.98, 0.01, 0.01]))
        assert res.was_projected
        assert res.norm_residual < 1e-10
        assert max(res.equation_residuals) < 1e-10

    @pytest.mark.parametrize(
        "n_plus, n_minus",
        [((37, 133, 468), (37, 135, 0)), ((171, 86, 86), (0, 85, 85))],
    )
    def test_pure_axis_counts(self, n_plus, n_minus):
        # one component at exactly +-1 with its multiplier near the double
        # root mu = 2 of the cubic
        xi_hat, s_hat = temporal_estimate(CountRecord(n_plus, n_minus))
        res = project_mle(xi_hat, s_hat)
        assert res.was_projected
        assert res.norm_residual < 1e-10
        assert max(res.equation_residuals) < 1e-10

    def test_float_vector_on_the_sphere(self):
        # norm exactly 1, but its float norm^2 rounds to 1 + 2.2e-16
        xi_hat, s_hat = temporal_estimate(CountRecord((2, 5, 9), (20, 17, 13)))
        assert norm_squared(xi_hat) > 1.0
        res = project_mle(xi_hat, s_hat)
        assert res.norm_residual < 1e-10
        assert np.max(np.abs(res.xi_star - xi_hat)) < 1e-12


class TestTrajectory:
    def test_endpoints(self):
        xi = np.array([0.9, 0.8, 0.5])
        curve = projection_trajectory(xi, EQUAL, 16)
        np.testing.assert_array_equal(curve[0], np.zeros(3))
        np.testing.assert_allclose(curve[-1], project_mle(xi, EQUAL).xi_star, atol=1e-10)

    def test_plane_invariance(self):
        curve = projection_trajectory(np.array([0.9, 0.9, 0.0]), EQUAL, 25)
        np.testing.assert_array_equal(curve[:, 2], np.zeros(25))

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            projection_trajectory(np.array([0.5, 0.0, 0.0]), EQUAL, 10)
        with pytest.raises(InvalidInputError):
            projection_trajectory(np.array([0.9, 0.9, 0.0]), EQUAL, 1)


exterior_points = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.asarray).filter(
    lambda v: norm_squared(v) > 1.0
)


@given(exterior_points)
@settings(max_examples=100, deadline=None)
def test_projection_properties(xi_hat):
    res = project_mle(xi_hat, EQUAL)
    assert res.was_projected
    assert abs(norm_squared(res.xi_star) - 1.0) < 1e-10
    for i in range(3):
        if xi_hat[i] == 0.0:
            assert res.xi_star[i] == 0.0
        else:
            assert math.copysign(1.0, res.xi_star[i]) == math.copysign(1.0, xi_hat[i])
            assert abs(res.xi_star[i]) <= abs(xi_hat[i])
