import itertools
import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochmle import checks, projector
from blochmle.checks import (
    cubic_grid_residuals,
    equivariance_defect,
    lambda_monotonicity_ok,
    projection_optimality_defect,
    projection_orthogonality_defect,
    projection_residual_battery,
    shrinkage_ok,
)
from blochmle.core import CountRecord, InvalidInputError, norm_squared, temporal_estimate
from blochmle.projector import (
    _evaluate,
    cubic_solve,
    project_mle,
    projection_trajectory,
)

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])

# CUBIC_MU1_A05 is decimal_root(1.0, 0.5) below, rounded to a float.
CUBIC_MU1_A05 = 0.25865202250415276
LAMBDA_SYMMETRIC = 5.186175317511091

# (1,10,9)/(25,16,17): xi_hat = -(12, 3, 4)/13 has norm exactly 1, but its
# float norm^2 rounds to 1 + 2^-52 (summed in either order), so it is
# projected at a multiplier of about 7e15
ON_SPHERE = CountRecord((1, 10, 9), (25, 16, 17))
# (2,5,9)/(20,17,13) also has norm exactly 1, and its float norm^2 summed
# left to right rounds to exactly 1
ON_SPHERE_ROUNDED_TO_ONE = CountRecord((2, 5, 9), (20, 17, 13))


def decimal_root(mu, a):
    """Independent 60-digit reference for the root of x(1 - x^2) = mu(a - x)
    in [-1, 1], from ``decimal`` alone.  For a > 0 the root lies in [0, a],
    where f = x(1 - x^2) - mu(a - x) is concave with f(0) < 0 <= f(a):
    a few bisection steps narrow that bracket, then Newton steps from its
    lower end climb monotonically to the root (for a = 1 and mu < 2, where
    f(1) = 0 too, to the interior one).  The root is odd in a.  At a = 1,
    f factors as (1 - x)(x(1 + x) - mu), so the root is
    min(1, (sqrt(1 + 4 mu) - 1)/2) in closed form: at the double root
    mu = 2, f is flat to 60 digits near x = 1, and Newton's steps stall."""
    with localcontext() as ctx:
        ctx.prec = 60
        m, b = Decimal(mu), abs(Decimal(a))
        if b == 1:
            return min(Decimal(1), ((1 + 4 * m).sqrt() - 1) / 2).copy_sign(Decimal(a))
        f = lambda x: x * (1 - x * x) - m * (b - x)
        lo, hi = Decimal(0), b
        for _ in range(8):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        x = lo
        for _ in range(200):
            step = f(x) / (1 + m - 3 * x * x)
            x -= step
            if abs(step) <= abs(x) * Decimal("1e-50"):
                return x.copy_sign(Decimal(a))
    raise AssertionError(f"no 60-digit root for mu = {mu!r}, a = {a!r}")


def reference_projection(xi_hat, s, iterations=200):
    """Independent reference for the multiplier solve: plain bisection of the
    norm residual in log lam over the whole positive float range (weights
    at most 1).  Returns the multiplier found and the roots x_i there, or
    None when the residual is still below -1e-12 at the largest float, so
    that no float multiplier solves the constraint."""

    def roots(lam):
        return np.array([0.0 if lam * s_i == 0.0 else cubic_solve(lam * s_i, a_i) for s_i, a_i in zip(s, xi_hat)])

    def residual(lam):
        return float(np.sum(roots(lam) ** 2)) - 1.0

    if residual(sys.float_info.max) < -1e-12:
        return None
    lo, hi = math.log(5e-324), math.log(sys.float_info.max)
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if residual(math.exp(mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    return math.exp(hi), roots(math.exp(hi))


def rounding_spread(xi_hat, s, lam, x):
    """How far each x_i moves along the solution curve lam -> x(lam) while
    r = sum x_i^2 - 1 moves by 8 eps: the solver may stop anywhere r is at
    its rounding level, |r| <= 4 eps, and the reference places its sign
    change only to that rounding too.  No solver can place xi_star more
    closely than this.  It matters only where a small component carries
    most of dr/dlam, e.g. xi_hat = (0, 1, 1 - 2^-53) with weights
    (1e-300, 1e-300, 1), where x_2 = sqrt(1 - x_3^2) ~ 1.5e-8 is fixed by a
    difference that rounds to 0 or 2.2e-16."""
    mu = lam * s
    with np.errstate(divide="ignore", invalid="ignore"):
        dx_dmu = np.where(
            np.abs(xi_hat) == 1.0,
            np.sign(xi_hat) * np.where(mu < 2.0, 1.0 / (1.0 + 2.0 * np.abs(x)), 0.0),
            (xi_hat - x) / (1.0 + mu - 3.0 * x * x),
        )
        rate = np.abs(s * dx_dmu)
        rate /= np.max(rate)  # dx_i/dlam can be denormal for weights near 1e-300
        spread = 8.0 * np.finfo(float).eps * rate / np.sum(2.0 * np.abs(x) * rate)
    return np.nan_to_num(spread, nan=np.inf)


def assert_matches_reference(xi_hat, s):
    """project_mle agrees with ``reference_projection`` to 1e-10 (plus the
    ``rounding_spread`` of an ill-conditioned instance) and passes the
    residual gates, or refuses, naming the weights, exactly when no float
    multiplier exists."""
    expected = reference_projection(xi_hat, s)
    if expected is None:
        with pytest.raises(InvalidInputError, match="weights"):
            project_mle(xi_hat, s)
        return
    lam, x = expected
    res = project_mle(xi_hat, s)
    assert res.was_projected and res.residual_evaluations >= 1
    spread = rounding_spread(np.asarray(xi_hat), np.asarray(s), lam, x)
    assert np.all(np.abs(np.asarray(res.xi_star) - x) < 1e-10 + spread)
    assert res.norm_residual < 1e-10
    assert max(res.equation_residuals) < 1e-10


class TestCubicSolve:
    @pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, 1e-200])
    @pytest.mark.parametrize("mu", [1e-8, 7.3, 1e17])
    def test_zero_target(self, mu, a):
        # 27 mu^2 a^2 is 0 or negligible against the discriminant, so the
        # root is the linear limit mu a / (1 + mu): 0 with the sign of a at a = 0
        x = cubic_solve(mu, a)
        assert math.copysign(1.0, x) == math.copysign(1.0, a)
        assert x == pytest.approx(mu * a / (1.0 + mu), rel=1e-15, abs=0.0)

    def test_against_bisection_oracle(self):
        x = cubic_solve(1.0, 0.5)
        assert x == pytest.approx(CUBIC_MU1_A05, abs=1e-13)
        assert x == pytest.approx(0.2586, abs=1e-3)

    def test_discriminant_boundary(self):
        # mu = 2, |a| = 1: the double root of the cubic, at the kink, where
        # the factored |a| = 1 branch gives the root 1
        x = cubic_solve(2.0, 1.0)
        assert abs(x * (1.0 - x * x) - 2.0 * (1.0 - x)) < 1e-12

    def test_large_mu_limit(self):
        assert cubic_solve(1000.0, 0.7) == pytest.approx(0.7, abs=1e-3)

    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_pure_component_at_the_largest_mu(self, a):
        # the root is a itself for every mu >= 2; 4 mu overflows up here
        assert cubic_solve(sys.float_info.max, a) == a

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            cubic_solve(0.0, 0.5)
        with pytest.raises(InvalidInputError):
            cubic_solve(-1.0, 0.5)
        with pytest.raises(InvalidInputError):
            cubic_solve(1.0, 1.5)
        with pytest.raises(InvalidInputError, match="finite"):
            cubic_solve(math.inf, 0.5)
        # text, arrays and what float() refuses
        for mu, a in [("0.5", 0.3), (b"2", 0.5), (0.5, "0.3"), (np.array([0.5]), 0.3), (None, 0.3),
                      ([1], 0.3), (1j, 0.3), (10**400, 0.3), (10**5000, 0.3), (0.5, 10**5000),
                      ([10**5000], 0.3), (0.5, np.array([[0.3]])),
                      # numpy's complex was read with a ComplexWarning, dropping the imaginary part
                      (np.complex128(0.5 + 2j), 0.3), (0.5, np.complex64(0.3)), (np.array(0.5 + 0j), 0.3)]:
            with pytest.raises(InvalidInputError, match="real number") as caught:
                cubic_solve(mu, a)
            # no digits of a huge int: above 4300 of them, str() raises
            assert len(str(caught.value)) < 300
        # real numbers of other types are read as floats
        for mu, a in [(np.float64(0.5), 0.3), (np.array(0.5), np.float64(0.3)), (1, 0), (True, False),
                      (Fraction(1, 2), Decimal("0.3"))]:
            assert cubic_solve(mu, a) == cubic_solve(float(mu), float(a))

    @given(st.floats(1e-6, 1e6), st.floats(-1.0, 1.0))
    @settings(max_examples=300)
    def test_matches_oracle_and_shrinks(self, mu, a):
        x = cubic_solve(mu, a)
        assert x == pytest.approx(float(decimal_root(mu, a)), abs=1e-9)
        if a == 0.0:
            assert x == 0.0
        else:
            assert math.copysign(1.0, x) == math.copysign(1.0, a)
            assert abs(x) <= abs(a)

    def test_near_double_root_within_property_bound(self):
        # an input that test_matches_oracle_and_shrinks draws only now and
        # then, next to the double root, where a float bisection of f places
        # its sign change only to about 1e-9; the root to 60 digits is
        # 0.99999999139681056...
        mu, a = 2.0, 1.0 - 2.0**-53
        assert cubic_solve(mu, a) == pytest.approx(float(decimal_root(mu, a)), abs=1e-9)
        assert cubic_solve(mu, a) == pytest.approx(0.99999999139681056, abs=2.0**-52)

    @pytest.mark.parametrize("a", [1.0 - 2.0**-53, -(1.0 - 2.0**-53), 1.0 - 2.0**-50])
    def test_just_below_the_double_root(self, a):
        # mu a few ulp below 2: the closed form's radicand cancelled there
        # and left the root 9.5e-9 off (mu = 2.000122053303152 (1 - 2^-14),
        # a = 1 - 2^-53 gave 0.9999999959235184 for 0.99999998640340415)
        mu = 2.000122053303152 * (1.0 - 2.0**-14)
        assert cubic_solve(mu, a) == pytest.approx(float(decimal_root(mu, a)), abs=1e-15)

    def test_ulp_error_against_decimal_root(self):
        # seeded cases in four regimes, each bound at its worst error in ulps
        # of the 60-digit root as measured when the test was added: 2.627,
        # 1.685, 1.309 and 1.618
        rng = np.random.default_rng(61)
        n = 1000

        def sign():
            return float(rng.choice((-1.0, 1.0)))

        regimes = {
            "bulk": [(10.0 ** rng.uniform(-8.0, 20.0), rng.uniform(-1.0, 1.0)) for _ in range(n)],
            "near the double root": [
                (2.0 * (1.0 + sign() * 10.0 ** rng.uniform(-16.0, -3.0)), sign() * (1.0 - 10.0 ** rng.uniform(-15.9, -3.0)))
                for _ in range(n)
            ],
            "tiny |a|": [(10.0 ** rng.uniform(-8.0, 17.0), sign() * 10.0 ** rng.uniform(-300.0, -4.0)) for _ in range(n)],
            "pure axis below the kink": [(2.0 * rng.uniform(0.0, 1.0) ** 4, sign()) for _ in range(n)],
        }
        worst = {}
        for regime, cases in regimes.items():
            worst[regime] = 0.0
            for mu, a in cases:
                exact = decimal_root(mu, a)
                error = float(abs(Decimal(cubic_solve(mu, a)) - exact) / Decimal(math.ulp(float(exact))))
                worst[regime] = max(worst[regime], error)
        assert worst["bulk"] <= 2.63
        assert worst["near the double root"] <= 1.69
        assert worst["tiny |a|"] <= 1.31
        assert worst["pure axis below the kink"] <= 1.62

    def test_root_stays_inside_next_to_one(self):
        # cubic_solve has no clamp to [-1, 1] and _evaluate no branch for
        # D = 1 + mu - 3 x^2 <= 0.  Both rest on bounds that are tightest for
        # a within ulps of +-1: |x| <= |a|, and D at the computed root within
        # 1e-15 (1 + mu) of its exact value at the exact root, which is at
        # least sqrt(24 * 2^-53) = 5.16e-8 (mu = 2, a = 1 - 2^-53).  The ulp
        # bound is the worst error measured when the test was added, 1.525
        rng = np.random.default_rng(67)
        worst = 0.0
        for k in range(2000):
            sign = float(rng.choice((-1.0, 1.0)))
            a = sign * (1.0 - float(rng.choice([1, 2, 3, int(rng.integers(4, 2**20))])) * 2.0**-53)
            if k % 2:
                mu = 2.0 * (1.0 + float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-17.0, -2.0))
            else:
                mu = 10.0 ** rng.uniform(-18.0, 19.0)
            x = cubic_solve(mu, a)
            exact = decimal_root(mu, a)
            assert abs(x) <= abs(a)
            slope = 1 + Decimal(mu) - 3 * exact * exact
            assert slope > Decimal("5.16e-8")
            d = 1.0 + mu - 3.0 * x * x  # as _evaluate forms it
            assert abs(Decimal(d) - slope) <= Decimal("1e-15") * (1 + Decimal(mu))
            worst = max(worst, float(abs(Decimal(x) - exact) / Decimal(math.ulp(float(exact)))))
        assert worst <= 1.525

    def test_grid_residuals(self, gate_bound):
        assert cubic_grid_residuals() < gate_bound(cubic_grid_residuals)


class TestNormResidual:
    def test_small_lambda_limit(self):
        r = _evaluate(1e-9, EQUAL, np.array([0.8, 0.8, 0.8]))[0]
        assert r == pytest.approx(-1.0, abs=1e-6)

    def test_large_lambda_limit(self):
        r = _evaluate(1e6, EQUAL, np.array([0.8, 0.8, 0.8]))[0]
        assert r == pytest.approx(0.92, abs=1e-4)

    def test_zero_at_solution(self):
        xi = np.array([0.9, 0.8, 0.5])
        lam = project_mle(xi, EQUAL).lambda_star
        assert abs(_evaluate(lam, EQUAL, xi)[0]) < 1e-12


def assert_curvature_matches_central_difference(a, s, lam):
    slope, curvature = _evaluate(lam, s, a)[1:3]
    h = 1e-5 * lam
    central = (_evaluate(lam + h, s, a)[1] - _evaluate(lam - h, s, a)[1]) / (2.0 * h)
    # the difference of two slopes rounds on the scale of slope / lam
    assert abs(curvature - central) <= 1e-7 * (abs(curvature) + abs(slope) / lam)


class TestEvaluate:
    @pytest.mark.parametrize(
        "a, s, lam",
        [
            ((0.9, 1.0, 0.0), (0.3, 0.6, 0.1), 2.0),
            ((-1.0, 0.0, 0.7), (0.5, 0.25, 0.25), 3.9),
        ],
        ids=["at_+1_mu_1.2", "at_-1_mu_1.95"],
    )
    def test_curvature_below_a_kink_and_at_zero(self, a, s, lam):
        # one component at +-1 with mu_i below its kink 2, one at 0
        assert_curvature_matches_central_difference(a, s, lam)
        assert _evaluate(lam, s, a)[4][a.index(0.0)] == 0.0

    @pytest.mark.parametrize("lam", [6.0 * (1.0 + 2.0**-52), 1e300])
    def test_pure_axis_above_its_kink(self, lam):
        # mu_1 = lam / 3 just above the kink 2 and far above it: x_1 = a_1
        # exactly, so x_1 neither moves nor bends, and r is exactly 0
        assert _evaluate(lam, (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0)) == (0.0, 0.0, 0.0, 0.0, [1.0, 0.0, 0.0])

    def test_curvature_matches_central_difference(self):
        # every third instance has a component at +-1, with lam below its
        # kink 2/s_i; every fifth has one at 0
        rng = np.random.default_rng(47)
        for k in range(300):
            a = rng.uniform(-1.0, 1.0, 3)
            if k % 3 == 1:
                a[rng.integers(3)] = rng.choice([-1.0, 1.0])
            if k % 5 == 2:
                a[rng.integers(3)] = 0.0
            s = rng.dirichlet((1.0, 1.0, 1.0))
            pure = np.abs(a) == 1.0
            lam = rng.uniform(0.05, 1.9) / np.max(s[pure]) if np.any(pure) else 10.0 ** rng.uniform(-1.0, 2.0)
            assert_curvature_matches_central_difference(tuple(a), tuple(s), lam)


class TestSolveLambda:
    def test_symmetric_frozen_value(self):
        lam = project_mle(np.array([0.8, 0.8, 0.8]), EQUAL).lambda_star
        assert lam == pytest.approx(LAMBDA_SYMMETRIC, abs=1e-9)

    def test_positive_and_unique_sign_change(self, check_calls):
        lam = project_mle(np.array([0.9, 0.8, 0.5]), EQUAL).lambda_star
        assert lam > 0.0
        projections = check_calls("project_mle")
        assert lambda_monotonicity_ok(seed=17)
        assert len(projections) == 50

    @pytest.mark.parametrize(
        "residual",
        [lambda lam: -0.5, lambda lam: (math.log10(lam) + 5.5) * (math.log10(lam) + 5.0)],
        ids=["flat", "crosses_twice"],
    )
    def test_monotonicity_check_catches(self, residual, monkeypatch):
        monkeypatch.setattr(checks, "_evaluate", lambda lam, s, xi_hat: (residual(lam),))
        assert not lambda_monotonicity_ok(seed=17)


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

    def test_residual_battery(self, check_calls, gate_bound):
        projections = check_calls("project_mle")
        assert projection_residual_battery(seed=19) < gate_bound(projection_residual_battery)
        assert len(projections) == 1000
        assert shrinkage_ok(seed=19)
        # 1300 instances of the shared stream, then a second projection of
        # each of its last 300 that stays exterior with a component set to
        # 0: 141 of them at this seed
        assert len(projections) == 1000 + 1300 + 141
        assert all(0.0 in list(xi_hat) for xi_hat, _ in projections[2300:])

    @pytest.mark.parametrize(
        "distort",
        [lambda a, x: 1.5 * a, lambda a, x: -x, lambda a, x: x + 5e-324],
        ids=["grows", "flips_sign", "leaves_zero"],
    )
    def test_shrinkage_catches_a_component_that_grows_or_flips(self, monkeypatch, distort):
        # leaves_zero moves only a zero component, to the least subnormal
        def distorted(xi_hat, s):
            res = project_mle(xi_hat, s)
            return res._replace(xi_star=(distort(xi_hat[0], res.xi_star[0]), *res.xi_star[1:]))

        monkeypatch.setattr(checks, "project_mle", distorted)
        assert not shrinkage_ok(seed=19)

    def test_metric_orthogonality(self, check_calls, gate_bound):
        metrics = check_calls("fisher_metric")
        assert projection_orthogonality_defect(seed=23) < gate_bound(projection_orthogonality_defect)
        assert len(metrics) == 200

    def test_metric_orthogonality_catches_the_euclidean_projection(self, monkeypatch, gate_bound):
        # xi_hat / |xi_hat| is the nearest sphere point in the flat metric,
        # not the Fisher one: its correction step is not metric-normal
        def euclidean(xi_hat, s):
            return project_mle(xi_hat, s)._replace(xi_star=tuple(xi_hat / math.sqrt(norm_squared(xi_hat))))

        monkeypatch.setattr(checks, "project_mle", euclidean)
        assert projection_orthogonality_defect(seed=1) > gate_bound(projection_orthogonality_defect)

    def test_global_optimality(self, gate_bound):
        assert projection_optimality_defect(seed=29) < gate_bound(projection_optimality_defect)

    def test_equivariance(self, check_calls, gate_bound):
        projections = check_calls("project_mle")
        assert equivariance_defect(seed=31) < gate_bound(equivariance_defect)
        # the instance, its axis permutation and its sign flip
        assert len(projections) == 3 * 100

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

    def test_every_record_of_1_to_8_shots_per_axis(self, gate_bound):
        # the whole small-count domain: 44 (n_plus, n_minus) pairs per axis,
        # 85,184 records.  None raises; the worst residual measured is
        # 2.8e-13 and the most evaluations 5
        pairs = [(p, n - p) for n in range(1, 9) for p in range(n + 1)]
        projected = most_evaluations = 0
        worst = 0.0
        for (p1, m1), (p2, m2), (p3, m3) in itertools.product(pairs, repeat=3):
            res = project_mle(*temporal_estimate(CountRecord((p1, p2, p3), (m1, m2, m3))))
            if res.was_projected:
                projected += 1
                worst = max(worst, res.norm_residual, *res.equation_residuals)
                most_evaluations = max(most_evaluations, res.residual_evaluations)
        assert projected == 65448
        assert worst < gate_bound(projection_residual_battery)
        assert most_evaluations <= 5

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
        xi_hat, s_hat = temporal_estimate(ON_SPHERE)
        assert norm_squared(xi_hat) > 1.0
        res = project_mle(xi_hat, s_hat)
        assert res.norm_residual < 1e-10
        assert np.max(np.abs(np.asarray(res.xi_star) - xi_hat)) < 1e-12

    def test_float_vector_on_the_sphere_rounded_to_one(self):
        # norm^2 rounds to exactly 1: the point is its own MLE
        xi_hat, s_hat = temporal_estimate(ON_SPHERE_ROUNDED_TO_ONE)
        assert norm_squared(xi_hat) == 1.0
        res = project_mle(xi_hat, s_hat)
        assert not res.was_projected
        assert res.xi_star == xi_hat

    def test_residual_evaluations_count_every_evaluation(self, monkeypatch):
        # each evaluation of r(lam) is one cubic_solve per component, and the
        # projection reuses the roots of the accepted one
        calls = []
        real = projector.cubic_solve
        monkeypatch.setattr(projector, "cubic_solve", lambda mu, a: calls.append(mu) or real(mu, a))
        res = project_mle(*temporal_estimate(ON_SPHERE))
        assert res.residual_evaluations >= 1
        assert len(calls) == 3 * res.residual_evaluations
        calls.clear()
        interior = project_mle(np.array([0.6, 0.0, 0.3]), EQUAL)
        assert interior.residual_evaluations == 0 and calls == []

    @pytest.mark.parametrize(
        "xi_hat, s",
        [
            temporal_estimate(ON_SPHERE),
            # mu ~ 1e9: unscaled, one residual reads 1.9e-8
            (np.array([1.0, -1.0, 0.5]), np.array([1e-9, 1e-9, 1.0 - 2e-9])),
        ],
    )
    def test_equation_residuals_scaled_by_one_plus_mu(self, xi_hat, s):
        res = project_mle(xi_hat, s)
        x, mu = np.asarray(res.xi_star), res.lambda_star * np.asarray(s)
        expected = np.abs(x * (1.0 - x * x) - mu * (np.asarray(xi_hat) - x)) / (1.0 + mu)
        np.testing.assert_array_equal(res.equation_residuals, expected)
        assert max(res.equation_residuals) < 1e-10

    @pytest.mark.parametrize(
        "n_plus, n_minus",
        [((398, 41, 248), (0, 56, 253)), ((9, 117, 0), (13, 115, 94))],
    )
    def test_root_just_below_a_pure_axis_kink(self, n_plus, n_minus):
        # |xi_i| = 1 puts a kink in r(lam) at lam = 2/s_i, just above the
        # root; Newton steps that cross it with the slope of the other side
        # converge slowly, so the solve evaluates the kink first
        xi_hat, s_hat = temporal_estimate(CountRecord(n_plus, n_minus))
        res = project_mle(xi_hat, s_hat)
        assert res.residual_evaluations <= 6
        assert_matches_reference(xi_hat, s_hat)

    def test_nearest_kink_first(self):
        # kinks at lam = 2e75 and 2e300, both above the first Newton step's
        # start; the root is at the nearer one, where x_1 = 2e-225.  Past it
        # only x_1 moves, and r stays at rounding level up to x_1 ~ 1.5e-8.
        res = project_mle(np.array([1.0, 1.0, 7.765648718449669e-77]), np.array([1e-300, 1e-75, 1.0]))
        assert 0.0 < res.xi_star[0] < 1e-200
        np.testing.assert_allclose(res.xi_star[1:], [1.0, 7.765648718449669e-77], rtol=1e-15)
        assert res.residual_evaluations <= 3

    def test_no_evaluation_past_the_nearest_kink(self, monkeypatch):
        # r >= 0 from the nearest kink on, so the solve has no reason to look
        # above it; with two or three pure axes the farther kinks lie there
        rng = np.random.default_rng(59)
        evaluated = []
        real = projector._evaluate
        monkeypatch.setattr(projector, "_evaluate", lambda lam, *args: evaluated.append(lam) or real(lam, *args))
        for _ in range(2000):
            pure = rng.permutation(3)[: rng.integers(2, 4)]
            xi_hat = rng.choice([0.0, 1.0 - 2.0**-53, rng.uniform(-1.0, 1.0)], size=3)
            xi_hat[pure] = rng.choice([-1.0, 1.0], size=pure.size)
            s = 10.0 ** rng.uniform(-300.0, 0.0, 3)
            s /= s.sum()
            kink = min(2.0 / s[i] for i in pure)
            evaluated.clear()
            project_mle(xi_hat, s)
            assert evaluated and max(evaluated) <= kink, (xi_hat.tolist(), s.tolist())

    def test_near_kink_component(self):
        # 1 - xi_3 = 2^-53: not a kink, but r bends almost as sharply at
        # mu_3 ~ 2; Newton steps took 22 evaluations here.  Its accuracy is
        # an example of test_hard_weights_match_log_bisection.
        res = project_mle(np.array([0.0, 1.0, 1.0 - 2.0**-53]), np.array([1e-300, 2.0**-9, 1.0 - 2.0**-9]))
        assert res.residual_evaluations <= 12

    def test_mean_evaluations_on_exterior_estimates(self):
        # binomial counts of random pure states, 10 to 1000 shots per axis;
        # Newton steps averaged 4.52 evaluations on these
        rng = np.random.default_rng(41)
        evaluations = []
        while len(evaluations) < 500:
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            shots = rng.integers(10, 1001, size=3)
            n_plus = rng.binomial(shots, (1.0 + v) / 2.0)
            counts = CountRecord(tuple(int(k) for k in n_plus), tuple(int(k) for k in shots - n_plus))
            res = project_mle(*temporal_estimate(counts))
            if res.was_projected:
                evaluations.append(res.residual_evaluations)
        assert np.mean(evaluations) <= 3.5

    @pytest.mark.parametrize(
        "xi_hat, s, expected",
        [
            ((0.8, 0.8, 0.0), (1e-300, 0.5, 0.5), (0.6, 0.8, 0.0)),
            ((0.9, 0.9, 0.1), (1e-300, 1e-300, 1.0 - 2e-300), (0.99**0.5 / 2**0.5, 0.99**0.5 / 2**0.5, 0.1)),
        ],
    )
    def test_multiplier_near_the_float_limit(self, xi_hat, s, expected):
        # lam* ~ 1.9e300, near the top of the float range
        xi_hat, s = np.array(xi_hat), np.array(s)
        assert_matches_reference(xi_hat, s)
        np.testing.assert_allclose(project_mle(xi_hat, s).xi_star, expected, atol=1e-10)

    @pytest.mark.parametrize(
        "s, named",
        [
            ((5e-324, 0.5, 0.5), r"weights \[5e-324, 0.5, 0.5\]"),
            # weights may sum to 1 + 1e-12; lam * s_2 must not overflow on the way
            ((5e-324, 1.0 + 5e-13, 5e-324), r"weights \[5e-324, 1.0000000000005, 5e-324\]"),
        ],
    )
    def test_multiplier_beyond_the_float_range_is_refused(self, s, named):
        # the root needs lam ~ 1.92 / 5e-324 ~ 4e323: no float reaches it
        with pytest.raises(InvalidInputError, match=named):
            project_mle(np.array([0.8, 0.8, 0.0]), np.array(s))

    @pytest.mark.parametrize(
        "xi_hat, s",
        [
            ((-0.36041273041295524, -0.9284414649755014, 0.0899962519056646), (1.0, 1e-300, 1.56151604262679e-264)),
            ((0.0, 0.8498620051632402, 0.5270056419895414), (0.0007431239589749069, 1e-300, 0.9992568760410251)),
            ((-0.5760534281890545, -0.8174123129502006, 0.0), (1e-300, 0.7426381286631487, 0.25736187133685123)),
        ],
    )
    def test_stop_rule_survives_a_subnormal_slope(self, monkeypatch, xi_hat, s):
        # lam* ~ 1e306 gives r' and max |dx_i/dlam| near 1e-313, so the
        # product max |dx_i/dlam| * |r| underflows to 0 and, compared with
        # _ROOT_STEP_TOL * r', accepts the first evaluation at |r| ~ 3e-13
        accepted = []
        real = projector._evaluate
        monkeypatch.setattr(projector, "_evaluate", lambda *args: accepted.append(real(*args)) or accepted[-1])
        project_mle(xi_hat, s)
        r, slope, _, rate, _ = accepted[-1]
        assert abs(r) <= projector._RESIDUAL_FLOOR or (
            slope > 0.0 and abs(r) * (rate / slope) <= projector._ROOT_STEP_TOL
        )
        monkeypatch.undo()
        assert_matches_reference(np.array(xi_hat), np.array(s))

    @pytest.mark.parametrize(
        "xi_hat, s",
        [
            # r(float max) = -2.1e-14 and -2.7e-13: within tolerance, so the
            # largest float multiplier is the answer, not a refusal
            ((0.7952551834795566, 0.6062729913395765, 0.0015010399936480215), (1.0, 7.130925997049705e-281, 1e-300)),
            ((-0.007377353426788528, 0.0, -0.9999727869581019), (1.0, 1e-300, 1e-300)),
        ],
    )
    def test_answered_at_the_largest_float_multiplier(self, xi_hat, s):
        assert project_mle(xi_hat, s).lambda_star == sys.float_info.max
        assert_matches_reference(np.array(xi_hat), np.array(s))


class TestTrajectory:
    def test_endpoints(self):
        xi = np.array([0.9, 0.8, 0.5])
        curve = projection_trajectory(xi, EQUAL, 16)
        np.testing.assert_array_equal(curve[0], np.zeros(3))
        np.testing.assert_allclose(curve[-1], project_mle(xi, EQUAL).xi_star, atol=1e-10)

    def test_samples_at_numpy_linspace(self):
        xi, s = (0.9, 0.8, 0.5), (0.5, 0.3, 0.2)
        lam_star = project_mle(xi, s).lambda_star
        for n_samples in (2, 3, 16):
            lams = np.linspace(0.0, lam_star, n_samples).tolist()
            assert projection_trajectory(xi, s, n_samples) == tuple(tuple(_evaluate(lam, s, xi)[4]) for lam in lams)

    def test_plane_invariance(self):
        curve = projection_trajectory(np.array([0.9, 0.9, 0.0]), EQUAL, 25)
        assert [point[2] for point in curve] == [0.0] * 25

    def test_weight_at_the_smallest_double(self):
        # lam * s_3 underflows to 0 on the first samples, where the root is 0;
        # this used to raise "mu must be positive and finite, got 0.0"
        xi, s = (0.9, 0.9, 0.5), (0.5, 0.5, 5e-324)
        curve = projection_trajectory(xi, s, 32)
        np.testing.assert_allclose(curve[-1], project_mle(xi, s).xi_star, atol=1e-10)

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            projection_trajectory(np.array([0.5, 0.0, 0.0]), EQUAL, 10)
        with pytest.raises(InvalidInputError):
            projection_trajectory(np.array([0.9, 0.9, 0.0]), EQUAL, 1)
        # a count that is not an integer used to raise TypeError
        for n_samples in (3.0, "3", None):
            with pytest.raises(InvalidInputError, match="n_samples"):
                projection_trajectory(np.array([0.9, 0.9, 0.0]), EQUAL, n_samples)


def test_readme_library_snippet():
    # the python block of README's Library section runs as written, and its
    # comments state what it computes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(snippet, namespace)
    assert namespace["xi_hat"] == (0.8, 0.8, 0.8)
    assert max(abs(x - 1.0 / math.sqrt(3.0)) for x in namespace["result"].xi_star) < 1e-15


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


# Hard regions of the multiplier solve: weights down to 1e-300, components
# at exactly 0 and +-1, and points just outside the sphere, whose multiplier
# puts mu_i = lam s_i anywhere up to 1e18 and beyond.
components = st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))
small_weight = st.one_of(
    st.just(1e-300), st.floats(-300.0, -0.5).map(lambda e: 10.0**e), st.floats(1e-300, 0.3)
)
hard_weights = st.tuples(small_weight, small_weight, st.permutations(range(3))).map(
    lambda t: np.array([t[0], t[1], 1.0 - t[0] - t[1]])[list(t[2])]
)


def _just_outside(direction, log_excess):
    v = np.asarray(direction)
    return v / math.sqrt(norm_squared(v)) * (1.0 + 10.0**log_excess)


@given(
    st.lists(components, min_size=3, max_size=3).map(np.asarray).filter(lambda v: norm_squared(v) > 1.0),
    hard_weights,
)
# x_3 = 1 - 7.6e-6 near the cubic's double root, where 1 - x * x loses the
# digits that the root needs
@example(xi_hat=np.array([0.0, 1.0, 1.0 - 2.0**-53]), s=np.array([1e-300, 2.0**-9, 1.0 - 2.0**-9]))
# mu_2 a few ulp below 2, where the closed form's radicand cancelled and
# left x_2 9.5e-9 off: r jumped across 0 between adjacent floats of lam,
# and the solve refused the first and missed the second by 6.6e-9
@example(xi_hat=np.array([1.0, 1.0 - 2.0**-53, 0.0]), s=np.array([2.0**-14, 1.0 - 2.0**-14, 1e-300]))
@example(xi_hat=np.array([0.96875, 1.0 - 2.0**-53, 0.0]), s=np.array([2.0**-14, 1.0 - 2.0**-14, 1e-300]))
@settings(max_examples=150, deadline=None)
def test_hard_weights_match_log_bisection(xi_hat, s):
    assert_matches_reference(xi_hat, s)


@given(
    st.tuples(
        st.lists(components, min_size=3, max_size=3).filter(lambda v: norm_squared(v) > 0.0),
        st.floats(-16.0, -1.0),
    )
    .map(lambda t: _just_outside(*t))
    .filter(lambda v: np.all(np.abs(v) <= 1.0) and norm_squared(v) > 1.0),
    hard_weights,
)
# x_2 ~ 6e-5 carries all of dr/dlam, so |r| <= 1e-12 alone leaves it 3e-9 off
@example(xi_hat=_just_outside([0.0, 2.0**-14, 1.0], -10.0), s=np.array([1e-300, 1e-300, 1.0]))
@settings(max_examples=150, deadline=None)
def test_near_sphere_large_mu_match_log_bisection(xi_hat, s):
    assert_matches_reference(xi_hat, s)
