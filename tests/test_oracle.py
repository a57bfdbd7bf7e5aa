import math

import numpy as np
import pytest

from blochmle import core, oracle
from blochmle.checks import exterior_point, random_weights
from blochmle.core import CountRecord, InvalidInputError, empirical_kl, stokes_vector, temporal_estimate
from blochmle.oracle import oracle_mle
from blochmle.projector import project_mle

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])

# Counts on which earlier direct searches missed the projection: a
# window-refined angle grid by 1.0e-4 and 6.0e-3 (the first two), a Newton
# polish on the sphere without safeguards by 1.5e-2 (the third).  Each has
# an axis without outcomes of one sign, so a component of xi_hat at +-1,
# except the third.
HARD_RECORDS = [
    CountRecord((524, 51, 0), (527, 50, 141)),
    CountRecord((8, 557, 2), (0, 2291, 1)),
    CountRecord((137005, 1206, 12729), (123, 1064, 13645)),
]


def negative_log_likelihood(xi, counts: CountRecord) -> float:
    """-sum_i [n+_i log((1+xi_i)/2) + n-_i log((1-xi_i)/2)].

    Minimizing this over the Bloch ball is the same problem as minimizing
    the empirical KL objective built from ``temporal_estimate``; the two
    differ by a state-independent constant and the total shot count.
    """
    xi = stokes_vector(xi)
    total = 0.0
    for i in range(3):
        if counts.n_plus[i] > 0:
            if xi[i] <= -1.0:
                raise InvalidInputError(f"axis {i + 1}: xi = -1 has zero likelihood for n_plus > 0")
            total -= counts.n_plus[i] * math.log((1.0 + xi[i]) / 2.0)
        if counts.n_minus[i] > 0:
            if xi[i] >= 1.0:
                raise InvalidInputError(f"axis {i + 1}: xi = +1 has zero likelihood for n_minus > 0")
            total -= counts.n_minus[i] * math.log((1.0 - xi[i]) / 2.0)
    return total


def test_interior_returned_unchanged():
    xi = np.array([0.3, -0.1, 0.2])
    np.testing.assert_array_equal(oracle_mle(xi, EQUAL), xi)


def test_symmetric_case():
    x = oracle_mle(np.array([0.8, 0.8, 0.8]), EQUAL)
    np.testing.assert_allclose(x, np.full(3, 1 / math.sqrt(3)), atol=1e-5)


def test_agreement_with_projector_equal_weights():
    xi = np.array([0.9, 0.8, 0.5])
    gap = np.max(np.abs(oracle_mle(xi, EQUAL) - project_mle(xi, EQUAL).xi_star))
    assert gap < 1e-4


def test_agreement_with_projector_weighted():
    xi = np.array([0.9, 0.8, 0.5])
    s = np.array([0.25, 0.5, 0.25])
    weighted = oracle_mle(xi, s)
    gap = np.max(np.abs(weighted - project_mle(xi, s).xi_star))
    assert gap < 1e-4
    # unequal weights must actually move the answer
    equal_answer = oracle_mle(xi, EQUAL)
    assert np.max(np.abs(weighted - equal_answer)) > 1e-3


@pytest.mark.parametrize(
    "xi_hat, s",
    [
        *(temporal_estimate(counts) for counts in HARD_RECORDS),
        ((1.0, 0.3, 0.0), tuple(EQUAL)),
        ((-1.0, 1.0, 0.3), (0.2, 0.3, 0.5)),
        ((1.0, 1.0, 1.0), (0.2, 0.3, 0.5)),
    ],
    ids=["gap_1e-4", "gap_6e-3", "unsafeguarded_newton", "component_at_1", "components_at_-1_and_1", "corner"],
)
def test_polished_agreement_with_projector(xi_hat, s):
    direct = oracle_mle(xi_hat, s)
    assert isinstance(direct, np.ndarray) and direct.shape == (3,)
    assert np.max(np.abs(direct - project_mle(xi_hat, s).xi_star)) < 1e-12


def uneven_weights(rng, floor):
    """Three weights drawn log-uniform in [floor, 1], then normalised."""
    w = 10.0 ** rng.uniform(math.log10(floor), 0.0, 3)
    return w / w.sum()


def term_size(xi_hat, s, point):
    """sum_i s_i p (|log p| + |log q|) over the objective's terms with p > 0:
    the scale of the rounding in a sum of those terms."""
    return sum(
        w * p * (abs(math.log(p)) + abs(math.log(q)))
        for a, w, x in zip(xi_hat, s, point)
        for p, q in (((1.0 + a) / 2.0, (1.0 + x) / 2.0), ((1.0 - a) / 2.0, (1.0 - x) / 2.0))
        if p > 0.0
    )


def test_objective_no_higher_than_projector():
    # the objective is convex, so the oracle's point is no worse than the
    # projector's, up to 4 ulps of the size of the terms (the rounding of
    # the sum).  The projector's point is scaled onto the sphere first: it
    # can lie 1e-13 outside the ball, where the objective is lower.
    rng = np.random.default_rng(47)
    eps = np.finfo(float).eps
    cases = [temporal_estimate(counts) for counts in HARD_RECORDS]
    while len(cases) < 30:
        xi = rng.uniform(-1.0, 1.0, 3)
        if np.dot(xi, xi) > 1.0:
            w = 10.0 ** rng.uniform(-6.0, 0.0, 3)
            cases.append((xi, w / w.sum()))
    for xi_hat, s in cases:
        xi_hat, s = np.array(xi_hat), np.array(s)
        x = np.array(project_mle(xi_hat, s).xi_star)
        x /= np.linalg.norm(x)
        allowance = 4.0 * eps * term_size(xi_hat, s, x)
        assert empirical_kl(xi_hat, s, oracle_mle(xi_hat, s)) <= empirical_kl(xi_hat, s, x) + allowance


def test_objective_evaluations_go_through_empirical_kl(monkeypatch):
    # the module-level empirical_kl is the one place the objective is
    # evaluated, one point per call, and it is core's, the function the
    # report sums.  The traced benchmark wraps it to count the evaluations
    # inside each oracle_mle span, and finds no oracle span to read if an
    # exterior search makes none.
    assert oracle.empirical_kl is core.empirical_kl
    cases = [temporal_estimate(counts) for counts in HARD_RECORDS] + [((0.9, 0.8, 0.5), tuple(EQUAL))]
    expected = [oracle_mle(xi_hat, s).tobytes() for xi_hat, s in cases]
    shapes = []

    def counted(xi_hat, s, xi):
        shapes.append(np.shape(xi))
        return empirical_kl(xi_hat, s, xi)

    monkeypatch.setattr(oracle, "empirical_kl", counted)
    for (xi_hat, s), answer in zip(cases, expected):
        before = len(shapes)
        assert oracle_mle(xi_hat, s).tobytes() == answer
        assert len(shapes) > before
    assert set(shapes) == {(3,)}


def test_objective_without_descent_takes_the_fault_exit(monkeypatch):
    # an objective that is finite only at the start point: every line search
    # halves 60 times without a decrease and leaves its stage by the fault
    # exit, and the KKT solve, singular at x = 0, stops at once, so the
    # search returns the origin, without a warning
    calls = []

    def flat_only_at_the_origin(xi_hat, s, xi):
        calls.append(tuple(xi))
        return 0.0 if not any(xi) else math.inf

    monkeypatch.setattr(oracle, "empirical_kl", flat_only_at_the_origin)
    assert oracle_mle((0.9, 0.8, 0.5), tuple(EQUAL)).tolist() == [0.0, 0.0, 0.0]
    assert len(calls) == 533 and calls[0] == (0.0, 0.0, 0.0)


def test_uneven_weights_instance():
    # one weight near 1, two near 1e-9: a sphere search along the valley
    # the heavy axis leaves once stopped 0.444 from the projector here
    xi_hat, s = (0.4645, -0.4027, 0.8376), (1 - 9.9e-9, 1.6e-9, 8.3e-9)
    assert np.max(np.abs(oracle_mle(xi_hat, s) - project_mle(xi_hat, s).xi_star)) < 1e-12


def test_uneven_weights_battery():
    # weights down to 1e-9, the floor of the domain the module docstring
    # states; an angle scan with a sphere polish missed about 1% of these
    # by more than 1e-4
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(300):
        xi, w = exterior_point(rng), uneven_weights(rng, 1e-9)
        worst = max(worst, np.max(np.abs(oracle_mle(xi, w) - project_mle(xi, w).xi_star)))
    assert worst < 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_weights_and_poles_stay_finite():
    # below that floor the light axes are flat to rounding and agreement is
    # not asserted, but every answer is finite and in [-1, 1]^3, and no
    # division or NaN warning is raised on the way; components at +-1 put
    # the iterates next to the poles where a p_hat = 0 term must drop out
    rng = np.random.default_rng(67)
    for _ in range(200):
        xi = exterior_point(rng)
        xi = np.where(rng.random(3) < 0.4, np.sign(xi), xi)
        x = oracle_mle(xi, uneven_weights(rng, 1e-300))
        assert x.shape == (3,) and np.all(np.isfinite(x)) and np.all(np.abs(x) <= 1.0)


def test_boundary_empirical_component():
    # xi_hat with a +-1 entry exercises the 0 log 0 convention
    x = oracle_mle(np.array([1.0, 0.3, 0.0]), EQUAL)
    gap = np.max(np.abs(x - project_mle(np.array([1.0, 0.3, 0.0]), EQUAL).xi_star))
    assert gap < 1e-4


class TestNegativeLogLikelihood:
    def test_interior_minimizer_is_empirical(self):
        counts = CountRecord((80, 50, 65), (20, 50, 35))
        xi_hat, _ = temporal_estimate(counts)
        base = negative_log_likelihood(xi_hat, counts)
        for delta in np.eye(3) * 1e-3:
            assert negative_log_likelihood(xi_hat + delta, counts) > base
            assert negative_log_likelihood(xi_hat - delta, counts) > base

    def test_projected_beats_random_sphere_points(self):
        counts = CountRecord((95, 90, 80), (5, 10, 20))
        xi_hat, s_hat = temporal_estimate(counts)
        x_star = project_mle(xi_hat, s_hat).xi_star
        best = negative_log_likelihood(x_star, counts)
        rng = np.random.default_rng(37)
        for _ in range(200):
            r = rng.normal(size=3)
            r /= np.linalg.norm(r)
            assert best <= negative_log_likelihood(r, counts) + 1e-9

    def test_domain_violation(self):
        counts = CountRecord((10, 10, 10), (0, 10, 10))
        with pytest.raises(InvalidInputError):
            negative_log_likelihood(np.array([0.0, 1.0, 0.0]), counts)
        # axis 1 has no spin-down counts, so xi_1 = 1 is fine
        assert np.isfinite(negative_log_likelihood(np.array([1.0, 0.0, 0.0]), counts))

    def test_count_shift_moves_minimizer_continuously(self):
        counts = CountRecord((95, 90, 80), (5, 10, 20))
        shifted = CountRecord((105, 100, 90), (15, 20, 30))
        a = oracle_mle(*temporal_estimate(counts))
        b = oracle_mle(*temporal_estimate(shifted))
        assert 0.0 < np.max(np.abs(a - b)) < 0.5


def test_objective_formulations_agree():
    # the raw likelihood and N times the weighted-KL objective differ by a
    # constant (minus the saturated log-likelihood) wherever the likelihood
    # is positive, so minimizing either over the ball picks the same point.
    # An axis without outcomes of one sign puts xi_hat_i at a pole (xi_hat_3
    # = -1 in the first hard record, xi_hat_1 = +1 in the second): its
    # p_hat = 0 term drops out, so the constant holds with x_i at that pole
    # too, and at the opposite pole the likelihood is 0 and the KL inf
    records = [(CountRecord((95, 90, 80), (5, 10, 20)), []), (HARD_RECORDS[0], [2]), (HARD_RECORDS[1], [0])]
    for counts, pole_axes in records:
        xi_hat, s_hat = temporal_estimate(counts)
        assert all(abs(xi_hat[i]) == 1.0 for i in pole_axes)
        total = sum(counts.axis_totals)
        saturated = -sum(
            n * math.log(n / t)
            for t, n_plus, n_minus in zip(counts.axis_totals, counts.n_plus, counts.n_minus)
            for n in (n_plus, n_minus)
            if n > 0
        )
        rng = np.random.default_rng(53)
        points = rng.normal(size=(200, 3))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
        allowed, forbidden = [*points, oracle_mle(xi_hat, s_hat)], []
        for i in pole_axes:
            allowed.append(xi_hat[i] * np.eye(3)[i])
            for point in rng.uniform(-0.9, 0.9, (20, 3)):
                point[i] = xi_hat[i]
                allowed.append(point.copy())
                point[i] = -xi_hat[i]
                forbidden.append(point)
        for point in allowed:
            nll = negative_log_likelihood(point, counts)
            difference = nll - total * empirical_kl(xi_hat, s_hat, point)
            assert difference == pytest.approx(saturated, rel=1e-12, abs=1e-12 * nll)
        for point in forbidden:
            with pytest.raises(InvalidInputError):
                negative_log_likelihood(point, counts)
            assert empirical_kl(xi_hat, s_hat, point) == math.inf


def test_oracle_projector_agreement_battery():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        xi = exterior_point(rng)
        w = random_weights(rng)
        gap = np.max(np.abs(oracle_mle(xi, w) - project_mle(xi, w).xi_star))
        worst = max(worst, gap)
    assert worst < 1e-4
