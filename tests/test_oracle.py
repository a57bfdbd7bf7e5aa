import math

import numpy as np
import pytest

from blochmle import core, oracle
from blochmle.checks import exterior_point, random_weights
from blochmle.core import CountRecord, InvalidInputError, stokes_vector, temporal_estimate
from blochmle.oracle import _grid_minimum, empirical_kl, oracle_mle
from blochmle.projector import project_mle

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])

# Counts whose projection the window-refined grid search missed: by 1.0e-4
# and 6.0e-3 (the first two), and where a Newton polish without safeguards
# stopped 1.5e-2 short (the third).  Each has an axis without outcomes of
# one sign, so a component of xi_hat at +-1, except the third.
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


def test_polish_no_worse_than_grid():
    # the polish starts from the scan's best point and never gives it up
    # for a worse one
    rng = np.random.default_rng(47)
    cases = [temporal_estimate(counts) for counts in HARD_RECORDS]
    while len(cases) < 30:
        xi = rng.uniform(-1.0, 1.0, 3)
        if np.dot(xi, xi) > 1.0:
            w = 10.0 ** rng.uniform(-6.0, 0.0, 3)
            cases.append((xi, w / w.sum()))
    for xi_hat, s in cases:
        xi_hat, s = np.array(xi_hat), np.array(s)
        _, grid_value = _grid_minimum(xi_hat, s)
        assert empirical_kl(xi_hat, s, oracle_mle(xi_hat, s)) <= grid_value


def rebuilt_grid():
    """The scan's sphere points, built here the way the oracle builds them."""
    polar = (np.arange(180) + 0.5) * (np.pi / 180)
    azimuth = np.arange(180) * (2.0 * np.pi / 180)
    polar, azimuth = np.meshgrid(polar, azimuth, indexing="ij")
    sin_p = np.sin(polar)
    return np.stack([sin_p * np.cos(azimuth), sin_p * np.sin(azimuth), np.cos(polar)], axis=-1)


def test_grid_built_once_and_read_only():
    grid = oracle._grid_points()
    assert grid.shape == (180, 180, 3)
    assert grid.tobytes() == rebuilt_grid().tobytes()
    assert oracle._grid_points() is grid
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 0.0
    # the scan's best point is a copy, free to write to
    point, _ = _grid_minimum(np.array([0.9, 0.8, 0.5]), EQUAL)
    point[0] = 2.0
    assert not np.shares_memory(point, grid) and grid.max() <= 1.0


def test_shared_grid_leaves_answers_unchanged(monkeypatch):
    # bit for bit what a grid rebuilt on every call gives
    rng = np.random.default_rng(59)
    cases = [(exterior_point(rng), random_weights(rng)) for _ in range(200)]
    shared = [oracle_mle(xi, w).tobytes() for xi, w in cases]
    monkeypatch.setattr(oracle, "_grid_points", rebuilt_grid)
    assert [oracle_mle(xi, w).tobytes() for xi, w in cases] == shared


def test_objective_evaluations_go_through_empirical_kl(monkeypatch):
    # the module-level empirical_kl is the one place the objective is
    # evaluated, so wrapping it counts every evaluation: one for the scan,
    # then one or more per polish step
    xi_hat, s = temporal_estimate(HARD_RECORDS[0])
    expected = oracle_mle(xi_hat, s)
    shapes = []

    def counted(xi_hat, s, xi):
        shapes.append(np.shape(xi))
        return empirical_kl(xi_hat, s, xi)

    monkeypatch.setattr(oracle, "empirical_kl", counted)
    np.testing.assert_array_equal(oracle_mle(xi_hat, s), expected)
    assert shapes[0] == (180, 180, 3)
    assert len(shapes) > 1 and set(shapes[1:]) == {(3,)}


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
    # constant over the sphere (minus the saturated log-likelihood), so
    # minimizing either picks the same point
    counts = CountRecord((95, 90, 80), (5, 10, 20))
    xi_hat, s_hat = temporal_estimate(counts)
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
    for point in [*points, oracle_mle(xi_hat, s_hat)]:
        nll = negative_log_likelihood(point, counts)
        difference = nll - total * empirical_kl(xi_hat, s_hat, point)
        assert difference == pytest.approx(saturated, rel=1e-12, abs=1e-12 * nll)


def test_oracle_projector_agreement_battery():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        xi = exterior_point(rng)
        w = random_weights(rng)
        gap = np.max(np.abs(oracle_mle(xi, w) - project_mle(xi, w).xi_star))
        worst = max(worst, gap)
    assert worst < 1e-4


def test_scalar_and_array_kl_agree():
    # core.empirical_kl (one model point, math.log) and the oracle's
    # empirical_kl (an array of points, np.log) are one formula summed in
    # the same order; they may differ only by the rounding of a log, a few
    # ulps of the size of the terms
    rng = np.random.default_rng(43)
    eps = np.finfo(float).eps
    cases = []
    for _ in range(300):
        w = rng.uniform(0.1, 1.0, 3)
        cases.append((rng.uniform(-1.0, 1.0, 3), w / w.sum(), rng.uniform(-1.0, 1.0, (8, 3))))
    edge = np.array([[0.8, 0.1, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.5, 0.5], [0.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
    # |xi_hat_i| = 1, where p_hat = 0 and the term drops out, against model
    # points at +-1, where p_hat > 0 meets p_model = 0
    cases.append((np.array([1.0, 0.0, 0.0]), EQUAL, edge))
    cases.append((np.array([-1.0, 1.0, 0.3]), np.array([0.2, 0.3, 0.5]), edge))
    for xi_hat, s, points in cases:
        batch = empirical_kl(xi_hat, s, points)
        for point, vector_value in zip(points, batch):
            scalar = core.empirical_kl(xi_hat, s, point)
            if math.isinf(vector_value):
                assert scalar == vector_value == math.inf
                continue
            size = sum(
                w * p * (abs(math.log(p)) + abs(math.log(q)))
                for a, w, x in zip(xi_hat, s, point)
                for p, q in (((1.0 + a) / 2.0, (1.0 + x) / 2.0), ((1.0 - a) / 2.0, (1.0 - x) / 2.0))
                if p > 0.0
            )
            assert abs(scalar - vector_value) <= 4.0 * eps * size
    assert core.empirical_kl((1.0, 0.0, 0.0), EQUAL, (1.0, 0.0, 0.0)) == 0.0
    assert core.empirical_kl((0.5, 0.0, 0.0), EQUAL, (1.0, 0.0, 0.0)) == math.inf
