import math

import numpy as np
import pytest

from blochmle import core
from blochmle.core import CountRecord, InvalidInputError, temporal_estimate
from blochmle.oracle import (
    OracleConfig,
    _minimize_on_sphere,
    empirical_kl,
    negative_log_likelihood,
    oracle_mle,
)
from blochmle.projector import project_mle

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])


def sphere_nll_minimizer(counts: CountRecord, config: OracleConfig | None = None) -> np.ndarray:
    """Minimizer of the raw negative log-likelihood over the unit sphere,
    using the oracle's grid search; lets the tests confirm that the two
    objective formulations pick the same point."""
    if config is None:
        config = OracleConfig()
    n_plus = np.asarray(counts.n_plus, dtype=float)
    n_minus = np.asarray(counts.n_minus, dtype=float)

    def objective(points):
        p_plus = np.clip((1.0 + points) / 2.0, 0.0, 1.0)
        p_minus = np.clip((1.0 - points) / 2.0, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = -(
                np.where(n_plus > 0.0, n_plus * np.log(p_plus), 0.0)
                + np.where(n_minus > 0.0, n_minus * np.log(p_minus), 0.0)
            ).sum(axis=-1)
        return val

    return _minimize_on_sphere(objective, config)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        OracleConfig(coarse_grid=4)
    with pytest.raises(InvalidInputError):
        OracleConfig(tolerance=0.0)
    with pytest.raises(InvalidInputError):
        OracleConfig(refine_shrink=1.0)


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


def test_monotone_refinement():
    history = []
    xi = np.array([0.9, 0.8, 0.5])
    _minimize_on_sphere(lambda pts: empirical_kl(xi, EQUAL, pts), OracleConfig(), history)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


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
        a = sphere_nll_minimizer(counts)
        b = sphere_nll_minimizer(shifted)
        assert 0.0 < np.max(np.abs(a - b)) < 0.5


def test_objective_formulations_agree():
    # minimizing the weighted-KL objective and the raw likelihood must pick
    # the same sphere point; they differ by constants only
    counts = CountRecord((95, 90, 80), (5, 10, 20))
    xi_hat, s_hat = temporal_estimate(counts)
    from_kl = oracle_mle(xi_hat, s_hat)
    from_nll = sphere_nll_minimizer(counts)
    assert np.max(np.abs(from_kl - from_nll)) < 1e-6


def test_oracle_projector_agreement_battery():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(30):
        xi = rng.uniform(-1.0, 1.0, 3)
        if np.dot(xi, xi) <= 1.0:
            continue
        w = rng.uniform(0.1, 1.0, 3)
        w /= w.sum()
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
