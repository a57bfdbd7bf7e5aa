"""Every row of ``checks.GATES`` fails on one named, plausible mutant of the
library: a gate that no wrong library can trip would show nothing.  Each
mutant is a monkeypatch of the function or constant that the row's battery
reaches, built from the real one.  The NaN injections of
``test_cli.py::TestCliCheck::test_a_nan_after_the_first_instance_is_the_worst``
are not mutants: they test the gates' max-with-NaN rule, not a wrong
library."""

import itertools
import math

import numpy as np
import pytest

from blochmle import checks, projector, simulator
from blochmle.checks import EQUAL_WEIGHTS, GATES
from blochmle.core import CountRecord

# rows whose mutants are tested next to their batteries' other tests
MUTANTS_ELSEWHERE = {
    "componentwise shrinkage with preserved signs":
        "test_projector.py::TestProjectMle::test_shrinkage_catches_a_component_that_grows_or_flips",
    "correction step is metric-normal to sphere":
        "test_projector.py::TestProjectMle::test_metric_orthogonality_catches_the_euclidean_projection",
    "norm residual monotone in the multiplier": "test_projector.py::TestSolveLambda::test_monotonicity_check_catches",
}


def unweighted_shift(s, xi):
    """The 6-outcome probabilities with the state term at equal weights:
    s_i/2 +- xi_i/6 instead of s_i (1 +- xi_i)/2."""
    return np.ravel([[w / 2.0 + x / 6.0, w / 2.0 - x / 6.0] for w, x in zip(s, xi)])


def seed_ignored(real):
    """``simulate`` drawing from a new seed on every call, not the spec's."""
    seeds = itertools.count(1)
    return lambda spec: real(spec._replace(seed=next(seeds)))


def divides_by_all_shots(real):
    """``temporal_estimate`` giving (n+ - n-)/N, not (n+ - n-)/N_i."""

    def estimate(counts):
        xi_hat, s = real(counts)
        return tuple(x * w for x, w in zip(xi_hat, s)), s

    return estimate


# row name -> (mutant name, [(module, attribute, real -> replacement), ...])
MUTANTS = {
    "kl nonnegativity, zero only at equality": (
        "log_ratio_inverted", [(checks, "kl_divergence", lambda real: lambda p, q: -real(p, q))]),
    "potential divergence equals outcome KL": (
        "arguments_swapped", [(checks, "canonical_divergence", lambda real: lambda p, q: real(q, p))]),
    "per-axis decomposition of 6-outcome KL": (
        "weights_dropped",
        [(checks, "empirical_kl", lambda real: lambda xi_hat, s, xi: real(xi_hat, EQUAL_WEIGHTS, xi))]),
    "divergence additivity across foliation": (
        "arguments_swapped", [(checks, "kl_divergence", lambda real: lambda p, q: real(q, p))]),
    "analytic vs expectation Fisher matrix": (
        "weights_dropped", [(checks, "fisher_metric", lambda real: lambda xi, s: 3.0 * real(xi, EQUAL_WEIGHTS))]),
    "eta is the theta-gradient of psi": (
        "eta_is_the_stokes_vector",
        [(checks, "dual_coordinates", lambda real: lambda xi: real(xi)._replace(eta=np.array(xi)))]),
    "weight/state slices meet orthogonally": (
        "state_shift_unweighted", [(checks, "randomized_distribution", lambda real: unweighted_shift)]),
    "projection residuals on 1000 exterior points": (
        "stops_at_residual_1e-6",
        [(projector, "LAMBDA_RESIDUAL_TOL", lambda real: 1e-6),
         (projector, "_ROOT_STEP_TOL", lambda real: math.inf)]),
    "no sphere point beats the estimate in KL": (
        "weights_dropped", [(checks, "project_mle", lambda real: lambda xi_hat, s: real(xi_hat, EQUAL_WEIGHTS))]),
    "permutation and sign equivariance": (
        "sign_dropped", [(projector, "cubic_solve", lambda real: lambda mu, a: real(mu, abs(a)))]),
    "cubic closed form back-substitution residuals": (
        "linearized", [(checks, "cubic_solve", lambda real: lambda mu, a: mu * a / (1.0 + mu))]),
    "identical specs give identical counts": ("seed_ignored", [(checks, "simulate", seed_ignored)]),
    "axis fractions within 5 sigma of weights": (
        "plus_outcomes_first",
        [(simulator, "_six_outcome", lambda real: lambda s, xi: real(s, xi)[[0, 2, 4, 1, 3, 5]])]),
    "pure state never yields the forbidden outcome": (
        "outcomes_swapped", [(checks, "simulate", lambda real: lambda spec: CountRecord(*real(spec)[::-1]))]),
    "median error scales like 1/sqrt(N)": ("divides_by_all_shots", [(checks, "temporal_estimate", divides_by_all_shots)]),
}


def test_every_gate_has_one_mutant():
    # a new row fails here until it has a mutant
    assert not set(MUTANTS) & set(MUTANTS_ELSEWHERE)
    assert set(MUTANTS) | set(MUTANTS_ELSEWHERE) == {name for _, name, _, _ in GATES}


@pytest.mark.parametrize("row", MUTANTS, ids=lambda row: f"{row} ({MUTANTS[row][0]})")
def test_gate_fails_on_its_mutant(row, monkeypatch):
    for module, attribute, mutate in MUTANTS[row][1]:
        monkeypatch.setattr(module, attribute, mutate(getattr(module, attribute)))
    ((battery, bound),) = [(battery, bound) for _, name, battery, bound in GATES if name == row]
    value = battery(1)
    if bound is None:
        assert value is False
    else:
        # a real defect over the bound, not a NaN
        assert value >= bound
