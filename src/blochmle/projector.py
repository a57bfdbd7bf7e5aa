"""Projection of an out-of-ball empirical estimate onto the Bloch sphere.

When the empirical Stokes vector lands outside the unit ball, the
maximum-likelihood correction is the point x on the unit sphere solving

    x_i (1 - x_i^2) = lam * s_i * (xihat_i - x_i),   i = 1, 2, 3,
    x_1^2 + x_2^2 + x_3^2 = 1,

for an auxiliary multiplier lam > 0 (orthogonal projection under the
weighted metric diag(s_i / (1 - x_i^2))).  Each scalar equation has a
unique root in (-1, 1) with a trigonometric closed form; substituting it
reduces the norm constraint to a one-dimensional root-find in lam, solved
by bracketing bisection with a secant polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidInputError,
    SolverError,
    StokesVector,
    WeightVector,
    norm_squared,
    stokes_vector,
    weight_vector,
)

LAMBDA_RESIDUAL_TOL = 1e-12
MAX_BISECT_ITERATIONS = 200
MAX_BRACKET_DOUBLINGS = 200

# Rounding in the closed form can push the arctan radicand slightly negative
# near its zero (mu = 2, |a| -> 1); anything below this is a logic error.
_RADICAND_SLACK = -1e-12


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of the sphere projection.

    When ``was_projected`` is False the input was already physical and is
    returned unchanged, with no multiplier or equation residuals.
    """

    xi_star: StokesVector
    was_projected: bool
    lambda_star: float | None
    norm_residual: float
    equation_residuals: tuple[float, float, float] | None
    iterations: int


def cubic_solve(mu: float, a: float) -> float:
    """Unique root in [-1, 1] of x (1 - x^2) = mu (a - x), for mu > 0.

    Evaluated in closed form,

        x = sgn(a) * 2 sqrt((mu+1)/3) * cos[(pi + arctan r)/3],
        r = sqrt(4 (mu+1)^3 / (27 mu^2 a^2) - 1),

    then polished with up to two Newton steps; trig evaluation alone leaves
    residuals around 1e-13..1e-11 (worse for small mu, where the cosine
    lands near its zero).  a = 0 short-circuits to 0, which is forced
    analytically and avoids the 0/0 in the radicand.  For |a| = 1 the cubic
    factors as (1 - x)(x^2 + x - mu) = 0 and the root is
    sgn(a) * min(1, (sqrt(1 + 4 mu) - 1)/2), on the boundary for mu >= 2; the
    trig form would lose about sqrt(eps) at the double root mu = 2.
    """
    mu = float(mu)
    a = float(a)
    if not mu > 0.0:
        raise InvalidInputError(f"mu must be positive, got {mu}")
    if not -1.0 <= a <= 1.0:
        raise InvalidInputError(f"a must lie in [-1, 1], got {a}")
    if a == 0.0:
        return 0.0
    if abs(a) == 1.0:
        # (sqrt(1 + 4 mu) - 1)/2 without the cancellation at small mu
        return math.copysign(min(1.0, 2.0 * mu / (math.sqrt(1.0 + 4.0 * mu) + 1.0)), a)
    if mu >= 1e18:
        # a - x < ulp(a): the root rounds to a itself
        x = a
    else:
        cube = 4.0 * (mu + 1.0) ** 3
        denominator = 27.0 * (mu * a) ** 2  # underflows for |a| below ~1e-150
        if cube > 1e26 * denominator:
            # arctan saturates at pi/2 and the cosine loses the root; the
            # equation is then linear to better than 1e-13 relative
            x = mu * a / (1.0 + mu)
        else:
            radicand = cube / denominator - 1.0
            if radicand < 0.0:
                if radicand < _RADICAND_SLACK:
                    raise SolverError(f"negative discriminant {radicand} at mu={mu}, a={a}")
                radicand = 0.0
            angle = (math.pi + math.atan(math.sqrt(radicand))) / 3.0
            x = math.copysign(2.0 * math.sqrt((mu + 1.0) / 3.0) * math.cos(angle), a)
    # The interior root is simple with f' > 0, but it nears a double root as
    # mu -> 2, |a| -> 1, where f' can round to <= 0 and the step is skipped.
    for _ in range(2):
        f = x * (1.0 - x * x) - mu * (a - x)
        fprime = 1.0 + mu - 3.0 * x * x
        if f == 0.0 or fprime <= 0.0:
            break
        x -= f / fprime
    return min(1.0, max(-1.0, x))


def _norm_residual(lam: float, s: np.ndarray, xi_hat: np.ndarray) -> float:
    total = 0.0
    for i in range(3):
        x = cubic_solve(lam * s[i], xi_hat[i])
        total += x * x
    return total - 1.0


def _solve_lambda(s: np.ndarray, xi_hat: np.ndarray) -> tuple[float, int]:
    lam_lo = 1e-12
    r_lo = _norm_residual(lam_lo, s, xi_hat)
    if r_lo > 0.0:
        raise SolverError(f"residual already positive at lam={lam_lo}")
    lam_hi = 1.0
    r_hi = _norm_residual(lam_hi, s, xi_hat)
    doublings = 0
    while r_hi <= 0.0:
        if r_hi >= -LAMBDA_RESIDUAL_TOL:
            # Already a root; also the only exit for a float vector on the
            # sphere whose norm^2 rounds above 1, where r never turns positive.
            return lam_hi, 0
        lam_lo, r_lo = lam_hi, r_hi
        lam_hi *= 2.0
        doublings += 1
        if doublings > MAX_BRACKET_DOUBLINGS:
            raise SolverError("failed to bracket the multiplier; input outside contract?")
        r_hi = _norm_residual(lam_hi, s, xi_hat)

    lam, r = lam_lo, r_lo
    iterations = 0
    while abs(r) > LAMBDA_RESIDUAL_TOL and iterations < MAX_BISECT_ITERATIONS:
        lam = 0.5 * (lam_lo + lam_hi)
        r = _norm_residual(lam, s, xi_hat)
        if r < 0.0:
            lam_lo, r_lo = lam, r
        else:
            lam_hi, r_hi = lam, r
        iterations += 1

    # Secant polish on the final bracket, kept only if it actually helps.
    if abs(r) > 0.0 and r_hi != r_lo:
        lam_sec = lam_lo - r_lo * (lam_hi - lam_lo) / (r_hi - r_lo)
        if lam_lo < lam_sec < lam_hi:
            r_sec = _norm_residual(lam_sec, s, xi_hat)
            iterations += 1
            if abs(r_sec) < abs(r):
                lam, r = lam_sec, r_sec

    if abs(r) > LAMBDA_RESIDUAL_TOL:
        raise SolverError(f"multiplier residual {r} above tolerance after {iterations} iterations")
    return lam, iterations


def solve_lambda(s: WeightVector, xi_hat: StokesVector) -> float:
    """Positive multiplier at which the candidate solution has unit norm.

    The norm residual increases along lambda and has a single positive zero;
    ``checks.lambda_monotonicity_ok`` scans for a second one.
    """
    s = weight_vector(s)
    xi_hat = stokes_vector(xi_hat)
    if norm_squared(xi_hat) <= 1.0:
        raise InvalidInputError("multiplier is only defined for points outside the unit ball")
    return _solve_lambda(s, xi_hat)[0]


def project_mle(xi_hat: StokesVector, s: WeightVector) -> ProjectionResult:
    """Maximum-likelihood estimate for an empirical Stokes vector.

    Points with ||xi_hat||^2 <= 1, boundary included, are already the MLE
    and come back unchanged; exterior points are projected onto the sphere.
    """
    xi_hat = stokes_vector(xi_hat)
    s = weight_vector(s)
    nsq = norm_squared(xi_hat)
    if nsq <= 1.0:
        return ProjectionResult(
            xi_star=xi_hat.copy(),
            was_projected=False,
            lambda_star=None,
            norm_residual=abs(nsq - 1.0),
            equation_residuals=None,
            iterations=0,
        )
    lam, iterations = _solve_lambda(s, xi_hat)
    x = np.array([cubic_solve(lam * s[i], xi_hat[i]) for i in range(3)])
    residuals = tuple(
        abs(x[i] * (1.0 - x[i] ** 2) - lam * s[i] * (xi_hat[i] - x[i])) for i in range(3)
    )
    return ProjectionResult(
        xi_star=x,
        was_projected=True,
        lambda_star=lam,
        norm_residual=abs(norm_squared(x) - 1.0),
        equation_residuals=residuals,
        iterations=iterations,
    )


def projection_trajectory(xi_hat: StokesVector, s: WeightVector, n_samples: int) -> np.ndarray:
    """Solution curve lam -> x(lam * s_i, xihat_i), sampled from the origin
    (lam = 0) to the projected point (lam = lam*).  Shape (n_samples, 3)."""
    xi_hat = stokes_vector(xi_hat)
    s = weight_vector(s)
    if norm_squared(xi_hat) <= 1.0:
        raise InvalidInputError("trajectories are only defined for points outside the unit ball")
    if n_samples < 2:
        raise InvalidInputError(f"need at least 2 samples, got {n_samples}")
    lam_star, _ = _solve_lambda(s, xi_hat)
    points = np.zeros((n_samples, 3))
    for k, lam in enumerate(np.linspace(0.0, lam_star, n_samples)[1:], start=1):
        points[k] = [cubic_solve(lam * s[i], xi_hat[i]) for i in range(3)]
    return points
