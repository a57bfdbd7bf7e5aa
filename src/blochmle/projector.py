"""Projection of an out-of-ball empirical estimate onto the Bloch sphere.

When the empirical Stokes vector lands outside the unit ball, the
maximum-likelihood correction is the point x on the unit sphere solving

    x_i (1 - x_i^2) = lam * s_i * (xihat_i - x_i),   i = 1, 2, 3,
    x_1^2 + x_2^2 + x_3^2 = 1,

for an auxiliary multiplier lam > 0 (orthogonal projection under the
weighted metric diag(s_i / (1 - x_i^2))).  Each scalar equation has a
unique root in [-1, 1] with a trigonometric closed form; substituting it
reduces the norm constraint to a one-dimensional root-find in lam, solved
by Halley steps on the analytic slope and curvature of the norm residual
(both from implicit differentiation of the cubic, see ``_evaluate``), kept
inside a bracket that grows and bisects in log lam (see ``_solve_lambda``).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple

from .core import (
    InvalidInputError,
    SolverError,
    StokesVector,
    WeightVector,
    _at_least,
    _real,
    norm_squared,
    stokes_vector,
    weight_vector,
)

LAMBDA_RESIDUAL_TOL = 1e-12
MAX_RESIDUAL_EVALUATIONS = 200

_FLOAT_MAX = sys.float_info.max
# Once |r| is within tolerance, the solve stops when a further Newton step
# would move no root by more than this, or when r is down to the rounding in
# sum x_i^2 - 1; |r| <= 1e-12 alone leaves a small component that carries
# most of dr/dlam up to 1e-12 / (2 |x_i|) from its root.
_ROOT_STEP_TOL = 1e-13
_RESIDUAL_FLOOR = 4.0 * sys.float_info.epsilon


class ProjectionResult(
    namedtuple(
        "ProjectionResult",
        ["xi_star", "was_projected", "lambda_star", "norm_residual", "equation_residuals", "residual_evaluations"],
    )
):
    """Outcome of the sphere projection.

    ``xi_star`` is a Stokes vector; ``lambda_star`` a float, or None;
    ``norm_residual`` a float; ``equation_residuals`` three floats, or None;
    ``residual_evaluations`` an int.

    When ``was_projected`` is False the input was already physical and is
    returned unchanged, with no multiplier or equation residuals, and
    ``residual_evaluations`` is 0.  Otherwise ``residual_evaluations``
    counts every evaluation of the norm residual r(lam) that the multiplier
    solve made, and ``equation_residuals`` holds
    |x_i (1 - x_i^2) - mu_i (xihat_i - x_i)| / (1 + mu_i) with mu_i = lam s_i:
    scaled by 1 + mu_i, the size of the equation's terms, so the bound on
    them does not grow with the multiplier.
    """

    __slots__ = ()


def cubic_solve(mu: float, a: float) -> float:
    """Unique root in [-1, 1] of x (1 - x^2) = mu (a - x), for finite mu > 0.

    Evaluated in closed form,

        x = sgn(a) * 2 sqrt((mu+1)/3) * cos[(pi + arctan sqrt(D / (27 mu^2 a^2)))/3],
        D = 4 (mu+1)^3 - 27 mu^2 a^2 = (mu - 2)^2 (4 mu + 1) + 27 mu^2 (1 - a)(1 + a),

    then polished with up to two Newton steps; trig evaluation alone leaves
    residuals around 1e-13..1e-11 (worse for small mu, where the cosine
    lands near its zero).  D is formed as the sum of two terms >= 0, each
    exact to a few roundings, so it does not cancel near its zero at the
    double root mu = 2, |a| = 1.  Where D / (27 mu^2 a^2) exceeds 1e26,
    a = 0 included, the equation is linear to better than 1e-13 relative
    and x = mu a / (1 + mu).  For |a| = 1 the cubic factors as
    (1 - x)(x^2 + x - mu) = 0 and the root is
    sgn(a) * min(1, (sqrt(1 + 4 mu) - 1)/2): exactly +-1 at and above the
    kink mu = 2, which the multiplier solve's kink argument relies on, and
    one square root instead of the arctan, the cosine and two roots.  For
    |a| < 1 the root lies strictly between 0 and a, where f is concave, and
    the polished x keeps |x| <= |a|, a few ulps from the exact root
    (``tests/test_projector.py`` checks both against a 60-digit reference
    where the margin is least, a within ulps of +-1), so it needs no clamp
    to [-1, 1].

    mu and a are read by core's real rule (``core._real``): floats, ints,
    bools, fractions, numpy scalars and 0-d arrays pass; text, other arrays,
    complex numbers, anything float() refuses and anything not finite (an
    int beyond the float range too) raise ``InvalidInputError``.
    """
    if type(mu) is not float or type(a) is not float:
        mu = _real(mu, "mu")
        a = _real(a, "a")
    if not 0.0 < mu <= _FLOAT_MAX:
        raise InvalidInputError(f"mu must be positive and finite, got {mu}")
    if not -1.0 <= a <= 1.0:
        raise InvalidInputError(f"a must lie in [-1, 1], got {a}")
    if a == 1.0 or a == -1.0:
        if mu >= 2.0:
            # also keeps 4 mu from overflowing for mu near the largest float
            return math.copysign(1.0, a)
        # (sqrt(1 + 4 mu) - 1)/2 without the cancellation at small mu
        return math.copysign(min(1.0, 2.0 * mu / (math.sqrt(1.0 + 4.0 * mu) + 1.0)), a)
    if mu >= 1e18:
        # a - x < ulp(a): the root rounds to a itself
        x = a
    else:
        denominator = 27.0 * (mu * a) * (mu * a)  # underflows for |a| below ~1e-150
        discriminant = (mu - 2.0) * (mu - 2.0) * (4.0 * mu + 1.0) + 27.0 * mu * mu * ((1.0 - a) * (1.0 + a))
        if discriminant > 1e26 * denominator:
            # arctan saturates at pi/2 and the cosine loses the root; the
            # equation is then linear to better than 1e-13 relative
            x = mu * a / (1.0 + mu)
        else:
            angle = (math.pi + math.atan(math.sqrt(discriminant / denominator))) / 3.0
            x = math.copysign(2.0 * math.sqrt((mu + 1.0) / 3.0) * math.cos(angle), a)
    # The interior root is simple with f' > 0, but it nears a double root as
    # mu -> 2, |a| -> 1, where f' can round to <= 0 and the step is skipped.
    # There f' is small, so f needs 1 - x^2 as (1 - x)(1 + x), exact to a
    # rounding; 1 - x * x loses up to eps / (1 - x^2) of it and leaves the
    # root about eps / f' from where it should be.  Each step is skipped,
    # and the polish ends, where f is 0 or f' <= 0.
    f = x * ((1.0 - x) * (1.0 + x)) - mu * (a - x)
    fprime = 1.0 + mu - 3.0 * x * x
    if not (f == 0.0 or fprime <= 0.0):
        x -= f / fprime
        f = x * ((1.0 - x) * (1.0 + x)) - mu * (a - x)
        fprime = 1.0 + mu - 3.0 * x * x
        if not (f == 0.0 or fprime <= 0.0):
            x -= f / fprime
    return x


def _evaluate(lam: float, s, xi_hat) -> tuple[float, float, float, float, list[float]]:
    """r(lam) = sum x_i^2 - 1, its slope r' = dr/dlam, its curvature
    r'' = d^2r/dlam^2, the largest |dx_i/dlam| and the roots x_i, from one
    ``cubic_solve`` per component.

    With mu_i = lam s_i, D = 1 + mu - 3x^2 and x' = dx/dmu, implicit
    differentiation of the cubic gives x' = (a - x)/D and
    x'' = -2 x' (1 - 3 x x') / D; then dx_i/dlam = s_i x',
    r' = sum 2 s_i x_i x_i' and r'' = sum 2 s_i^2 (x_i'^2 + x_i x_i'').
    For |a_i| = 1, x' is 0/0 at the kink mu_i = 2 where x_i reaches the
    boundary, so the factored forms x' = a/(1 + 2|x|) and x'' = -2 x'^3
    are used up to the kink.  Above it ``cubic_solve`` returns x = a
    exactly and D = mu - 2 > 0, so the general forms give x' = 0 and a
    curvature term of 0.  For |a| <= 1 - 2^-53, D at the exact root is
    sqrt((mu - 2)^2 + 24 (1 - |a|)) to first order near the double root
    mu = 2, |a| = 1, so at least sqrt(24 * 2^-53) = 5.2e-8, and more away
    from it; rounding and ``cubic_solve``'s few ulps move it by under
    1e-15 (1 + mu) (Higham 2002, ch. 2), so D > 0 on every call.
    """
    total = 0.0
    slope = 0.0
    curvature = 0.0
    rate = 0.0
    x = []
    for s_i, a_i in zip(s, xi_hat):
        mu = lam * s_i
        if mu == 0.0:
            # lam * s_i underflowed: the root is 0 and adds nothing to the sums
            x.append(0.0)
            continue
        x_i = cubic_solve(mu, a_i)
        if (a_i == 1.0 or a_i == -1.0) and mu <= 2.0:
            dx = a_i / (1.0 + 2.0 * abs(x_i))
            ddx = -2.0 * dx * dx * dx
        else:
            d = 1.0 + mu - 3.0 * x_i * x_i
            dx = (a_i - x_i) / d
            ddx = -2.0 * dx * (1.0 - 3.0 * x_i * dx) / d
        total += x_i * x_i
        slope += 2.0 * x_i * s_i * dx
        curvature += 2.0 * s_i * s_i * (dx * dx + x_i * ddx)
        rate_i = abs(s_i * dx)
        if rate_i > rate:
            rate = rate_i
        x.append(x_i)
    return total - 1.0, slope, curvature, rate, x


def _solve_lambda(s: WeightVector, a: StokesVector) -> tuple[float, int, list[float]]:
    """Root of r(lam) by Halley steps kept inside a bracket (rtsafe).

    Returns the multiplier, the number of residual evaluations and the roots
    x_i at the multiplier.  r rises from r(0) = -1 to r(inf) = |a|^2 - 1
    > 0, so [0, inf] brackets the root from the start.  The trial step is
    Halley's, lam - (r/r') / (1 - c) with c = r r'' / (2 r'^2), which
    converges cubically; where |c| > 1/2 it is Newton's, lam - r/r'.  The
    guard matters far from the root.  With weights down to 1e-300 and a
    kink at lam = 2e75, another at 2e300 (``test_nearest_kink_first``), r' is tiny
    against r'' on the way up, c runs to -1e300 and below, and the Halley
    step shrinks to nothing; every evaluation then falls back to a
    bisection, 11 in all where Newton's steps need 2.  A trial step
    that leaves the bracket, or is longer than half the step before last,
    is replaced by a bisection in log lam: the geometric mean of a finite
    bracket, or a factor 2, 4, 16, 256, ... past its finite end, so the
    bracket spans the whole float range within a dozen evaluations.  r has a
    kink wherever a component with |a_i| = 1 reaches the boundary, at
    mu_i = 2, so lam = 2/s_i.  Only the nearest kink matters: from it on
    that x_i is +-1 and r >= x_i^2 - 1 = 0, so the root never lies above
    it.  The start never lies above it either, and a step across it
    evaluates the kink instead; that evaluation either stops the solve (r
    within rounding) or closes the bracket at the kink, so every farther
    kink stays outside and the steps run on one smooth piece.
    """
    # One pass gives the nearest kink, the largest weight and the spread.
    # For large mu_i, x_i^2 ~ a_i^2 - 2 a_i^2 (1 - a_i^2) / (lam s_i), so
    # r ~ excess - spread / lam: a close start for points just outside
    kink = math.inf
    spread = 0.0
    largest = 0.0
    for s_i, a_i in zip(s, a):
        if (a_i == 1.0 or a_i == -1.0) and 2.0 / s_i < kink:
            kink = 2.0 / s_i
        spread += 2.0 * a_i * a_i * (1.0 - a_i * a_i) / s_i
        if s_i > largest:
            largest = s_i
    excess = norm_squared(a) - 1.0
    # weights may sum to 1 + 1e-12: keep every mu_i = lam s_i finite
    lam_max = _FLOAT_MAX / largest if largest > 1.0 else _FLOAT_MAX
    lam = spread / excess if spread > 0.0 else 1.0 / largest
    if kink < lam:
        lam = kink
    if lam_max < lam:
        lam = lam_max
    lo, hi = 0.0, math.inf
    growth = 2.0
    step = step_before = math.inf
    for evaluations in range(1, MAX_RESIDUAL_EVALUATIONS + 1):
        r, slope, curvature, rate, x = _evaluate(lam, s, a)
        # |r| within tolerance, and a Newton step would move no x_i by more
        # than _ROOT_STEP_TOL, or r is down at its own rounding; the first
        # is also the exit for a float vector on the sphere whose norm^2
        # rounds above 1, where r never turns positive.  That root step,
        # |r| rate / r', is formed as a ratio: the product rate |r|
        # underflows to 0 with weights near 1e-300 and would pass any slope.
        if abs(r) <= LAMBDA_RESIDUAL_TOL and (
            abs(r) <= _RESIDUAL_FLOOR or slope > 0.0 and abs(r) * (rate / slope) <= _ROOT_STEP_TOL
        ):
            return lam, evaluations, x
        if r < 0.0:
            lo = lam
        else:
            hi = lam
        if slope > 0.0:
            shift = r / slope
            c = 0.5 * shift * curvature / slope
            if abs(c) <= 0.5:
                shift /= 1.0 - c
            proposal = lam - shift
        else:
            proposal = math.nan
        if lo < proposal < hi and abs(proposal - lam) <= 0.5 * step_before:
            trial = proposal
        elif hi == math.inf:
            if lo == lam_max:
                # no float multiplier lies above: r within tolerance here is
                # the answer, and beyond tolerance there is none
                if abs(r) <= LAMBDA_RESIDUAL_TOL:
                    return lam, evaluations, x
                raise InvalidInputError(
                    f"weights {list(s)} are too uneven: the multiplier exceeds the float range"
                )
            trial = min(lo * growth, lam_max)
            growth *= growth
        elif lo == 0.0:
            trial = hi / growth
            growth *= growth
        else:
            trial = math.sqrt(lo) * math.sqrt(hi)
        if lam < kink < trial:
            trial = kink
        if not lo < trial < hi:
            raise SolverError(f"multiplier bracket [{lo}, {hi}] closed at residual {r}")
        step_before, step = step, abs(trial - lam)
        lam = trial
    raise SolverError(f"multiplier residual {r} above tolerance after {evaluations} evaluations")


def project_mle(xi_hat: StokesVector, s: WeightVector) -> ProjectionResult:
    """Maximum-likelihood estimate for an empirical Stokes vector.

    Points with ||xi_hat||^2 <= 1, boundary included, are already the MLE
    and come back unchanged; exterior points are projected onto the sphere.
    """
    xi_hat = stokes_vector(xi_hat)
    s = weight_vector(s)
    nsq = norm_squared(xi_hat)
    # ProjectionResult's fields by position, as listed in its docstring: a
    # call by keyword costs about twice as much
    if nsq <= 1.0:
        return ProjectionResult(xi_hat, False, None, abs(nsq - 1.0), None, 0)
    lam, evaluations, x = _solve_lambda(s, xi_hat)
    residuals = []
    for x_i, s_i, a_i in zip(x, s, xi_hat):
        mu = lam * s_i
        residuals.append(abs(x_i * (1.0 - x_i * x_i) - mu * (a_i - x_i)) / (1.0 + mu))
    return ProjectionResult(tuple(x), True, lam, abs(norm_squared(x) - 1.0), tuple(residuals), evaluations)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """The ``n`` >= 1 points ``numpy.linspace(lo, hi, n)`` places, without
    numpy: k * ((hi - lo) / (n - 1)) + lo for k < n - 1, and ``hi`` last."""
    if n == 1:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [k * step + lo for k in range(n - 1)] + [hi]


def projection_trajectory(xi_hat: StokesVector, s: WeightVector, n_samples: int) -> tuple:
    """Solution curve lam -> x(lam * s_i, xihat_i), sampled from the origin
    (lam = 0) to the projected point (lam = lam*): a tuple of ``n_samples``
    3-tuples of floats, at the multipliers ``_linspace(0, lam*,
    n_samples)``.  The roots come from ``_evaluate``, the kernel of the lam
    solve, so a lam * s_i that underflows gives the root 0."""
    xi_hat = stokes_vector(xi_hat)
    s = weight_vector(s)
    lam_star = project_mle(xi_hat, s).lambda_star
    if lam_star is None:
        raise InvalidInputError("trajectories are only defined for points outside the unit ball")
    n_samples = _at_least(n_samples, "n_samples", 2)
    return tuple(tuple(_evaluate(lam, s, xi_hat)[4]) for lam in _linspace(0.0, lam_star, n_samples))
