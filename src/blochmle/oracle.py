"""Direct likelihood maximization over the Bloch ball.

The estimate that the closed-form projector produces is, by definition, the
minimizer of the empirical Kullback-Leibler divergence over the physical
states.  This module computes that minimizer with a general convex method,
sharing none of the projector's cubic/multiplier machinery, so the two can
cross-check each other.  It is also the slow reference method for the
timing comparison.

The objective f(x) = sum_i s_i KL_i(xi_hat_i || x_i) is convex on the ball,
since each of its terms is -log of an affine function of x, so the search
needs no global scan.  It has two stages (Boyd & Vandenberghe, *Convex
Optimization*, 2004):

* A log-barrier method (sec. 11.3).  From x = 0, Newton steps with a
  backtracking line search (sec. 9.5) minimize t f(x) - log(1 - |x|^2) for
  t = 1, 20, 400, ..., up to the first t whose duality gap 1/t is below
  1e-10: the central point for t is within 1/t of the minimum of f.
* Newton on the KKT system grad f + nu x = 0, |x|^2 = 1 (Nocedal & Wright,
  *Numerical Optimization*, 2006, sec. 18.1), from the last central point
  with nu = 2 / (t (1 - |x|^2)), the dual point that the central point
  gives (sec. 11.2.2).  This takes the answer to rounding.  A step
  that would leave [-1, 1]^3 or turn non-finite ends the solve, and the
  previous point is the answer.

The gradient s_i (-p+_i / (1 + x_i) + p-_i / (1 - x_i)), with
p+- = (1 +- xi_hat) / 2, and the diagonal Hessian drop the terms where
p = 0, as the objective does (0 log 0 = 0), so a component can reach +-1 on
an axis without outcomes of the other sign.  The objective is core's
``empirical_kl``, the one the report sums, evaluated at one point per call,
35 to 40 times per exterior search.  It is imported by name and looked up
as this module's global at each call, because the traced benchmark counts
the evaluations by wrapping ``oracle.empirical_kl``.

Measured against ``project_mle`` on random exterior estimates: with weights
in [0.1, 1], at most 9.9e-14 apart (300 instances); with weights drawn
log-uniform down to 1e-9, none more than 1e-12 apart (3,500 instances).
That is the domain where the search is verified.  No input is refused
below it, and every answer is finite and inside [-1, 1]^3, down to weights
of 1e-300 and components at +-1.  But a weight far below the others leaves
that axis's terms below the rounding of the rest and below the 1e-10 gap,
so the objective is flat to rounding along it and the answer can stop
inside the ball, at worst at the origin: with weights log-uniform down to
1e-12, 13 of 300 answers were more than 1e-4 from the projector's, each
with an objective within 2e-11 of it.  A call took 1.8-3.7 ms (5th to 95th
percentile of 3,000 exterior instances, median 2.2-2.3 ms; an objective
evaluation about 5 us) on a shared 2-core Xeon with numpy 2.4.

``DISCREPANCY_TOL``, the cross-check's rule, is kept here, with the search
it judges, so that ``estimate --oracle`` loads this module and not the
check batteries.
"""

from __future__ import annotations

import math

import numpy as np

from .core import StokesVector, WeightVector, empirical_kl, norm_squared, stokes_vector, weight_vector

# bench and estimate --oracle: the methods agree when the max-norm gap
# between their answers is below this
DISCREPANCY_TOL = 1e-4

# The barrier stages run at t = 1, 20, 400, ..., 20^8, the first power of
# 20 whose duality gap 1/t is below 1e-10.  A stage ends once half the
# squared Newton decrement is below _CENTRED, after _MAX_STEPS steps, or when
# _HALVINGS halvings of a step find no sufficient decrease (_ARMIJO).  The
# KKT solve ends at a step shorter than _STEP_TOL, or after _MAX_STEPS steps.
_STAGES = tuple(20.0**k for k in range(9))
_CENTRED = 1e-4
_ARMIJO = 0.25
_HALVINGS = 60
_MAX_STEPS = 50
_STEP_TOL = 1e-15


def _derivatives(xi_hat, s, x):
    """The objective's gradient and diagonal Hessian at ``x``, with the terms
    where p_hat = 0 dropped; inf or NaN where x_i = +-1 meets p_hat > 0."""
    gradient, curvature = np.zeros(3), np.zeros(3)
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (1.0, -1.0):
            p_hat, q = (1.0 + sign * xi_hat) / 2.0, 1.0 + sign * x
            gradient = gradient - sign * s * np.where(p_hat > 0.0, p_hat / q, 0.0)
            curvature = curvature + s * np.where(p_hat > 0.0, p_hat / (q * q), 0.0)
    return gradient, curvature


def _barrier(xi_hat, s):
    """The last barrier stage's central point."""
    x = np.zeros(3)
    kl = empirical_kl(xi_hat, s, x)
    for t in _STAGES:
        for _ in range(_MAX_STEPS):
            gradient, curvature = _derivatives(xi_hat, s, x)
            slack = 1.0 - norm_squared(x)
            gradient = t * gradient + (2.0 / slack) * x
            hessian = np.diag(t * curvature + 2.0 / slack) + (4.0 / slack**2) * np.outer(x, x)
            step = -np.linalg.solve(hessian, gradient)
            decrement = -float(gradient @ step)
            if decrement <= 2.0 * _CENTRED:
                break
            value, a = t * kl - math.log(slack), 1.0
            for _ in range(_HALVINGS):
                trial = x + a * step
                trial_slack = 1.0 - norm_squared(trial)
                if trial_slack > 0.0:
                    trial_kl = empirical_kl(xi_hat, s, trial)
                    if t * trial_kl - math.log(trial_slack) <= value - _ARMIJO * a * decrement:
                        break
                a /= 2.0
            else:
                break  # 60 halvings, no decrease: the fault exit, reached by a patched objective
            x, kl = trial, trial_kl
    return x


def _kkt(xi_hat, s, x, nu):
    """Newton steps on grad f + nu x = 0, |x|^2 = 1 from ``(x, nu)``.  Each
    solves the 4 x 4 KKT system by eliminating the step in x, so a singular
    system (x = 0) gives a non-finite step instead of an error."""
    gradient, curvature = _derivatives(xi_hat, s, x)
    for _ in range(_MAX_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled_residual, scaled_x = (gradient + nu * x) / (curvature + nu), x / (curvature + nu)
            nu_step = ((norm_squared(x) - 1.0) / 2.0 - scaled_residual @ x) / (scaled_x @ x)
            step = -(scaled_residual + nu_step * scaled_x)
        trial = x + step
        trial_gradient, trial_curvature = _derivatives(xi_hat, s, trial)
        if not (np.all(np.abs(trial) <= 1.0) and np.all(np.isfinite([nu_step, *trial_gradient, *trial_curvature]))):
            break
        x, nu, gradient, curvature = trial, nu + nu_step, trial_gradient, trial_curvature
        if np.max(np.abs(step)) < _STEP_TOL:
            break
    return x


def oracle_mle(xi_hat: StokesVector, s: WeightVector):
    """Corrected estimate by direct objective minimization over the ball, as
    a numpy array of shape (3,).

    Physical inputs (norm <= 1) are returned unchanged, mirroring the
    projector's identity case.
    """
    xi_hat = np.array(stokes_vector(xi_hat))
    s = np.array(weight_vector(s))
    if norm_squared(xi_hat) <= 1.0:
        return xi_hat
    x = _barrier(xi_hat, s)
    return _kkt(xi_hat, s, x, 2.0 / (_STAGES[-1] * (1.0 - norm_squared(x))))


__all__ = ["DISCREPANCY_TOL", "oracle_mle"]
