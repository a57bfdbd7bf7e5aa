"""Direct likelihood maximization over the Bloch sphere.

The estimate that the closed-form projector produces is, by definition, the
minimizer of the empirical Kullback-Leibler divergence over the physical
states.  This module computes that minimizer the blunt way, sharing none of
the projector's cubic/multiplier machinery, so the two can cross-check each
other.  It is also the slow reference method for the timing comparison.

The search has two stages.  A global scan evaluates the objective on a
180 x 180 grid in spherical angles and keeps the best point.  A Riemannian
Newton polish then takes it to the minimum (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, ch. 6).  The gradient
s_i (-p+_i / (1 + x_i) + p-_i / (1 - x_i)), with p+- = (1 +- xi_hat) / 2
and the terms where p = 0 dropped, is projected onto the tangent plane
by P = I - x x^T.  The Hessian is P diag(h) P - (x . grad) P, with h the
diagonal Euclidean Hessian.  Each step is retracted onto the sphere by
normalising.  Safeguards keep the polish from losing what the scan found:

* The step uses the Hessian's eigenvalues in absolute value (Nocedal &
  Wright, *Numerical Optimization*, 2006, sec. 3.4): the Newton step where
  the Hessian is positive, a descent direction where it is not.  With
  weights near 1e-6 the objective has saddles between shallow wells, and a
  plain Newton step that falls back to minus the gradient stalled next to
  them on 4 of 8,000 random instances.  Minus the gradient remains the
  fallback for a step that is not finite or not a descent direction.
* A step is at most two grid cells long, so the polish stays in the basin
  the scan found instead of overshooting into another well.
* A step that raises the objective is halved.  A full step is also taken
  when it halves the Riemannian gradient: next to the minimum the
  objective is flat to rounding, and without this the polish stopped up
  to 1.6e-8 short with weights in [0.1, 1].

The polish ends at a step shorter than 1e-15, typically after four steps,
within about 1e-13 of the projector.  With weights down to 1e-9 it can
run out of its 100 steps along a curved valley: on 3,000 random exterior
instances it ended more than 1e-12 from the projector on 30.  The scan
stays at 180 points per angle.  On those instances grids of 90, 36 and
24 points left 38, 39 and 48 short; with weights down to 1e-6 every grid
came within 1e-4 on all of 9,000 instances, but the coarser ones took
more steps.  The fine scan also keeps the oracle the blunt reference that
the speed ordering is measured against.

numpy is imported inside the functions that use it, so that importing this
module (as the estimate report does) does not load it.
"""

from __future__ import annotations

import math

from .core import StokesVector, WeightVector, norm_squared, stokes_vector, weight_vector

# Points per angle in the global scan; see the module docstring.
_GRID = 180
# A polish step is at most two grid cells long.  The polish stops after
# _MAX_STEPS steps, or at a step shorter than _STEP_TOL.
_MAX_STEP = 2.0 * math.pi / _GRID
_MAX_STEPS = 100
_STEP_TOL = 1e-15


def _sphere_points(polar, azimuth):
    import numpy as np  # noqa: PLC0415 - see the module docstring

    sin_p = np.sin(polar)
    return np.stack(
        [sin_p * np.cos(azimuth), sin_p * np.sin(azimuth), np.cos(polar)], axis=-1
    )


def empirical_kl(xi_hat, s, xi):
    """``core.empirical_kl`` over an array of model points: the weighted
    per-axis binary KL from the empirical estimate to each point, the
    search's objective.  Broadcasts over trailing-axis-3 arrays; returns a
    float for a single point."""
    import numpy as np  # noqa: PLC0415 - see the module docstring

    xi_hat = np.asarray(xi_hat, dtype=float)
    s = np.asarray(s, dtype=float)
    xi = np.asarray(xi, dtype=float)
    out = np.zeros(xi.shape[:-1])
    for sign in (1.0, -1.0):
        p_hat = (1.0 + sign * xi_hat) / 2.0
        p_model = np.clip((1.0 + sign * xi) / 2.0, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(p_hat > 0.0, p_hat * (np.log(p_hat) - np.log(p_model)), 0.0)
        out = out + (s * term).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _grid_minimum(xi_hat, s):
    """The best point of the global angle scan and its objective value; ties
    go to the lowest grid index (np.argmin)."""
    import numpy as np  # noqa: PLC0415 - see the module docstring

    polar = (np.arange(_GRID) + 0.5) * (np.pi / _GRID)
    azimuth = np.arange(_GRID) * (2.0 * np.pi / _GRID)
    points = _sphere_points(*np.meshgrid(polar, azimuth, indexing="ij"))
    values = empirical_kl(xi_hat, s, points)
    i, j = divmod(int(np.argmin(values)), _GRID)
    return points[i, j].copy(), float(values[i, j])


def _polish(xi_hat, s, x, value):
    """Safeguarded Riemannian Newton steps from the sphere point ``x``, whose
    objective is ``value``; see the module docstring."""
    import numpy as np  # noqa: PLC0415 - see the module docstring

    p_plus = (1.0 + xi_hat) / 2.0
    p_minus = (1.0 - xi_hat) / 2.0

    def derivatives(x):
        # the Euclidean gradient and diagonal Hessian, terms where p_hat = 0 dropped
        up = np.divide(p_plus, 1.0 + x, out=np.zeros(3), where=p_plus > 0.0)
        down = np.divide(p_minus, 1.0 - x, out=np.zeros(3), where=p_minus > 0.0)
        grad = s * (down - up)
        diag = s * (
            np.divide(up, 1.0 + x, out=np.zeros(3), where=p_plus > 0.0)
            + np.divide(down, 1.0 - x, out=np.zeros(3), where=p_minus > 0.0)
        )
        # their Riemannian counterparts; x x^T makes the Hessian the identity
        # on the normal, so its eigenvectors split into x and the tangent plane
        radial = float(x @ grad)
        project = np.eye(3) - np.outer(x, x)
        hessian = project @ (diag[:, None] * project) - radial * project + np.outer(x, x)
        return grad - radial * x, hessian

    gradient, hessian = derivatives(x)
    for _ in range(_MAX_STEPS):
        size = float(np.linalg.norm(gradient))
        eigenvalues, vectors = np.linalg.eigh(hessian)
        with np.errstate(all="ignore"):
            step = -(vectors @ ((vectors.T @ gradient) / np.abs(eigenvalues)))
        newton = bool(np.all(np.isfinite(step)) and step @ gradient < 0.0)
        if not newton:
            step = -gradient
        length = float(np.linalg.norm(step))
        if length > _MAX_STEP:
            step, length = step * (_MAX_STEP / length), _MAX_STEP
        t = 1.0
        while True:
            if t * length < _STEP_TOL:
                return x
            trial = x + t * step
            trial = trial / np.linalg.norm(trial)
            trial_value = empirical_kl(xi_hat, s, trial)
            if trial_value <= value:
                break
            if newton and t == 1.0 and trial_value < np.inf:
                if np.linalg.norm(derivatives(trial)[0]) <= 0.5 * size:
                    break
            t *= 0.5
        x, value = trial, trial_value
        gradient, hessian = derivatives(x)
    return x


def oracle_mle(xi_hat: StokesVector, s: WeightVector):
    """Corrected estimate by direct objective minimization on the sphere, as
    a numpy array of shape (3,).

    Physical inputs (norm <= 1) are returned unchanged, mirroring the
    projector's identity case.
    """
    import numpy as np  # noqa: PLC0415 - see the module docstring

    xi_hat = np.array(stokes_vector(xi_hat))
    s = np.array(weight_vector(s))
    if norm_squared(xi_hat) <= 1.0:
        return xi_hat
    return _polish(xi_hat, s, *_grid_minimum(xi_hat, s))


__all__ = [
    "empirical_kl",
    "oracle_mle",
]
