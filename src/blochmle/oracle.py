"""Direct likelihood maximization over the Bloch sphere.

The estimate that the closed-form projector produces is, by definition, the
minimizer of the empirical Kullback-Leibler divergence over the physical
states.  This module computes that minimizer the blunt way, by a
deterministic nested grid search in spherical angles, sharing none of the
projector's cubic/multiplier machinery, so the two can cross-check each
other.  It is also the slow reference method for the timing comparison.

numpy is imported inside the functions that use it, so that importing this
module (as the estimate report does) does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    CountRecord,
    InvalidInputError,
    StokesVector,
    WeightVector,
    norm_squared,
    stokes_vector,
    weight_vector,
)

# Points per dimension when re-scanning a refinement window.
_REFINE_POINTS = 17


@dataclass(frozen=True)
class OracleConfig:
    coarse_grid: int = 180
    refine_iterations: int = 200
    refine_shrink: float = 0.5
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.coarse_grid < 8:
            raise InvalidInputError(f"coarse_grid must be >= 8, got {self.coarse_grid}")
        if not self.tolerance > 0.0:
            raise InvalidInputError(f"tolerance must be positive, got {self.tolerance}")
        if not 0.0 < self.refine_shrink < 1.0:
            raise InvalidInputError(f"refine_shrink must lie in (0, 1), got {self.refine_shrink}")
        if self.refine_iterations < 0:
            raise InvalidInputError("refine_iterations must be nonnegative")


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


def _minimize_on_sphere(objective, config: OracleConfig, history: list | None = None):
    """Coarse scan in spherical angles, then iterated window refinement.

    Ties go to the lowest grid index (np.argmin); the incumbent is replaced
    only by a strictly better point, so its objective value is
    non-increasing across iterations.  Returns the point as a numpy array.
    """
    import numpy as np  # noqa: PLC0415 - see the module docstring

    g = config.coarse_grid
    polar = (np.arange(g) + 0.5) * (np.pi / g)
    azimuth = np.arange(g) * (2.0 * np.pi / g)
    pp, aa = np.meshgrid(polar, azimuth, indexing="ij")
    values = objective(_sphere_points(pp, aa))
    i, j = divmod(int(np.argmin(values)), g)
    best_polar, best_azimuth, best_value = polar[i], azimuth[j], float(values[i, j])
    if history is not None:
        history.append(best_value)

    # Window half-widths: 1.5 coarse cells, shrunk each pass.
    half_polar = 1.5 * np.pi / g
    half_azimuth = 3.0 * np.pi / g
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    for _ in range(config.refine_iterations):
        if max(half_polar, half_azimuth) < config.tolerance:
            break
        pg = np.clip(best_polar + half_polar * offsets, 0.0, np.pi)
        ag = (best_azimuth + half_azimuth * offsets) % (2.0 * np.pi)
        pp, aa = np.meshgrid(pg, ag, indexing="ij")
        values = objective(_sphere_points(pp, aa))
        i, j = divmod(int(np.argmin(values)), _REFINE_POINTS)
        if values[i, j] < best_value:
            best_polar, best_azimuth, best_value = pg[i], ag[j], float(values[i, j])
        half_polar *= config.refine_shrink
        half_azimuth *= config.refine_shrink
        if history is not None:
            history.append(best_value)
    return _sphere_points(np.asarray(best_polar), np.asarray(best_azimuth))


def oracle_mle(xi_hat: StokesVector, s: WeightVector, config: OracleConfig | None = None):
    """Corrected estimate by direct objective minimization on the sphere, as
    a numpy array of shape (3,).

    Physical inputs (norm <= 1) are returned unchanged, mirroring the
    projector's identity case.
    """
    import numpy as np  # noqa: PLC0415 - see the module docstring

    xi_hat = np.array(stokes_vector(xi_hat))
    s = np.array(weight_vector(s))
    if config is None:
        config = OracleConfig()
    if norm_squared(xi_hat) <= 1.0:
        return xi_hat
    return _minimize_on_sphere(lambda pts: empirical_kl(xi_hat, s, pts), config)


def negative_log_likelihood(xi: StokesVector, counts: CountRecord) -> float:
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


__all__ = [
    "OracleConfig",
    "empirical_kl",
    "oracle_mle",
    "negative_log_likelihood",
]
