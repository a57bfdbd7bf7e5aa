"""Core domain types for qubit tomography counts and Stokes vectors.

A Stokes vector is a plain float ndarray of shape (3,) with components in
[-1, 1]; a weight vector holds the per-axis measurement fractions, positive
and summing to 1.  The validating constructors below are the single place
those conventions are enforced, so downstream numerics can assume them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Shape-(3,) float arrays; see the module docstring for the conventions.
StokesVector = np.ndarray
WeightVector = np.ndarray

WEIGHT_SUM_TOL = 1e-12


class InvalidInputError(ValueError):
    """Counts, vectors, or configuration violate their stated contract."""


class SolverError(RuntimeError):
    """A numerical routine failed to reach its own tolerance."""


def _as_count(value, field: str) -> int:
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{field}: expected an integer, got {value!r}") from None
    if n < 0:
        raise InvalidInputError(f"{field}: negative count {n}")
    return n


@dataclass(frozen=True)
class CountRecord:
    """Spin-up / spin-down tallies for the three Pauli measurement axes.

    Every axis must have been measured at least once; an axis with no shots
    has no defined empirical estimate and is rejected outright.
    """

    n_plus: tuple[int, int, int]
    n_minus: tuple[int, int, int]

    def __post_init__(self):
        if len(self.n_plus) != 3 or len(self.n_minus) != 3:
            raise InvalidInputError("counts are required for exactly 3 axes")
        plus = tuple(_as_count(n, f"axis {i + 1} n_plus") for i, n in enumerate(self.n_plus))
        minus = tuple(_as_count(n, f"axis {i + 1} n_minus") for i, n in enumerate(self.n_minus))
        for i in range(3):
            if plus[i] + minus[i] == 0:
                raise InvalidInputError(f"axis {i + 1}: no measurements recorded")
        object.__setattr__(self, "n_plus", plus)
        object.__setattr__(self, "n_minus", minus)

    @property
    def axis_totals(self) -> tuple[int, int, int]:
        return tuple(p + m for p, m in zip(self.n_plus, self.n_minus))

    @property
    def total(self) -> int:
        return sum(self.axis_totals)


def stokes_vector(components) -> StokesVector:
    """Validate and return a Stokes vector as a float array of shape (3,)."""
    xi = np.asarray(components, dtype=float)
    if xi.shape != (3,):
        raise InvalidInputError(f"Stokes vector needs 3 components, got shape {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("Stokes vector has non-finite components")
    if np.any(np.abs(xi) > 1.0):
        raise InvalidInputError(f"Stokes components must lie in [-1, 1], got {xi.tolist()}")
    return xi


def weight_vector(fractions) -> WeightVector:
    """Validate measurement fractions: strictly positive, summing to 1."""
    s = np.asarray(fractions, dtype=float)
    if s.shape != (3,):
        raise InvalidInputError(f"weight vector needs 3 components, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("weight vector has non-finite components")
    if np.any(s <= 0.0):
        raise InvalidInputError(f"weights must be strictly positive, got {s.tolist()}")
    if abs(s.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"weights must sum to 1 (got {s.sum()!r})")
    return s


def temporal_estimate(counts: CountRecord) -> tuple[StokesVector, WeightVector]:
    """Empirical estimate from raw counts.

    Returns the per-axis relative frequency difference (n+ - n-)/N_i and the
    measurement fractions N_i/N.  The estimate may fall outside the Bloch
    ball; correcting that is the projector's job.  Both come from Python int
    true division, which is correctly rounded for counts of any size.
    """
    totals = counts.axis_totals
    total = sum(totals)
    xi = [(p - m) / t for p, m, t in zip(counts.n_plus, counts.n_minus, totals)]
    return np.array(xi), np.array([t / total for t in totals])


def norm_squared(xi) -> float:
    """Squared Euclidean norm; the point is physical iff this is <= 1."""
    xi = np.asarray(xi, dtype=float)
    return float(np.dot(xi, xi))
