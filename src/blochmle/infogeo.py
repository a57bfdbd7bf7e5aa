"""Information geometry of the finite outcome distributions behind tomography.

Three sample spaces appear:

* the binary space of a single spin measurement, with distribution
  ((1+xi)/2, (1-xi)/2) for xi in (-1, 1);
* the product space of k independent spin measurements (k <= 3), with 2^k
  outcomes in fixed lexicographic order, +1 before -1, axis 1 outermost;
* the 6-outcome space of a randomized measurement, where axis i is chosen
  with probability s_i and then read out, ordered
  (axis1,+1), (axis1,-1), (axis2,+1), (axis2,-1), (axis3,+1), (axis3,-1).

Natural logarithms throughout.  The product manifold is an exponential
family with natural parameters theta^i = log((1+xi_i)/(1-xi_i)), expectation
parameters eta_i = (1+xi_i)/2, log partition psi = sum_i log(1+e^theta_i)
and negative entropy phi = theta.eta - psi; the canonical divergence built
from these potentials coincides with the outcome-wise Kullback-Leibler
divergence, which is what `canonical_divergence` lets tests verify.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import InvalidInputError, StokesVector, WeightVector, weight_vector

PROB_SUM_TOL = 1e-12

# Central-difference step of the numeric Fisher matrix, and of the Legendre
# check in ``checks``.
_DIFFERENCE_STEP = 1e-6


def finite_distribution(probs) -> np.ndarray:
    """Validate a probability vector on the open simplex: a 1-d float array,
    strictly positive entries summing to 1."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise InvalidInputError(f"expected a 1-d probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInputError("probability vector has non-finite entries")
    if np.any(p <= 0.0):
        raise InvalidInputError("probability vector must be strictly positive")
    if abs(p.sum() - 1.0) > PROB_SUM_TOL:
        raise InvalidInputError(f"probabilities must sum to 1 (got {p.sum()!r})")
    return p


def _interior(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or not 1 <= xi.size <= 3:
        raise InvalidInputError(f"expected a k-vector with k in {{1,2,3}}, got shape {xi.shape}")
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("non-finite component")
    if np.any(np.abs(xi) >= 1.0):
        raise InvalidInputError(f"components must lie strictly inside (-1, 1), got {xi.tolist()}")
    return xi


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence sum_w p(w) log(p(w)/q(w))."""
    p = finite_distribution(p)
    q = finite_distribution(q)
    if p.size != q.size:
        raise InvalidInputError(f"outcome sets differ: {p.size} vs {q.size}")
    return float(np.sum(p * np.log(p / q)))


def product_distribution(xi) -> np.ndarray:
    """Product of per-axis binary distributions over the 2^k outcome space."""
    xi = _interior(xi)
    probs = np.array([1.0])
    for x in xi:
        probs = np.kron(probs, [(1.0 + x) / 2.0, (1.0 - x) / 2.0])
    return probs


def randomized_distribution(s: WeightVector, xi: StokesVector) -> np.ndarray:
    """6-outcome distribution of a randomized measurement: pick axis i with
    probability s_i, then observe +/-1 with probability (1 +/- xi_i)/2."""
    s = np.asarray(weight_vector(s))
    xi = _interior(xi)
    if xi.size != 3:
        raise InvalidInputError("randomized measurement needs all 3 axes")
    return _six_outcome(s, xi)


def _six_outcome(s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    # Unchecked 6-outcome probabilities, shared by the validating constructor,
    # the central differences below and the simulator's randomized mode.
    out = np.empty(6)
    out[0::2] = s * (1.0 + xi) / 2.0
    out[1::2] = s * (1.0 - xi) / 2.0
    return out


class DualCoordinates(namedtuple("DualCoordinates", ["theta", "eta", "psi", "phi"])):
    """Natural/expectation coordinates of a product distribution (arrays
    ``theta`` and ``eta``), with the Legendre pair of potentials, floats
    ``psi`` and ``phi`` (psi + phi - theta.eta = 0)."""

    __slots__ = ()


def dual_coordinates(xi) -> DualCoordinates:
    """Dual affine coordinates and potentials of the product distribution."""
    xi = _interior(xi)
    theta = np.log((1.0 + xi) / (1.0 - xi))
    eta = (1.0 + xi) / 2.0
    psi = float(np.logaddexp(0.0, theta).sum())
    phi = float(np.dot(theta, eta)) - psi
    return DualCoordinates(theta=theta, eta=eta, psi=psi, phi=phi)


def canonical_divergence(p_xi, q_xi) -> float:
    """Divergence between two product distributions computed purely from the
    dual potentials, psi(theta(q)) + phi(eta(p)) - theta(q).eta(p).

    Never touches outcome-wise sums, so comparing it against
    ``kl_divergence(product_distribution(p), product_distribution(q))`` is a
    genuine cross-check of the dually flat structure, not a tautology.
    """
    cp = dual_coordinates(p_xi)
    cq = dual_coordinates(q_xi)
    if cp.theta.size != cq.theta.size:
        raise InvalidInputError("points live on product manifolds of different dimension")
    return cq.psi + cp.phi - float(np.dot(cq.theta, cp.eta))


def fisher_metric(xi: StokesVector, s: WeightVector) -> np.ndarray:
    """Fisher information matrix of the randomized model in Stokes
    coordinates: diag(s_i / (1 - xi_i^2)).  Scale is fixed to a single
    observation; the projection this metric drives is scale-invariant."""
    xi = _interior(xi)
    s = np.asarray(weight_vector(s))
    if xi.size != 3:
        raise InvalidInputError("Fisher metric is defined on the full 3-axis model")
    return np.diag(s / (1.0 - xi**2))


def _numeric_fisher_matrix(s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """5 x 5 Fisher matrix of the 6-outcome model in the (xi1, xi2, xi3, s1,
    s2) parametrization, s3 = 1 - s1 - s2 implicit, as the score covariance
    sum_w dp(w) dp(w) / p(w) over central-difference derivatives.

    The model is affine in every parameter, so the differences are exact up
    to rounding.  No normalization checks: callers validate.
    """

    def probs(s1, s2, x):
        return _six_outcome(np.array([s1, s2, 1.0 - s1 - s2]), x)

    step = _DIFFERENCE_STEP
    p = probs(s[0], s[1], xi)
    derivs = []
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        derivs.append((probs(s[0], s[1], xi + e) - probs(s[0], s[1], xi - e)) / (2.0 * step))
    derivs.append((probs(s[0] + step, s[1], xi) - probs(s[0] - step, s[1], xi)) / (2.0 * step))
    derivs.append((probs(s[0], s[1] + step, xi) - probs(s[0], s[1] - step, xi)) / (2.0 * step))
    g = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            g[i, j] = float(np.sum(derivs[i] * derivs[j] / p))
    return g


def foliation_orthogonality_defect(s: WeightVector, xi: StokesVector) -> float:
    """Largest Fisher inner product between a state direction and a weight
    direction on the 6-outcome model; zero when the foliation is orthogonal.

    Derivatives are central differences (see ``_numeric_fisher_matrix``).
    """
    s = weight_vector(s)
    xi = _interior(xi)
    if xi.size != 3:
        raise InvalidInputError("orthogonality defect needs all 3 axes")
    return float(np.abs(_numeric_fisher_matrix(s, xi)[:3, 3:]).max())
