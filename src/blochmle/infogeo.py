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

The module holds these closed forms only.  The numeric derivatives that
check them against the model, the score covariance behind the Fisher
metric and the theta-gradient of psi, live in ``checks``.  Every vector
and distribution it takes is read by core's vector reader (``_floats``),
then checked for its length, range and, for a distribution, a sum within
core's ``WEIGHT_SUM_TOL`` of 1.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import WEIGHT_SUM_TOL, InvalidInputError, StokesVector, WeightVector, _floats, weight_vector


def finite_distribution(probs) -> np.ndarray:
    """Validate a probability vector on the open simplex: a 1-d float array
    of at least 2 strictly positive entries summing to 1."""
    p = np.array(_floats(probs, "probability vector"))
    if p.size < 2:
        raise InvalidInputError(f"expected at least 2 probabilities, got {p.size}")
    if np.any(p <= 0.0):
        raise InvalidInputError("probability vector must be strictly positive")
    if abs(p.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"probabilities must sum to 1 (got {float(p.sum())!r})")
    return p


def _interior(xi, sizes=(1, 2, 3)) -> np.ndarray:
    """``xi`` as a float vector of a length in ``sizes``, inside (-1, 1)^k."""
    xi = np.array(_floats(xi, "state vector"))
    if xi.size not in sizes:
        raise InvalidInputError(f"expected a {'/'.join(map(str, sizes))}-vector, got shape {xi.shape}")
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
    return _six_outcome(np.asarray(weight_vector(s)), _interior(xi, sizes=(3,)))


def _six_outcome(s: np.ndarray, xi: np.ndarray) -> np.ndarray:
    # Unchecked 6-outcome probabilities, shared by the validating constructor
    # and the simulator's randomized mode.
    out = np.empty(6)
    out[0::2] = s * (1.0 + xi) / 2.0
    out[1::2] = s * (1.0 - xi) / 2.0
    return out


class DualCoordinates(namedtuple("DualCoordinates", ["theta", "eta", "psi", "phi"])):
    """Natural/expectation coordinates of a product distribution (arrays
    ``theta`` and ``eta``), with the Legendre pair of potentials, floats
    ``psi`` and ``phi`` (psi + phi - theta.eta = 0)."""

    __slots__ = ()


def _log_partition(theta) -> float:
    """psi(theta) = sum_i log(1 + e^theta_i), computed without overflow."""
    return float(np.logaddexp(0.0, theta).sum())


def dual_coordinates(xi) -> DualCoordinates:
    """Dual affine coordinates and potentials of the product distribution."""
    xi = _interior(xi)
    theta = np.log((1.0 + xi) / (1.0 - xi))
    eta = (1.0 + xi) / 2.0
    psi = _log_partition(theta)
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
    xi = _interior(xi, sizes=(3,))
    s = np.asarray(weight_vector(s))
    return np.diag(s / (1.0 - xi**2))
