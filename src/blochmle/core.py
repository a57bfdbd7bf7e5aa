"""Core domain types for qubit tomography counts and Stokes vectors.

A Stokes vector is a tuple of three Python floats with components in
[-1, 1]; a weight vector holds the per-axis measurement fractions, positive
and summing to 1.  The validating constructors below are the single place
those conventions are enforced, so downstream numerics can assume them.
They accept any 3-sequence of real numbers (lists, tuples, numpy arrays and
numpy scalars) and return plain floats.

One record's estimate is three numbers, so its path (this module, the
projector's solve and the report) works in plain floats and never imports
numpy: a ``blochmle estimate`` process does not pay for loading it.
Modules that work on arrays (the oracle, information geometry, simulator
and checks) convert with ``np.asarray`` where they need to.

The package's records (``CountRecord`` here, ``ProjectionResult``,
``SimulationSpec`` and the rest) are ``collections.namedtuple`` subclasses:
immutable, validated in ``__new__`` (``_replace`` included), and tuples, so
they have a length, unpack, and compare equal to a plain tuple of the same
fields.  ``collections`` is loaded by ``argparse`` and ``json`` anyway, so
the records add no import to an ``estimate`` process.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

# Three floats each; see the module docstring for the conventions.
StokesVector = tuple[float, float, float]
WeightVector = tuple[float, float, float]

WEIGHT_SUM_TOL = 1e-12

# Text converts with float() but is not a number.
_TEXT = (str, bytes)


class InvalidInputError(ValueError):
    """Counts, vectors, or configuration violate their stated contract."""


class SolverError(RuntimeError):
    """A numerical routine failed to reach its own tolerance."""


def _as_count(value, axis: int, side: str) -> int:
    try:
        n = operator.index(value)
    except TypeError:
        raise InvalidInputError(f"axis {axis} {side}: expected an integer, got {value!r}") from None
    if n < 0:
        raise InvalidInputError(f"axis {axis} {side}: negative count {n}")
    return n


class CountRecord(namedtuple("CountRecord", ["n_plus", "n_minus"])):
    """Spin-up / spin-down tallies for the three Pauli measurement axes:
    ``n_plus`` and ``n_minus`` are tuples of three nonnegative ints.

    Every axis must have been measured at least once; an axis with no shots
    has no defined empirical estimate and is rejected outright.
    """

    __slots__ = ()

    def __new__(cls, n_plus, n_minus):
        try:
            (p1, p2, p3), (m1, m2, m3) = n_plus, n_minus
        except (TypeError, ValueError):  # None, a bare number, a wrong length
            raise InvalidInputError("counts are required for exactly 3 axes") from None
        plus = (_as_count(p1, 1, "n_plus"), _as_count(p2, 2, "n_plus"), _as_count(p3, 3, "n_plus"))
        minus = (_as_count(m1, 1, "n_minus"), _as_count(m2, 2, "n_minus"), _as_count(m3, 3, "n_minus"))
        totals = (plus[0] + minus[0], plus[1] + minus[1], plus[2] + minus[2])
        if 0 in totals:
            raise InvalidInputError(f"axis {totals.index(0) + 1}: no measurements recorded")
        return tuple.__new__(cls, (plus, minus))

    @classmethod
    def _make(cls, iterable):
        # so that ``_replace`` validates too
        return cls(*iterable)

    @property
    def axis_totals(self) -> tuple[int, int, int]:
        return tuple(p + m for p, m in zip(self.n_plus, self.n_minus))


def _shape(values) -> tuple:
    """The shape numpy would give ``values``, for error messages."""
    shape = getattr(values, "shape", None)
    if shape is not None:
        return tuple(shape)
    if isinstance(values, _TEXT) or not hasattr(values, "__len__"):
        return ()
    return (len(values),) + (_shape(values[0]) if len(values) else ())


def _number(value) -> bool:
    """Not text, nor an array, which float() reads if it has one element (numpy < 2)."""
    return type(value) is float or not (isinstance(value, _TEXT) or getattr(value, "ndim", 0))


def _three_floats(values, what: str) -> tuple[float, float, float]:
    """Three finite Python floats from a 3-sequence of real numbers, else ``InvalidInputError``.

    A plain tuple of three plain floats, which is what ``temporal_estimate``
    and this function return, needs only the finiteness test and comes back
    as it is.  Any other input (float subclasses such as ``np.float64``,
    ints, bools, namedtuples, lists, arrays) is converted item by item."""
    if (type(values) is tuple and len(values) == 3
            and type(values[0]) is float and type(values[1]) is float and type(values[2]) is float):
        a, b, c = values
    else:
        try:
            a, b, c = values
            # bytes unpack into ints, and a (3, 1) array into 1-element arrays
            numbers = (not isinstance(values, _TEXT) and getattr(values, "shape", (3,)) == (3,)
                       and _number(a) and _number(b) and _number(c))
            if numbers:
                a, b, c = float(a), float(b), float(c)
        except (TypeError, ValueError):
            numbers = False
        except OverflowError:  # an int beyond the float range
            raise InvalidInputError(f"{what} has non-finite components") from None
        if not numbers:
            shape = _shape(values)
            if shape != (3,) and not isinstance(values, _TEXT):
                raise InvalidInputError(f"{what} needs 3 components, got shape {shape}")
            raise InvalidInputError(f"{what} needs 3 real numbers, got {values!r}")
        values = a, b, c
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise InvalidInputError(f"{what} has non-finite components")
    return values


def stokes_vector(components) -> StokesVector:
    """Validate and return a Stokes vector as a tuple of three floats."""
    xi = _three_floats(components, "Stokes vector")
    if not (abs(xi[0]) <= 1.0 and abs(xi[1]) <= 1.0 and abs(xi[2]) <= 1.0):
        raise InvalidInputError(f"Stokes components must lie in [-1, 1], got {list(xi)}")
    return xi


def weight_vector(fractions) -> WeightVector:
    """Validate measurement fractions: strictly positive, summing to 1."""
    s = _three_floats(fractions, "weight vector")
    if not (s[0] > 0.0 and s[1] > 0.0 and s[2] > 0.0):
        raise InvalidInputError(f"weights must be strictly positive, got {list(s)}")
    total = s[0] + s[1] + s[2]
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"weights must sum to 1 (got {total!r})")
    return s


def temporal_estimate(counts: CountRecord) -> tuple[StokesVector, WeightVector]:
    """Empirical estimate from raw counts.

    Returns the per-axis relative frequency difference (n+ - n-)/N_i and the
    measurement fractions N_i/N.  The estimate may fall outside the Bloch
    ball; correcting that is the projector's job.  Both come from Python int
    true division, which is correctly rounded for counts of any size.
    """
    (p1, p2, p3), (m1, m2, m3) = counts
    t1, t2, t3 = p1 + m1, p2 + m2, p3 + m3
    total = t1 + t2 + t3
    return ((p1 - m1) / t1, (p2 - m2) / t2, (p3 - m3) / t3), (t1 / total, t2 / total, t3 / total)


def norm_squared(xi) -> float:
    """Squared Euclidean norm of a 3-vector, summed left to right; the point
    is physical iff this is <= 1."""
    a, b, c = xi
    return float(a * a + b * b + c * c)


def empirical_kl(xi_hat, s, xi) -> float:
    """Weighted per-axis binary KL from the empirical estimate to one model
    point; the objective whose sphere minimizer is the corrected estimate.

    A term with empirical probability 0 drops out (0 log 0 = 0); a model
    probability of 0 against a positive empirical one gives inf.  The report
    and the oracle's search both evaluate this function.
    """
    plus = minus = 0.0
    for a, w, m in zip(xi_hat, s, xi):
        p_hat = (1.0 + a) / 2.0
        if p_hat > 0.0:
            p_model = (1.0 + m) / 2.0
            if p_model > 0.0:  # false for NaN, which clamps to 0
                if p_model > 1.0:
                    p_model = 1.0
                plus += w * (p_hat * (math.log(p_hat) - math.log(p_model)))
            else:
                plus += w * math.inf
        p_hat = (1.0 - a) / 2.0
        if p_hat > 0.0:
            p_model = (1.0 - m) / 2.0
            if p_model > 0.0:
                if p_model > 1.0:
                    p_model = 1.0
                minus += w * (p_hat * (math.log(p_hat) - math.log(p_model)))
            else:
                minus += w * math.inf
    return plus + minus
