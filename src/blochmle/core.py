"""Core domain types for qubit tomography counts and Stokes vectors.

A Stokes vector is a tuple of three Python floats with components in
[-1, 1]; a weight vector holds the per-axis measurement fractions, positive
and summing to 1.  The validating constructors below are the single place
those conventions are enforced, so downstream numerics can assume them.
They accept any iterable of three real numbers but text (lists, tuples,
numpy arrays of shape (3,)) and return plain floats.

Every module reads a library value by one of two rules kept here.  An
integer (a count, a shot count, a seed, a size) is read by
``operator.index``, with bools refused: ints and numpy ints pass, and an
integral float does not (``_integer``).  A real number is a finite float
as ``float()`` reads it, from anything but text, arrays and complex
numbers: bools, ``Fraction``, ``Decimal`` and numpy scalars pass, and an
int beyond the float range is refused as non-finite (``_real``).  Every
vector, the 3-vectors here and the vectors and distributions of
``infogeo``, is read by one reader, ``_floats``: any iterable but text,
each item by the real rule, into a tuple of floats; ``_three_floats`` adds
the length check of a 3-vector.  Either rule raises ``InvalidInputError``,
never a ``TypeError`` or a numpy warning, and a real's refusal names its
type, never its digits.  Two rules narrow the integer one: a seed lies in
[0, 2**64) (``_seed``), and a size such as a shot count, a trial count or
a sample count is no smaller than its least value (``_at_least``).  The
refusals of these three rules and of a negative count print the value
only when its ``repr`` is short, and otherwise name its type (``_shown``).
The worst of several defects or gaps, NaN if any of them is NaN, is taken
by one rule too, ``_worst``: the check gates, ``bench`` and ``estimate
--oracle`` all use it.

One record's estimate is three numbers, so its path (this module, the
projector's solve and the report) works in plain floats and never imports
numpy: a ``blochmle estimate`` process does not pay for loading it.
Modules that work on arrays (the oracle, information geometry and checks)
import it at their top and convert with ``np.asarray`` where they need to;
the simulator imports it, and ``infogeo``, only inside ``simulate``, so a
process that imports the simulator and never draws loads neither.

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


def _shown(value) -> str:
    """``repr(value)`` for a refusal message when it is at most 100
    characters, else ``an over-long <type name>``: an int of more than 4,300
    digits, or a container that holds one, has no ``repr``, and a message
    should not echo a long one."""
    try:
        text = repr(value)
    except ValueError:  # int()'s digit limit, raised from inside repr()
        text = None
    if text is not None and len(text) <= 100:
        return text
    return f"an over-long {type(value).__name__}"


def _integer(value, name: str) -> int:
    """``value`` as an int by ``operator.index``, else ``InvalidInputError``:
    ints and numpy ints pass; bools, floats (integral ones too), text and
    None are refused.  ``name`` is formatted only on refusal, so
    ``CountRecord``, which every record passes, names its counts by
    constants."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InvalidInputError(f"{name}: expected an integer, got {_shown(value)}")


def _seed(value, name: str = "seed") -> int:
    """A seed by ``_integer``, with 0 <= seed < 2**64, else ``InvalidInputError``."""
    seed = _integer(value, name)
    if not 0 <= seed < 2**64:
        raise InvalidInputError(f"{name} must be a 64-bit unsigned integer, got {_shown(seed)}")
    return seed


def _at_least(value, name: str, least: int) -> int:
    """A size by ``_integer``, no smaller than ``least``, else ``InvalidInputError``."""
    n = _integer(value, name)
    if n < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {_shown(n)}")
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
        p1, p2, p3 = _integer(p1, "axis 1 n_plus"), _integer(p2, "axis 2 n_plus"), _integer(p3, "axis 3 n_plus")
        m1, m2, m3 = _integer(m1, "axis 1 n_minus"), _integer(m2, "axis 2 n_minus"), _integer(m3, "axis 3 n_minus")
        if p1 < 0 or p2 < 0 or p3 < 0 or m1 < 0 or m2 < 0 or m3 < 0:
            counts = (p1, p2, p3, m1, m2, m3)
            i = [n < 0 for n in counts].index(True)  # the first negative
            field = f"axis {i % 3 + 1} {('n_plus', 'n_minus')[i // 3]}"
            raise InvalidInputError(f"{field}: negative count {_shown(counts[i])}")
        totals = (p1 + m1, p2 + m2, p3 + m3)
        if 0 in totals:
            raise InvalidInputError(f"axis {totals.index(0) + 1}: no measurements recorded")
        return tuple.__new__(cls, ((p1, p2, p3), (m1, m2, m3)))

    @classmethod
    def _make(cls, iterable):
        # so that ``_replace`` validates too
        return cls(*iterable)

    @property
    def axis_totals(self) -> tuple[int, int, int]:
        return tuple(p + m for p, m in zip(self.n_plus, self.n_minus))


def _number(value) -> bool:
    """Not text, nor an array, which float() reads if it has one element
    (numpy < 2), nor a numpy complex, which float() reads with a
    ``ComplexWarning`` by dropping its imaginary part."""
    return type(value) is float or not (
        isinstance(value, _TEXT) or getattr(value, "ndim", 0)
        or getattr(getattr(value, "dtype", None), "kind", "") == "c"
    )


def _real(value, name: str) -> float:
    """``float(value)`` for a finite real number, else ``InvalidInputError``:
    ints, bools, floats, ``Fraction``, ``Decimal``, numpy scalars and 0-d
    arrays pass; text, other arrays, complex numbers, None, NaN, infinities
    and ints beyond the float range are refused.  A refusal names at most
    the type of ``value``, never its digits: an int of more than 4,300
    digits has no ``str()``."""
    try:
        if not _number(value):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a real number, got {type(value).__name__}") from None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise InvalidInputError(f"{name} must be a real number, got a non-finite one")
    return number


def _floats(values, what: str) -> tuple:
    """The items of ``values`` as a tuple of floats, item ``i`` (from 1) read
    by ``_real`` as ``<what> component <i>``, else ``InvalidInputError``.
    Text, whose items are characters or ints, and what is not iterable are
    refused as a whole."""
    if not isinstance(values, _TEXT):
        try:
            items = enumerate(values, 1)
        except TypeError:  # not iterable
            pass
        else:
            return tuple([_real(x, f"{what} component {i}") for i, x in items])
    raise InvalidInputError(f"{what} needs real numbers, got {type(values).__name__}")


def _three_floats(values, what: str) -> tuple[float, float, float]:
    """Three finite Python floats by ``_floats``, else ``InvalidInputError``.

    A plain tuple of three finite plain floats, which is what
    ``temporal_estimate`` and this function return, comes back as it is
    after the finiteness test alone.  Anything else (float subclasses such
    as ``np.float64``, ints, bools, namedtuples, lists, arrays, and a plain
    tuple with a non-finite float) goes through ``_floats``."""
    if (type(values) is tuple and len(values) == 3
            and type(values[0]) is float and type(values[1]) is float and type(values[2]) is float):
        a, b, c = values
        if math.isfinite(a) and math.isfinite(b) and math.isfinite(c):
            return values
    values = _floats(values, what)
    if len(values) != 3:
        raise InvalidInputError(f"{what} needs 3 components, got shape {(len(values),)}")
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
    true division, which is correctly rounded for counts of any size.  A
    fraction that rounds to 0.0 (N_i/N below the smallest positive float)
    is an ``InvalidInputError`` naming the axis.
    """
    (p1, p2, p3), (m1, m2, m3) = counts
    t1, t2, t3 = p1 + m1, p2 + m2, p3 + m3
    total = t1 + t2 + t3
    s = t1 / total, t2 / total, t3 / total
    if 0.0 in s:
        axis = s.index(0.0) + 1
        raise InvalidInputError(f"axis {axis}: its share of the shots, N_{axis}/N, is below the smallest positive float")
    return ((p1 - m1) / t1, (p2 - m2) / t2, (p3 - m3) / t3), s


def _worst(values) -> float:
    """The largest of ``values``, or NaN if any of them is NaN; a plain
    ``max`` keeps a first NaN and drops a later one, since every comparison
    with NaN is false."""
    values = list(values)
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def norm_squared(xi) -> float:
    """Squared Euclidean norm of a 3-vector, summed left to right; the point
    is physical iff this is <= 1."""
    a, b, c = xi
    return float(a * a + b * b + c * c)


def _kl_term(w, p_hat, p_model) -> float:
    """One outcome's term of ``empirical_kl``, w p_hat log(p_hat / p_model).

    A term with empirical probability 0 is 0.0 (0 log 0 = 0); a model
    probability of 0 or NaN against a positive empirical one gives inf.
    """
    if p_hat > 0.0:
        if p_model > 0.0:  # false for NaN, which counts as probability 0
            return w * (p_hat * (math.log(p_hat) - math.log(p_model)))
        return w * math.inf
    return 0.0


def empirical_kl(xi_hat, s, xi) -> float:
    """Weighted per-axis binary KL from the empirical estimate to one model
    point; the objective whose sphere minimizer is the corrected estimate.

    The model point ``xi`` must lie in [-1, 1]^3, where each model
    probability (1 +- m)/2 is at most 1; a NaN component gives inf.  Every
    caller passes such a point: ``project_mle``'s answers (``cubic_solve``
    roots, with |x_i| <= |xi_hat_i|), the oracle's start 0 and its trial
    points with fl(|x|^2) < 1, the batteries' interior points, and
    ``sphere_point``'s v / sqrt(fl(sum v^2)), at most 1 in each component
    since sqrt(fl(v_i^2)) = |v_i| in binary floating point.  Each outcome's
    term is ``_kl_term``'s, summed into one total for the + outcomes and one
    for the - outcomes.  A term of 0.0 is added, not skipped: neither total
    is ever -0.0, and x + 0.0 == x bit for bit for every other x.  The
    report and the oracle's search both evaluate this function.
    """
    plus = minus = 0.0
    for a, w, m in zip(xi_hat, s, xi):
        plus += _kl_term(w, (1.0 + a) / 2.0, (1.0 + m) / 2.0)
        minus += _kl_term(w, (1.0 - a) / 2.0, (1.0 - m) / 2.0)
    return plus + minus
