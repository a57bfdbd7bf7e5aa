"""Synthetic tomography counts with a fixed, portable random generator.

All randomness is drawn as 53-bit uniforms from numpy's counter-based
Philox bit generator and mapped through the inverse CDF of the outcome
distribution in its canonical order, so a given spec reproduces identical
counts on any platform.  Standard mode uses one substream per axis, spawned
deterministically from the seed; randomized mode uses a single stream.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import _TEXT, CountRecord, InvalidInputError, weight_vector
from .infogeo import _six_outcome

MODES = ("standard", "randomized")

# Uniforms are drawn this many at a time, so memory stays flat in n_shots;
# consecutive draws from one generator continue the same stream, so the
# counts equal those of a single draw of n_shots.
DRAW_CHUNK = 1 << 16

# Grace for pure states normalized in floating point (norm^2 = 1 +/- few ulp).
_NORM_SLACK = 1e-12


def _integer(value, name: str) -> int:
    """An int from an int, a numpy int or an integral float; text, fractions,
    NaN, inf and None are refused with an ``InvalidInputError``."""
    if not isinstance(value, _TEXT):
        try:
            n = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if n == value:
                return n
    raise InvalidInputError(f"{name} must be an integer, got {value!r}")


class SimulationSpec(
    namedtuple("SimulationSpec", ["xi_true", "mode", "n_shots", "weights", "seed"], defaults=(None, 0))
):
    """Ground truth and sampling plan for one synthetic experiment.

    ``xi_true`` is a tuple of three floats in the unit ball, ``mode`` one of
    ``MODES``, ``weights`` a weight vector (randomized mode) or None, and
    ``n_shots`` and ``seed`` are ints.  ``n_shots`` counts measurements per
    axis in standard mode and in total in randomized mode, where one of the
    three axes is picked each shot with the given weights.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the generated __new__ binds the arguments and fills in the defaults
        xi_true, mode, n_shots, weights, seed = super().__new__(cls, *args, **kwargs)
        xi = np.asarray(xi_true, dtype=float)
        if xi.shape != (3,) or not np.all(np.isfinite(xi)):
            raise InvalidInputError(f"xi_true must be a finite 3-vector, got {xi_true!r}")
        if float(np.dot(xi, xi)) > 1.0 + _NORM_SLACK:
            raise InvalidInputError(f"xi_true must lie in the unit ball, got norm^2 = {np.dot(xi, xi)}")
        if mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
        n_shots = _integer(n_shots, "n_shots")
        if n_shots < 1:
            raise InvalidInputError(f"n_shots must be >= 1, got {n_shots}")
        if mode == "randomized":
            if weights is None:
                raise InvalidInputError("randomized mode needs axis weights")
            weights = weight_vector(weights)
        elif weights is not None:
            raise InvalidInputError("standard mode takes no weights (every axis gets n_shots)")
        seed = _integer(seed, "seed")
        if not 0 <= seed < 2**64:
            raise InvalidInputError(f"seed must be a 64-bit unsigned integer, got {seed}")
        return super().__new__(cls, tuple(float(x) for x in xi), mode, n_shots, weights, seed)

    @classmethod
    def _make(cls, iterable):
        # so that ``_replace`` validates too
        return cls(*iterable)


def _axis_streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.Philox(child)) for child in np.random.SeedSequence(seed).spawn(n)]


def _uniform_chunks(rng: np.random.Generator, n: int):
    for start in range(0, n, DRAW_CHUNK):
        yield rng.random(min(DRAW_CHUNK, n - start))


def simulate(spec: SimulationSpec) -> CountRecord:
    """Draw counts for the given spec; bit-identical for identical specs.

    Raises if sampling leaves some axis with zero shots (possible in
    randomized mode with very small ``n_shots``), since such a record has
    no defined empirical estimate.
    """
    xi = np.asarray(spec.xi_true, dtype=float)
    if spec.mode == "standard":
        n_plus = []
        for axis, rng in enumerate(_axis_streams(spec.seed, 3)):
            p_up = min(max((1.0 + xi[axis]) / 2.0, 0.0), 1.0)
            chunks = _uniform_chunks(rng, spec.n_shots)
            n_plus.append(sum(int(np.count_nonzero(u < p_up)) for u in chunks))
        n_minus = [spec.n_shots - p for p in n_plus]
        return CountRecord(tuple(n_plus), tuple(n_minus))

    probs = np.clip(_six_outcome(np.asarray(spec.weights, dtype=float), xi), 0.0, None)
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    tallies = sum(
        np.bincount(np.searchsorted(cdf, u, side="right"), minlength=6)
        for u in _uniform_chunks(rng, spec.n_shots)
    )
    return CountRecord(tuple(int(t) for t in tallies[0::2]), tuple(int(t) for t in tallies[1::2]))
