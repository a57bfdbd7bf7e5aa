"""Synthetic tomography counts with a fixed, portable random generator.

All randomness is drawn as 53-bit uniforms from numpy's counter-based
Philox bit generator and mapped through the inverse CDF of the outcome
distribution in its canonical order: outcome k takes the uniforms u with
cdf[k-1] <= u < cdf[k], in both modes (``_tally``), so a given spec
reproduces identical counts on any platform.  Standard mode tallies
(+1, -1) on one substream per axis, spawned deterministically from the
seed; randomized mode tallies the six outcomes on a single stream.

numpy and ``infogeo`` load at the first ``simulate``, not at import:
importing this module or building a ``SimulationSpec`` loads neither, so a
process that imports the simulator and never draws does not pay for them.
"""

from __future__ import annotations

from collections import namedtuple

from .core import CountRecord, InvalidInputError, _at_least, _seed, _three_floats, norm_squared, weight_vector

MODES = ("standard", "randomized")

# Uniforms are drawn this many at a time, so memory stays flat in n_shots;
# consecutive draws from one generator continue the same stream, so the
# counts equal those of a single draw of n_shots.
DRAW_CHUNK = 1 << 16

# Grace for pure states normalized in floating point (norm^2 = 1 +/- few ulp).
_NORM_SLACK = 1e-12


class SimulationSpec(
    namedtuple("SimulationSpec", ["xi_true", "mode", "n_shots", "weights", "seed"], defaults=(None, 0))
):
    """Ground truth and sampling plan for one synthetic experiment.

    ``xi_true`` is a tuple of three floats in the unit ball, ``mode`` one of
    ``MODES``, ``weights`` a weight vector (randomized mode) or None, and
    ``n_shots`` and ``seed`` are ints, read by core's size rule (at least 1)
    and seed rule (0 <= seed < 2**64); an integral float or a bool is
    refused.  ``n_shots`` counts measurements per
    axis in standard mode and in total in randomized mode, where one of the
    three axes is picked each shot with the given weights.  ``xi_true``
    passes core's 3-vector rule (no text), with norm^2 <= 1 + 1e-12.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        # the generated __new__ binds the arguments and fills in the defaults
        xi_true, mode, n_shots, weights, seed = super().__new__(cls, *args, **kwargs)
        xi = _three_floats(xi_true, "xi_true")
        if norm_squared(xi) > 1.0 + _NORM_SLACK:
            raise InvalidInputError(f"xi_true must lie in the unit ball, got norm^2 = {norm_squared(xi)}")
        if mode not in MODES:
            raise InvalidInputError(f"mode must be one of {MODES}, got {mode!r}")
        n_shots = _at_least(n_shots, "n_shots", 1)
        if mode == "randomized":
            if weights is None:
                raise InvalidInputError("randomized mode needs axis weights")
            weights = weight_vector(weights)
        elif weights is not None:
            raise InvalidInputError("standard mode takes no weights (every axis gets n_shots)")
        seed = _seed(seed)
        return super().__new__(cls, xi, mode, n_shots, weights, seed)

    @classmethod
    def _make(cls, iterable):
        # so that ``_replace`` validates too
        return cls(*iterable)


def _tally(rng, cdf, n: int) -> list[int]:
    """Outcome counts of ``n`` uniforms from the numpy generator ``rng``:
    outcome k takes the u with cdf[k-1] <= u < cdf[k].  The last entry
    stands for 1 whatever its value, so the counts sum to ``n``; the others
    must not decrease."""
    import numpy as np  # noqa: PLC0415 - see the module docstring

    below = [0] * len(cdf)  # below[k]: the uniforms under cdf[k]
    below[-1] = n
    for start in range(0, n, DRAW_CHUNK):
        u = rng.random(min(DRAW_CHUNK, n - start))
        for k in range(len(cdf) - 1):
            below[k] += int(np.count_nonzero(u < cdf[k]))
    return [below[0]] + [hi - lo for lo, hi in zip(below, below[1:])]


def simulate(spec: SimulationSpec) -> CountRecord:
    """Draw counts for the given spec; bit-identical for identical specs.

    Raises if sampling leaves some axis with zero shots (possible in
    randomized mode with very small ``n_shots``), since such a record has
    no defined empirical estimate.
    """
    import numpy as np  # noqa: PLC0415 - see the module docstring

    from .infogeo import _six_outcome  # noqa: PLC0415 - see the module docstring

    root = np.random.SeedSequence(spec.seed)
    if spec.mode == "standard":
        tallies = []
        for x, child in zip(spec.xi_true, root.spawn(3)):
            tallies += _tally(np.random.Generator(np.random.Philox(child)), ((1.0 + x) / 2.0, 1.0), spec.n_shots)
    else:
        probs = np.clip(_six_outcome(np.asarray(spec.weights), np.asarray(spec.xi_true)), 0.0, None)
        tallies = _tally(np.random.Generator(np.random.Philox(root)), np.cumsum(probs), spec.n_shots)
    return CountRecord(tallies[0::2], tallies[1::2])
