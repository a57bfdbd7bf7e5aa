"""Timing comparison between the closed-form projection and the direct-search oracle.

Each trial draws a random exterior empirical vector (equal weights), runs
both methods on it under the wall clock, and records the max-norm
discrepancy between the two answers.  Absolute times are machine-dependent;
the reproducible claim is the ordering.
"""

from __future__ import annotations

import time
from collections import namedtuple

import numpy as np

from .checks import exterior_point
from .oracle import oracle_mle
from .projector import project_mle

DISCREPANCY_TOL = 1e-4

EQUAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class BenchTrial(namedtuple("BenchTrial", ["index", "projection_ms", "oracle_ms", "discrepancy"])):
    """One exterior point: both methods' wall times and their max-norm
    discrepancy."""

    __slots__ = ()


class BenchResult(
    namedtuple(
        "BenchResult",
        [
            "trials",
            "projection_mean_ms",
            "projection_median_ms",
            "oracle_mean_ms",
            "oracle_median_ms",
            "max_discrepancy",
        ],
    )
):
    """The list of ``BenchTrial`` rows and their summary statistics."""

    __slots__ = ()

    @property
    def speedup(self) -> float:
        return self.oracle_mean_ms / self.projection_mean_ms


def run_benchmark(trials: int, seed: int = 0) -> BenchResult:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    weights = np.asarray(EQUAL_WEIGHTS)
    rows: list[BenchTrial] = []
    for index in range(trials):
        xi_hat = exterior_point(rng)

        t0 = time.perf_counter()
        projected = project_mle(xi_hat, weights)
        t1 = time.perf_counter()
        direct = oracle_mle(xi_hat, weights)
        t2 = time.perf_counter()

        discrepancy = float(np.max(np.abs(np.asarray(projected.xi_star) - direct)))
        rows.append(BenchTrial(index, (t1 - t0) * 1e3, (t2 - t1) * 1e3, discrepancy))

    proj = np.array([r.projection_ms for r in rows])
    orac = np.array([r.oracle_ms for r in rows])
    return BenchResult(
        trials=rows,
        projection_mean_ms=float(proj.mean()),
        projection_median_ms=float(np.median(proj)),
        oracle_mean_ms=float(orac.mean()),
        oracle_median_ms=float(np.median(orac)),
        max_discrepancy=max(r.discrepancy for r in rows),
    )
