"""Seeded inputs for the benchmark workloads.

Counts records are drawn with the benchmark's own numpy Generator (binomial
and multinomial draws), never with ``blochmle.simulate``, so a change to the
simulator cannot change the inputs of the other workloads.  No record is
filtered or redrawn: every axis gets at least one shot by construction.

Record ``i`` of a stream depends only on the seed, the workload and ``i``.
Shot counts follow a golden-ratio (Weyl) sequence over a log-uniform range
from a seeded offset, so every stretch of a few dozen records covers the
range evenly and the cost mix of a run does not depend on luck.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

CHUNK = 64
_GOLDEN = (5**0.5 - 1.0) / 2.0
_TAGS = {"exterior_batch": 1, "interior_batch": 2, "cli_estimate": 3, "synthetic_crosscheck": 4}


@dataclass(frozen=True)
class CountsInput:
    """One counts file, as ``blochmle estimate`` reads it."""

    index: int
    n_plus: tuple[int, int, int]
    n_minus: tuple[int, int, int]
    text: str

    def describe(self) -> str:
        return self.text.replace("\n", " ")


@dataclass(frozen=True)
class SimulationInput:
    """One synthetic experiment: the arguments of ``SimulationSpec``."""

    index: int
    xi_true: tuple[float, float, float]
    mode: str
    n_shots: int
    weights: tuple[float, float, float] | None
    sim_seed: int

    @property
    def shots(self) -> int:
        return 3 * self.n_shots if self.mode == "standard" else self.n_shots

    def describe(self) -> str:
        return json.dumps(self.__dict__)


def _rng(seed: int, workload: str, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, _TAGS[workload], stream])))


def _directions(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _log_uniform(offset: float, start: int, n: int, lo: int, hi: int) -> np.ndarray:
    u = (offset + _GOLDEN * np.arange(start, start + n)) % 1.0
    return np.rint(lo * (hi / lo) ** u).astype(np.int64)


def _axis_shots(rng, per_axis: np.ndarray, randomized: np.ndarray, floor: float) -> np.ndarray:
    """Shots per axis: ``per_axis`` each in standard mode; in randomized mode
    3*per_axis in total, one guaranteed shot per axis plus a multinomial split
    of the rest over Dirichlet(2, 2, 2) weights kept at least ``floor``."""
    n = len(per_axis)
    weights = floor + (1.0 - 3.0 * floor) * rng.dirichlet((2.0, 2.0, 2.0), size=n)
    shots = np.repeat(per_axis[:, None], 3, axis=1)
    for row in np.flatnonzero(randomized):
        shots[row] = 1 + rng.multinomial(3 * per_axis[row] - 3, weights[row])
    return shots


def _json_text(n_plus, n_minus) -> str:
    axes = [{"axis": i + 1, "n_plus": int(n_plus[i]), "n_minus": int(n_minus[i])} for i in range(3)]
    return json.dumps({"axes": axes}, indent=2) + "\n"


def _csv_text(n_plus, n_minus) -> str:
    rows = [f"{i + 1},{int(n_plus[i])},{int(n_minus[i])}" for i in range(3)]
    return "axis,n_plus,n_minus\n" + "\n".join(rows) + "\n"


def counts_chunks(workload: str, seed: int, stream: int = 0):
    """Endless stream of chunks of ``CountsInput`` for a counts workload.

    exterior_batch / cli_estimate: pure and near-pure states, 10-1000 shots
    per axis, standard and randomized weights alternating, JSON files.  About
    two thirds of the empirical vectors land outside the ball; projected
    records are the slow ones, so the median and 90th-percentile records are
    both projected ones, clear of the boundary at the 33rd percentile.
    interior_batch: mixed states with |xi| <= 0.8, 1e3-1e5 shots per axis,
    randomized weights kept >= 0.2 so that no axis is thin, JSON and CSV
    alternating; every empirical vector stays inside the ball.
    """
    rng = _rng(seed, workload, stream)
    interior = workload == "interior_batch"
    offset = rng.random()
    start = 0
    while True:
        n = CHUNK
        if interior:
            radius = 0.8 * rng.random(n) ** (1.0 / 3.0)
            per_axis = _log_uniform(offset, start, n, 1_000, 100_000)
            xi = radius[:, None] * _directions(rng, n)
        else:
            # half: pure states a small tilt away from a Pauli eigenstate, as
            # when calibration states are measured (nearly always exterior);
            # half: random directions, pure or with |xi| in [0.9, 1]
            # (exterior about half the time)
            eigen = np.zeros((n, 3))
            eigen[np.arange(n), rng.integers(0, 3, n)] = rng.choice((-1.0, 1.0), n)
            tilted = eigen + 0.05 * rng.standard_normal((n, 3))
            tilted /= np.linalg.norm(tilted, axis=1, keepdims=True)
            radius = np.where(rng.random(n) < 0.5, 1.0, rng.uniform(0.9, 1.0, n))
            near_eigen = rng.random(n) < 0.5
            xi = np.where(near_eigen[:, None], tilted, radius[:, None] * _directions(rng, n))
            per_axis = _log_uniform(offset, start, n, 10, 1_000)
        randomized = (np.arange(start, start + n) % 2) == 1
        shots = _axis_shots(rng, per_axis, randomized, 0.2 if interior else 0.0)
        n_plus = rng.binomial(shots, np.clip((1.0 + xi) / 2.0, 0.0, 1.0))
        n_minus = shots - n_plus
        chunk = []
        for row in range(n):
            index = start + row
            plus = tuple(int(v) for v in n_plus[row])
            minus = tuple(int(v) for v in n_minus[row])
            csv_row = interior and index % 2 == 1
            text = _csv_text(plus, minus) if csv_row else _json_text(plus, minus)
            chunk.append(CountsInput(index, plus, minus, text))
        yield chunk
        start += n


def simulation_chunks(seed: int, stream: int = 0):
    """Endless stream of chunks of ``SimulationInput`` (synthetic_crosscheck):
    true states on the sphere, 1e5-1e6 shots (per axis in standard mode, in
    total in randomized mode), the two modes alternating."""
    rng = _rng(seed, "synthetic_crosscheck", stream)
    offset = rng.random()
    start = 0
    while True:
        n = CHUNK
        xi = _directions(rng, n)
        n_shots = _log_uniform(offset, start, n, 100_000, 1_000_000)
        weights = rng.dirichlet((2.0, 2.0, 2.0), size=n)
        sim_seeds = rng.integers(0, 2**63, size=n)
        chunk = []
        for row in range(n):
            index = start + row
            randomized = index % 2 == 1
            w = weights[row] / weights[row].sum()
            chunk.append(
                SimulationInput(
                    index=index,
                    xi_true=tuple(float(v) for v in xi[row]),
                    mode="randomized" if randomized else "standard",
                    n_shots=int(n_shots[row]),
                    weights=tuple(float(v) for v in w) if randomized else None,
                    sim_seed=int(sim_seeds[row]),
                )
            )
        yield chunk
        start += n


def stream(workload: str, seed: int, stream_id: int = 0):
    """Records of a workload one at a time, in index order."""
    chunks = simulation_chunks(seed, stream_id) if workload == "synthetic_crosscheck" else counts_chunks(workload, seed, stream_id)
    for chunk in chunks:
        yield from chunk


def pool(workload: str, seed: int, size: int) -> list:
    """The first ``size`` records of the workload's main stream: the fixed
    set a run's timed loop cycles through."""
    return list(itertools.islice(stream(workload, seed), size))
