"""Seeded invariant batteries and the gate table behind the ``check`` CLI
subcommand, the timing battery behind ``bench``, and the error-versus-N
sweep (``consistency_errors``) behind ``sweep``.

Each battery fixes its own size and takes only a seed; the sweep fixes its
shot counts, ``SWEEP_SHOTS``, and takes a seed count and a base seed.
Every seed here, a battery's, ``run_benchmark``'s and
``consistency_errors``' base seed, is read by core's seed rule
(0 <= seed < 2**64): numpy's generator is made in one place, ``_rng``, and
the simulator batteries pass theirs to ``SimulationSpec``.  Their sizes
are read by core's size rule.  A numeric battery yields one defect per
instance it checks, and its gate compares their worst by core's
``_worst``, NaN if any of them is NaN, so a NaN defect fails its gate; a
yes/no battery returns whether its property held.  ``GATES`` holds one row
per check: its suite, its name, its battery and its bound, written only
there; ``run_gates`` takes ``"all"`` or one suite of that table, refuses
any other name, and runs the rows it names.  The ``check`` command, the
tests and the acceptance criteria all run each battery at its size and
read its bound from its row.  ``run_benchmark`` returns its trials, and
every summary of them is read from those rows; ``consistency_errors``
returns the RMSE, median and slopes that ``sweep`` prints.

The tolerance that ``bench`` and ``estimate --oracle`` judge the
projector and the direct search by is ``oracle.DISCREPANCY_TOL``, kept
with the search it judges, so that ``estimate --oracle`` does not import
this module; both take their worst gap by ``_worst`` too.  Every
projector battery but the fixed cubic grid, six in all, reads its
exterior instances from one stream, ``_exterior_projections``, fed its own
generator; the two that also draw sphere points, or a permutation and a
flip, draw them from that generator between instances, and
``shrinkage_ok`` draws its zero-component inputs from it after its last
instance, so that it projects only those.

``infogeo`` holds the paper's closed forms; the numeric derivatives that
check them are here, each formed by ``_central_difference``.  The Fisher
metric's gate and the foliation's read the state rows of one numeric
Fisher matrix (``_fisher_rows``), the state-state and the state-weight
block, from one stream of points, ``_fisher_samples``.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import namedtuple
from itertools import islice

import numpy as np

from .core import InvalidInputError, _at_least, _seed, _worst, empirical_kl, norm_squared, temporal_estimate
from .infogeo import (
    _log_partition,
    canonical_divergence,
    dual_coordinates,
    fisher_metric,
    kl_divergence,
    product_distribution,
    randomized_distribution,
)
from .oracle import oracle_mle
from .projector import _evaluate, cubic_solve, project_mle
from .simulator import SimulationSpec, simulate

# step of the central differences of the infogeo batteries
_DIFFERENCE_STEP = 1e-6

# consistency_errors: the pure state (1, 1, 1)/sqrt(3), measured with equal
# weights at each shot count of SWEEP_SHOTS
SWEEP_SHOTS = (100, 1000, 10000, 100000)
CONSISTENCY_STATE = (0.5773502691896258, 0.5773502691896258, 0.5773502691896258)
EQUAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


class CheckOutcome(namedtuple("CheckOutcome", ["name", "passed", "detail"])):
    """One named invariant: whether it held, and its worst defect as text."""

    __slots__ = ()


def _battery(defects):
    """A battery that yields its defects, as one that returns their worst."""

    @functools.wraps(defects)
    def battery(seed=0) -> float:
        return _worst(defects(seed))

    return battery


# --- samplers -------------------------------------------------------------

def _rng(seed):
    """numpy's generator for ``seed``, read by core's seed rule: the one
    draw of every battery and of ``run_benchmark``."""
    return np.random.default_rng(_seed(seed))


def interior_point(rng, k=3, bound=0.99):
    return rng.uniform(-bound, bound, k)


def random_weights(rng):
    w = rng.uniform(0.1, 1.0, 3)
    return w / w.sum()


def exterior_point(rng):
    while True:
        xi = rng.uniform(-1.0, 1.0, 3)
        if norm_squared(xi) > 1.0:
            return xi


def sphere_point(rng):
    v = rng.normal(size=3)
    return v / math.sqrt(norm_squared(v))


# --- distribution-geometry batteries --------------------------------------

@_battery
def gibbs_defect(seed=0):
    """Worst violation of kl >= 0 (equality only at p = q)."""
    rng = _rng(seed)
    for _ in range(200):
        size = int(rng.integers(2, 7))
        p = rng.random(size) + 0.05
        q = rng.random(size) + 0.05
        p, q = p / p.sum(), q / q.sum()
        yield -kl_divergence(p, q)
        yield abs(kl_divergence(p, p))


@_battery
def canonical_kl_defect(seed=0):
    """Max |potential-based divergence - outcome-sum KL| over k in {1,2,3}."""
    rng = _rng(seed)
    for k in (1, 2, 3):
        for _ in range(1000):
            p_xi = interior_point(rng, k)
            q_xi = interior_point(rng, k)
            direct = kl_divergence(product_distribution(p_xi), product_distribution(q_xi))
            yield abs(canonical_divergence(p_xi, q_xi) - direct)


@_battery
def marginal_decomposition_defect(seed=0):
    """6-outcome KL at shared weights vs the weighted sum of binary KLs."""
    rng = _rng(seed)
    for _ in range(100):
        s = random_weights(rng)
        xi_p = interior_point(rng)
        xi_q = interior_point(rng)
        whole = kl_divergence(randomized_distribution(s, xi_p), randomized_distribution(s, xi_q))
        split = empirical_kl(xi_p, s, xi_q)
        yield abs(whole - split)


@_battery
def pythagorean_defect(seed=0):
    """Additivity D(p_hat||p) = D(p_hat||mid) + D(mid||p) across the
    weight/state foliation, for random weights and states on both sides."""
    rng = _rng(seed)
    for _ in range(100):
        s_hat, s = random_weights(rng), random_weights(rng)
        xi_hat, xi = interior_point(rng), interior_point(rng)
        top = randomized_distribution(s_hat, xi_hat)
        mid = randomized_distribution(s_hat, xi)
        bot = randomized_distribution(s, xi)
        yield abs(kl_divergence(top, bot) - kl_divergence(top, mid) - kl_divergence(mid, bot))


def _central_difference(f, x, i):
    """d f / d x_i at the float array ``x``, by a central difference."""
    step = np.zeros(len(x))
    step[i] = _DIFFERENCE_STEP
    return (f(x + step) - f(x - step)) / (2.0 * _DIFFERENCE_STEP)


def _fisher_rows(s, xi) -> np.ndarray:
    """Rows xi1..xi3 of the Fisher matrix of the 6-outcome model in the
    (xi1, xi2, xi3, s1, s2) parametrization, s3 = 1 - s1 - s2, as the score
    covariance sum_w dp(w) dp(w) / p(w) over central-difference derivatives.
    Columns 0..2 hold the state-state block, 3..4 the state-weight block.

    The model is affine in every parameter, so the differences are exact up
    to rounding.
    """

    def probs(v):
        return randomized_distribution((v[3], v[4], 1.0 - v[3] - v[4]), v[:3])

    v = np.array([xi[0], xi[1], xi[2], s[0], s[1]])
    d = np.array([_central_difference(probs, v, i) for i in range(5)])
    return np.sum(d[:3, None] * d / probs(v), axis=2)


def _fisher_samples(seed):
    """100 random interior points with random weights, each as (s, xi, the
    ``_fisher_rows`` there): one stream for the Fisher metric's gate and
    the foliation's."""
    rng = _rng(seed)
    for _ in range(100):
        s = random_weights(rng)
        xi = interior_point(rng, bound=0.95)
        yield s, xi, _fisher_rows(s, xi)


@_battery
def fisher_agreement_defect(seed=0):
    """Entrywise gap between the analytic metric and the score-covariance
    expectation computed from the 6-outcome model by central differences."""
    for s, xi, rows in _fisher_samples(seed):
        yield from np.abs(fisher_metric(xi, s) - rows[:, :3]).ravel().tolist()


@_battery
def legendre_defect(seed=0):
    """|eta_i - d psi / d theta_i| by central differences."""
    rng = _rng(seed)
    for _ in range(100):
        coords = dual_coordinates(interior_point(rng))
        for i in range(3):
            yield abs(_central_difference(_log_partition, coords.theta, i) - coords.eta[i])


@_battery
def foliation_defect(seed=0):
    """Largest Fisher inner product between a state direction and a weight
    direction; zero where the weight and state slices meet orthogonally."""
    for _, _, rows in _fisher_samples(seed):
        yield float(np.abs(rows[:, 3:]).max())


# --- projector batteries ---------------------------------------------------

def _exterior_projections(rng):
    """Random exterior inputs with random weights, drawn from ``rng``,
    without end: each as (xi_hat, s, its projection).  A draw the caller
    makes from ``rng`` between two instances comes between their draws."""
    while True:
        xi_hat = exterior_point(rng)
        s = random_weights(rng)
        yield xi_hat, s, project_mle(xi_hat, s)


@_battery
def projection_residual_battery(seed=0):
    """Worst norm or equation residual of the projections."""
    for _, _, res in islice(_exterior_projections(_rng(seed)), 1000):
        yield res.norm_residual
        yield from res.equation_residuals


def shrinkage_ok(seed=0) -> bool:
    """Each projected component keeps its input's sign and is smaller in
    magnitude; a zero component stays zero.  Checked on the shared stream's
    first 1000 instances, then on those of the next 300 draws of its
    generator, each an exterior point and weights as the stream draws them,
    that stay outside the ball with component k % 3 of the k-th set to
    exactly 0 (uniform draws all but never give a 0).  Only those are
    projected."""
    rng = _rng(seed)
    checked = [(xi_hat, res.xi_star) for xi_hat, _, res in islice(_exterior_projections(rng), 1000)]
    for k in range(300):
        xi_hat, s = exterior_point(rng), random_weights(rng)
        xi_hat[k % 3] = 0.0
        if norm_squared(xi_hat) > 1.0:
            checked.append((xi_hat, project_mle(xi_hat, s).xi_star))
    for xi_hat, xi_star in checked:
        for a, x in zip(xi_hat, xi_star):
            if a == 0.0:
                if x != 0.0:
                    return False
            elif math.copysign(1.0, x) != math.copysign(1.0, a) or not abs(x) < abs(a):
                return False
    return True


@_battery
def projection_orthogonality_defect(seed=0):
    """The projection theorem: the correction step, lowered by the Fisher
    metric to w = g (xi_hat - x), is normal to the sphere at x, so w's part
    along the sphere, w - (w.x / |x|^2) x, is zero.  Yields its 2-norm on
    200 projections; excludes metric-singular axes."""
    regular = (
        (xi_hat, s, np.asarray(res.xi_star))
        for xi_hat, s, res in _exterior_projections(_rng(seed))
        # metric singular; algebraic solution still returned
        if not any(1.0 - abs(c) < 1e-12 for c in res.xi_star)
    )
    for xi_hat, s, x in islice(regular, 200):
        w = np.diag(fisher_metric(x, s)) * (xi_hat - x)
        yield math.sqrt(norm_squared(w - (w @ x / norm_squared(x)) * x))


@_battery
def projection_optimality_defect(seed=0):
    """How much a random sphere point ever beats the projected estimate in
    empirical KL (positive would contradict global optimality)."""
    rng = _rng(seed)
    for xi_hat, s, res in islice(_exterior_projections(rng), 20):
        base = empirical_kl(xi_hat, s, res.xi_star)
        for _ in range(200):
            yield base - empirical_kl(xi_hat, s, sphere_point(rng))


@_battery
def equivariance_defect(seed=0):
    """Axis permutations permute the answer; sign flips flip it."""
    rng = _rng(seed)
    for xi_hat, s, res in islice(_exterior_projections(rng), 100):
        x = np.asarray(res.xi_star)

        perm = rng.permutation(3)
        x_perm = project_mle(xi_hat[perm], s[perm]).xi_star
        yield from np.abs(x_perm - x[perm]).tolist()

        flip = np.where(rng.random(3) < 0.5, -1.0, 1.0)
        x_flip = project_mle(xi_hat * flip, s).xi_star
        yield from np.abs(x_flip - x * flip).tolist()


@_battery
def cubic_grid_residuals(seed=0):
    """Worst back-substitution residual of the closed form on a 25 x 41 log x
    linear grid, mu in [1e-6, 1e6] and a in [-1, 1]: absolute where
    mu <= 1e4, divided by 1 + mu above.

    The raw residual scales with the equation itself (|f'| ~ 1 + mu), and
    for mu beyond ~1e4 even the correctly rounded root exceeds 1e-12 in
    absolute terms, so the scale-normalized residual carries the contract
    there; below, the absolute one is at least as large.  The grid is fixed:
    ``seed`` is unused, and there so that ``run_gates`` calls every battery
    alike.
    """
    for mu in np.logspace(-6.0, 6.0, 25):
        for a in np.linspace(-1.0, 1.0, 41):
            x = cubic_solve(float(mu), float(a))
            residual = abs(x * (1.0 - x * x) - mu * (a - x))
            yield residual if mu <= 1e4 else residual / (1.0 + mu)


def lambda_monotonicity_ok(seed=0) -> bool:
    """Norm residual strictly increases along lambda on a log grid spanning
    the solved multiplier, below zero at its first point and above at its
    last, so it crosses zero exactly once there."""
    for xi_hat, s, res in islice(_exterior_projections(_rng(seed)), 50):
        grid = np.logspace(-6.0, math.log10(4.0 * res.lambda_star), 48)
        r = [_evaluate(g, s, xi_hat)[0] for g in grid]
        if not (r[0] < 0.0 < r[-1] and all(a < b for a, b in zip(r, r[1:]))):
            return False
    return True


# --- simulator batteries ----------------------------------------------------

def reproducibility_ok(seed=0) -> bool:
    specs = [
        SimulationSpec(xi_true=(0.3, -0.2, 0.5), mode="standard", n_shots=5000, seed=seed),
        SimulationSpec(
            xi_true=(0.3, -0.2, 0.5),
            mode="randomized",
            n_shots=5000,
            weights=(0.5, 0.3, 0.2),
            seed=seed,
        ),
    ]
    return all(simulate(spec) == simulate(spec) for spec in specs)


@_battery
def weight_lln_defect(seed=0):
    """Max deviation of realized axis fractions from their targets, in
    units of the 5-sigma multinomial band."""
    s = EQUAL_WEIGHTS
    n_shots = 300000
    spec = SimulationSpec(xi_true=(0.2, 0.1, -0.3), mode="randomized", n_shots=n_shots, weights=s, seed=seed)
    counts = simulate(spec)
    for i in range(3):
        band = 5.0 * math.sqrt(s[i] * (1.0 - s[i]) / n_shots)
        yield abs(counts.axis_totals[i] / n_shots - s[i]) / band


def pure_state_ok(seed=0) -> bool:
    """The pure state along axis 1, measured 1000 times per axis, never
    gives the minus outcome on that axis."""
    pure = simulate(SimulationSpec(xi_true=(1.0, 0.0, 0.0), mode="standard", n_shots=1000, seed=seed))
    return pure.n_minus[0] == 0


def consistency_errors(seeds_per_n=100, base_seed=0) -> dict:
    """Estimation error versus shot count under randomized sampling of
    ``CONSISTENCY_STATE`` with ``EQUAL_WEIGHTS``, ``seeds_per_n`` runs at
    each shot count of ``SWEEP_SHOTS``.

    Returns the RMSE and the median error at each shot count, as lists of
    floats, and the log-log slopes of the RMSE and the median error; both
    should sit near -1/2.  Run k at the idx-th N has seed
    base_seed + 100000 idx + k, modulo 2^64 so that every valid base seed
    gives valid seeds.
    """
    seeds_per_n = _at_least(seeds_per_n, "seeds_per_n", 1)
    base_seed = _seed(base_seed, "base_seed")
    rmse, median = [], []
    for idx, n in enumerate(SWEEP_SHOTS):
        errs = np.empty(seeds_per_n)
        for k in range(seeds_per_n):
            spec = SimulationSpec(
                xi_true=CONSISTENCY_STATE,
                mode="randomized",
                n_shots=n,
                weights=EQUAL_WEIGHTS,
                seed=(base_seed + 100000 * idx + k) % 2**64,
            )
            xi_hat, s_hat = temporal_estimate(simulate(spec))
            x = np.asarray(project_mle(xi_hat, s_hat).xi_star)
            errs[k] = math.sqrt(norm_squared(x - np.asarray(CONSISTENCY_STATE)))
        rmse.append(math.sqrt(float(np.mean(errs**2))))
        median.append(float(np.median(errs)))
    log_n = np.log(np.asarray(SWEEP_SHOTS, dtype=float))
    return {
        "rmse": rmse,
        "median": median,
        "rmse_slope": float(np.polyfit(log_n, np.log(rmse), 1)[0]),
        "median_slope": float(np.polyfit(log_n, np.log(median), 1)[0]),
    }


def median_slope_defect(seed=0) -> float:
    """|median-error slope + 1/2| of ``consistency_errors`` at its default
    size."""
    return abs(consistency_errors(base_seed=_seed(seed))["median_slope"] + 0.5)


# --- timing battery ----------------------------------------------------------

class BenchTrial(namedtuple("BenchTrial", ["projection_ms", "oracle_ms", "discrepancy"])):
    """One exterior point: both methods' wall times and their max-norm
    discrepancy."""

    __slots__ = ()


class BenchResult(namedtuple("BenchResult", ["trials"])):
    """The list of ``BenchTrial`` rows; each summary is read from them."""

    __slots__ = ()

    @property
    def projection_mean_ms(self) -> float:
        return statistics.fmean(r.projection_ms for r in self.trials)

    @property
    def projection_median_ms(self) -> float:
        return statistics.median(r.projection_ms for r in self.trials)

    @property
    def oracle_mean_ms(self) -> float:
        return statistics.fmean(r.oracle_ms for r in self.trials)

    @property
    def oracle_median_ms(self) -> float:
        return statistics.median(r.oracle_ms for r in self.trials)

    @property
    def max_discrepancy(self) -> float:
        return _worst(r.discrepancy for r in self.trials)

    @property
    def speedup(self) -> float:
        return self.oracle_mean_ms / self.projection_mean_ms


def run_benchmark(trials: int, seed: int = 0) -> BenchResult:
    """Closed-form projection against the direct-search oracle.

    Each trial draws a random exterior empirical vector (equal weights), runs
    both methods on it under the wall clock, and records the max-norm
    discrepancy between the two answers.  Absolute times are
    machine-dependent; the reproducible claim is the ordering.
    """
    trials = _at_least(trials, "trials", 1)
    rng = _rng(seed)
    rows = []
    for _ in range(trials):
        xi_hat = exterior_point(rng)

        t0 = time.perf_counter()
        projected = project_mle(xi_hat, EQUAL_WEIGHTS)
        t1 = time.perf_counter()
        direct = oracle_mle(xi_hat, EQUAL_WEIGHTS)
        t2 = time.perf_counter()

        discrepancy = float(_worst(abs(x - d) for x, d in zip(projected.xi_star, direct)))
        rows.append(BenchTrial((t1 - t0) * 1e3, (t2 - t1) * 1e3, discrepancy))
    return BenchResult(rows)


# --- the gate table -----------------------------------------------------------

# (suite, check name, battery, bound): a row passes when battery(seed) < bound,
# or, for a yes/no property with no bound, when battery(seed) is true
GATES = (
    ("infogeo", "kl nonnegativity, zero only at equality", gibbs_defect, 1e-12),
    ("infogeo", "potential divergence equals outcome KL", canonical_kl_defect, 1e-10),
    ("infogeo", "per-axis decomposition of 6-outcome KL", marginal_decomposition_defect, 1e-12),
    ("infogeo", "divergence additivity across foliation", pythagorean_defect, 1e-10),
    ("infogeo", "analytic vs expectation Fisher matrix", fisher_agreement_defect, 1e-8),
    ("infogeo", "eta is the theta-gradient of psi", legendre_defect, 1e-6),
    ("infogeo", "weight/state slices meet orthogonally", foliation_defect, 1e-8),
    ("projector", "projection residuals on 1000 exterior points", projection_residual_battery, 1e-10),
    ("projector", "componentwise shrinkage with preserved signs", shrinkage_ok, None),
    ("projector", "correction step is metric-normal to sphere", projection_orthogonality_defect, 1e-8),
    ("projector", "no sphere point beats the estimate in KL", projection_optimality_defect, 1e-12),
    ("projector", "permutation and sign equivariance", equivariance_defect, 1e-12),
    ("projector", "cubic closed form back-substitution residuals", cubic_grid_residuals, 1e-12),
    ("projector", "norm residual monotone in the multiplier", lambda_monotonicity_ok, None),
    ("simulator", "identical specs give identical counts", reproducibility_ok, None),
    ("simulator", "axis fractions within 5 sigma of weights", weight_lln_defect, 1.0),
    ("simulator", "pure state never yields the forbidden outcome", pure_state_ok, None),
    # the slope within 0.15 of -1/2, boundary included
    ("simulator", "median error scales like 1/sqrt(N)", median_slope_defect, math.nextafter(0.15, math.inf)),
)

def run_gates(suite="all", seed=0) -> list[CheckOutcome]:
    """The outcomes of the rows of ``suite``, in table order: ``"all"`` for
    every row, or one suite of ``GATES`` for its rows.  Any other value is
    refused, and the refusal names the valid ones."""
    suites = sorted({row_suite for row_suite, _, _, _ in GATES})
    if suite != "all" and suite not in suites:
        raise InvalidInputError(f"unknown suite {suite!r}, expected 'all' or one of {suites}")
    outcomes = []
    for row_suite, name, battery, bound in GATES:
        if suite in ("all", row_suite):
            value = battery(seed)
            if bound is None:
                outcomes.append(CheckOutcome(name, bool(value), ""))
            else:
                outcomes.append(CheckOutcome(name, value < bound, f"defect {value:.3e}"))
    return outcomes
