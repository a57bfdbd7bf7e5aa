"""Seeded invariant batteries and the gate table behind the ``check`` CLI
subcommand, the timing battery behind ``bench``, and the error-versus-N
sweep (``consistency_errors``) behind ``sweep``.

Each battery fixes its own size, takes only a seed, and returns its worst
defect, or whether a yes/no property held.  ``GATES`` holds one row per
check: its suite, its name, its battery and its bound, written only there;
``run_gates`` runs the rows of the chosen suites.  The ``check`` command,
the tests and the acceptance criteria all run each battery at its size and
read its bound from its row.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

import numpy as np

from .core import InvalidInputError, empirical_kl, norm_squared, temporal_estimate
from .infogeo import (
    _DIFFERENCE_STEP,
    _log_partition,
    _numeric_fisher_matrix,
    canonical_divergence,
    dual_coordinates,
    fisher_metric,
    foliation_orthogonality_defect,
    kl_divergence,
    product_distribution,
    randomized_distribution,
)
from .oracle import oracle_mle
from .projector import _evaluate, cubic_solve, project_mle
from .simulator import SimulationSpec, simulate

# consistency_errors: the pure state (1, 1, 1)/sqrt(3), measured with equal weights
CONSISTENCY_STATE = (0.5773502691896258, 0.5773502691896258, 0.5773502691896258)
EQUAL_WEIGHTS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

# bench and estimate --oracle: the methods agree when the max-norm gap
# between their answers is below this
DISCREPANCY_TOL = 1e-4


class CheckOutcome(namedtuple("CheckOutcome", ["name", "passed", "detail"])):
    """One named invariant: whether it held, and its worst defect as text."""

    __slots__ = ()


# --- samplers -------------------------------------------------------------

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

def gibbs_defect(seed=0) -> float:
    """Worst violation of kl >= 0 (equality only at p = q)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(2, 7))
        p = rng.random(size) + 0.05
        q = rng.random(size) + 0.05
        p, q = p / p.sum(), q / q.sum()
        worst = max(worst, -kl_divergence(p, q))
        worst = max(worst, abs(kl_divergence(p, p)))
    return worst


def canonical_kl_defect(seed=0) -> float:
    """Max |potential-based divergence - outcome-sum KL| over k in {1,2,3}."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for k in (1, 2, 3):
        for _ in range(1000):
            p_xi = interior_point(rng, k)
            q_xi = interior_point(rng, k)
            direct = kl_divergence(product_distribution(p_xi), product_distribution(q_xi))
            worst = max(worst, abs(canonical_divergence(p_xi, q_xi) - direct))
    return worst


def marginal_decomposition_defect(seed=0) -> float:
    """6-outcome KL at shared weights vs the weighted sum of binary KLs."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        s = random_weights(rng)
        xi_p = interior_point(rng)
        xi_q = interior_point(rng)
        whole = kl_divergence(randomized_distribution(s, xi_p), randomized_distribution(s, xi_q))
        split = empirical_kl(xi_p, s, xi_q)
        worst = max(worst, abs(whole - split))
    return worst


def pythagorean_defect(seed=0) -> float:
    """Additivity D(p_hat||p) = D(p_hat||mid) + D(mid||p) across the
    weight/state foliation, for random weights and states on both sides."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        s_hat, s = random_weights(rng), random_weights(rng)
        xi_hat, xi = interior_point(rng), interior_point(rng)
        top = randomized_distribution(s_hat, xi_hat)
        mid = randomized_distribution(s_hat, xi)
        bot = randomized_distribution(s, xi)
        worst = max(worst, abs(kl_divergence(top, bot) - kl_divergence(top, mid) - kl_divergence(mid, bot)))
    return worst


def fisher_agreement_defect(seed=0) -> float:
    """Entrywise gap between the analytic metric and the score-covariance
    expectation computed from the 6-outcome model by central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        s = random_weights(rng)
        xi = interior_point(rng, bound=0.95)
        gap = np.abs(fisher_metric(xi, s) - _numeric_fisher_matrix(s, xi)[:3, :3])
        worst = max(worst, float(gap.max()))
    return worst


def legendre_defect(seed=0) -> float:
    """|eta_i - d psi / d theta_i| by central differences."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        coords = dual_coordinates(interior_point(rng))
        for i in range(3):
            e = np.zeros(3)
            e[i] = _DIFFERENCE_STEP
            grad = (_log_partition(coords.theta + e) - _log_partition(coords.theta - e)) / (2.0 * _DIFFERENCE_STEP)
            worst = max(worst, abs(grad - coords.eta[i]))
    return worst


def foliation_defect(seed=0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        worst = max(
            worst,
            foliation_orthogonality_defect(random_weights(rng), interior_point(rng, bound=0.95)),
        )
    return worst


# --- projector batteries ---------------------------------------------------

def _exterior_projections(seed):
    """1000 random exterior inputs with random weights, each with its
    projection."""
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        xi_hat = exterior_point(rng)
        yield xi_hat, project_mle(xi_hat, random_weights(rng))


def projection_residual_battery(seed=0) -> float:
    """Worst norm or equation residual of the projections."""
    return max(max(res.norm_residual, *res.equation_residuals) for _, res in _exterior_projections(seed))


def shrinkage_ok(seed=0) -> bool:
    """Each projected component keeps its input's sign and is smaller in
    magnitude; a zero component stays zero."""
    for xi_hat, res in _exterior_projections(seed):
        for a, x in zip(xi_hat, res.xi_star):
            if a == 0.0:
                if x != 0.0:
                    return False
            elif math.copysign(1.0, x) != math.copysign(1.0, a) or not abs(x) < abs(a):
                return False
    return True


def projection_orthogonality_defect(seed=0) -> float:
    """Fisher-metric angle between the correction step and the sphere's
    tangent plane at the projected point; excludes metric-singular axes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < 200:
        xi_hat = exterior_point(rng)
        s = random_weights(rng)
        x = np.asarray(project_mle(xi_hat, s).xi_star)
        if np.any(1.0 - np.abs(x) < 1e-12):
            continue  # metric singular; algebraic solution still returned
        checked += 1
        normal = x / math.sqrt(norm_squared(x))
        k = int(np.argmin(np.abs(x)))
        e = np.zeros(3)
        e[k] = 1.0
        t1 = e - np.dot(e, normal) * normal
        t1 /= math.sqrt(norm_squared(t1))
        t2 = np.cross(normal, t1)
        v = xi_hat - x
        g = np.diag(fisher_metric(x, s))
        for t in (t1, t2):
            worst = max(worst, abs(float(np.sum(v * g * t))))
    return worst


def projection_optimality_defect(seed=0) -> float:
    """How much a random sphere point ever beats the projected estimate in
    empirical KL (positive would contradict global optimality)."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(20):
        xi_hat = exterior_point(rng)
        s = random_weights(rng)
        x = project_mle(xi_hat, s).xi_star
        base = kl_divergence(randomized_distribution(s, xi_hat), randomized_distribution(s, x))
        for _ in range(200):
            r = sphere_point(rng)
            rival = kl_divergence(randomized_distribution(s, xi_hat), randomized_distribution(s, r))
            worst = max(worst, base - rival)
    return worst


def equivariance_defect(seed=0) -> float:
    """Axis permutations permute the answer; sign flips flip it."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        xi_hat = exterior_point(rng)
        s = random_weights(rng)
        x = np.asarray(project_mle(xi_hat, s).xi_star)

        perm = rng.permutation(3)
        x_perm = project_mle(xi_hat[perm], s[perm]).xi_star
        worst = max(worst, float(np.max(np.abs(x_perm - x[perm]))))

        flip = np.where(rng.random(3) < 0.5, -1.0, 1.0)
        x_flip = project_mle(xi_hat * flip, s).xi_star
        worst = max(worst, float(np.max(np.abs(x_flip - x * flip))))
    return worst


def cubic_grid_residuals(seed=0) -> float:
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
    worst = 0.0
    for mu in np.logspace(-6.0, 6.0, 25):
        for a in np.linspace(-1.0, 1.0, 41):
            x = cubic_solve(float(mu), float(a))
            residual = abs(x * (1.0 - x * x) - mu * (a - x))
            worst = max(worst, residual if mu <= 1e4 else residual / (1.0 + mu))
    return worst


def lambda_monotonicity_ok(seed=0) -> bool:
    """Norm residual increases along lambda and crosses zero exactly once
    on a log grid spanning the solved multiplier."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        xi_hat = exterior_point(rng)
        s = random_weights(rng)
        lam_star = project_mle(xi_hat, s).lambda_star
        grid = np.logspace(-6.0, math.log10(4.0 * lam_star), 48)
        r = np.array([_evaluate(g, s, xi_hat)[0] for g in grid])
        if not np.all(np.diff(r) > 0.0):
            return False
        signs = np.sign(r[r != 0.0])
        if int(np.count_nonzero(np.diff(signs))) != 1:
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


def weight_lln_defect(seed=0) -> float:
    """Max deviation of realized axis fractions from their targets, in
    units of the 5-sigma multinomial band."""
    s = EQUAL_WEIGHTS
    n_shots = 300000
    spec = SimulationSpec(xi_true=(0.2, 0.1, -0.3), mode="randomized", n_shots=n_shots, weights=s, seed=seed)
    counts = simulate(spec)
    worst = 0.0
    for i in range(3):
        band = 5.0 * math.sqrt(s[i] * (1.0 - s[i]) / n_shots)
        worst = max(worst, abs(counts.axis_totals[i] / n_shots - s[i]) / band)
    return worst


def pure_state_ok(seed=0) -> bool:
    """The pure state along axis 1, measured 1000 times per axis, never
    gives the minus outcome on that axis."""
    pure = simulate(SimulationSpec(xi_true=(1.0, 0.0, 0.0), mode="standard", n_shots=1000, seed=seed))
    return pure.n_minus[0] == 0


def consistency_errors(n_values=(100, 1000, 10000, 100000), seeds_per_n=100, base_seed=0) -> dict:
    """Estimation error versus shot count under randomized sampling of
    ``CONSISTENCY_STATE`` with ``EQUAL_WEIGHTS``.

    Returns the per-N error arrays, RMSEs and median errors, and the log-log
    slopes of the RMSE and the median error; both should sit near -1/2.
    Run k at the idx-th N has seed base_seed + 100000 idx + k, modulo 2^64
    so that every valid base seed gives valid seeds.
    """
    if seeds_per_n < 1:
        raise InvalidInputError(f"seeds_per_n must be >= 1, got {seeds_per_n}")
    errors = {}
    for idx, n in enumerate(n_values):
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
        errors[n] = errs
    log_n = np.log(np.asarray(n_values, dtype=float))
    rmse = np.array([math.sqrt(float(np.mean(errors[n] ** 2))) for n in n_values])
    med = np.array([float(np.median(errors[n])) for n in n_values])
    return {
        "errors": errors,
        "rmse": rmse,
        "median": med,
        "rmse_slope": float(np.polyfit(log_n, np.log(rmse), 1)[0]),
        "median_slope": float(np.polyfit(log_n, np.log(med), 1)[0]),
    }


def median_slope_defect(seed=0) -> float:
    """|median-error slope + 1/2| of ``consistency_errors`` at its default
    size."""
    return abs(consistency_errors(base_seed=seed)["median_slope"] + 0.5)


# --- timing battery ----------------------------------------------------------

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
    """Closed-form projection against the direct-search oracle.

    Each trial draws a random exterior empirical vector (equal weights), runs
    both methods on it under the wall clock, and records the max-norm
    discrepancy between the two answers.  Absolute times are
    machine-dependent; the reproducible claim is the ordering.
    """
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
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

SUITES = tuple(dict.fromkeys(suite for suite, _, _, _ in GATES))


def run_gates(suites, seed=0) -> list[CheckOutcome]:
    """The outcomes of the rows of ``suites``, in table order."""
    outcomes = []
    for suite, name, battery, bound in GATES:
        if suite in suites:
            value = battery(seed)
            if bound is None:
                outcomes.append(CheckOutcome(name, bool(value), ""))
            else:
                outcomes.append(CheckOutcome(name, value < bound, f"defect {value:.3e}"))
    return outcomes
