"""Output check that trusts nothing the program says about itself.

Everything is recomputed from the counts that went in, with the standard
library only.  The report's ``iterations`` and ``equation_residuals`` are
never read: they undercount and are unscaled.

- ``xi_hat`` and ``s_hat`` must equal the correctly rounded quotients
  (n+ - n-)/N_i and N_i/N exactly.
- Inside the ball (exact squared norm below 1 - 1e-12), ``xi_star`` must
  equal ``xi_hat``; outside (above 1 + 1e-12) the record must be projected.
  In the band between, either answer is checked on its own terms.
- A projected ``xi_star`` must have unit norm within 1e-10 and satisfy the
  Lagrange condition s_i (a_i - x_i) = nu x_i (1 - x_i^2) for one nu > 0,
  fitted here by least squares.  The residual is taken on the form
  x (1 - x^2) = mu (a - x), mu = s/nu, scaled by 1/(1 + mu):
  |nu g_i - h_i| / (nu + s_i) < 1e-10.
- ``kl_empirical_to_mle`` must match the weighted binary KL recomputed here.
- Where the report carries an oracle answer, it must agree with ``xi_star``
  within 1e-4 in max norm.

Every problem fails the record.  A problem also shows ``xi_star`` wrong,
except an oracle disagreement in which ``xi_star`` reaches the lower
objective: then the grid-search oracle is the one that missed the minimum.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

BOUNDARY_BAND = Fraction(1, 10**12)
NORM_TOL = 1e-10
EQUATION_TOL = 1e-10
KL_TOL = 1e-9
ORACLE_TOL = 1e-4


def exact_estimate(n_plus, n_minus) -> tuple[list[float], list[float]]:
    """Empirical Stokes vector and weights, each component the correctly
    rounded quotient of two integers (Python's int / int rounds exactly)."""
    totals = [p + m for p, m in zip(n_plus, n_minus)]
    total = sum(totals)
    return [(p - m) / t for p, m, t in zip(n_plus, n_minus, totals)], [t / total for t in totals]


def is_exterior(xi_hat) -> bool | None:
    """True outside the ball, False inside, None within the boundary band."""
    nsq = sum(Fraction(v) ** 2 for v in xi_hat)
    if nsq > 1 + BOUNDARY_BAND:
        return True
    if nsq < 1 - BOUNDARY_BAND:
        return False
    return None


def weighted_kl(xi_hat, s_hat, x) -> float:
    total = 0.0
    for a, w, m in zip(xi_hat, s_hat, x):
        for sign in (1.0, -1.0):
            p = (1.0 + sign * a) / 2.0
            q = min(1.0, max(0.0, (1.0 + sign * m) / 2.0))
            if p > 0.0:
                total += w * p * (math.log(p) - math.log(q)) if q > 0.0 else math.inf
    return total


def _vector(value) -> list[float] | None:
    if not isinstance(value, list) or len(value) != 3:
        return None
    if not all(isinstance(v, float) and math.isfinite(v) for v in value):
        return None
    return value


def lagrange_problems(xi_hat, s_hat, x) -> list[str]:
    problems = []
    norm_err = abs(math.fsum(v * v for v in x) - 1.0)
    if not norm_err <= NORM_TOL:
        problems.append(f"|xi_star|^2 - 1 = {norm_err:.3e}")
    g = [v * (1.0 - v * v) for v in x]
    h = [s * (a - v) for s, a, v in zip(s_hat, xi_hat, x)]
    den = math.fsum(gi * gi for gi in g)
    nu = math.fsum(gi * hi for gi, hi in zip(g, h)) / den if den > 0.0 else math.nan
    if not (math.isfinite(nu) and nu > 0.0):
        return problems + [f"no positive multiplier fits the Lagrange condition (nu = {nu!r})"]
    worst = max(abs(nu * gi - hi) / (nu + s) for gi, hi, s in zip(g, h, s_hat))
    if not worst < EQUATION_TOL:
        problems.append(f"scaled Lagrange residual {worst:.3e} at nu = {nu!r}")
    return problems


def oracle_disagreement(xi_hat, s_hat, x, direct) -> tuple[str, bool] | None:
    """None when the oracle's answer is within ORACLE_TOL of ``xi_star``;
    otherwise the problem, and whether it shows ``xi_star`` wrong (the oracle
    reached a strictly lower objective)."""
    gap = max(abs(d - v) for d, v in zip(direct, x))
    if gap < ORACLE_TOL:
        return None
    kl_star, kl_oracle = weighted_kl(xi_hat, s_hat, x), weighted_kl(xi_hat, s_hat, direct)
    problem = (
        f"oracle {list(direct)!r} is {gap:.3e} from xi_star {x!r}; "
        f"objective {kl_oracle!r} at the oracle, {kl_star!r} at xi_star"
    )
    return problem, kl_oracle < kl_star * (1.0 - 1e-12)


def check_report(n_plus, n_minus, text: str, with_oracle: bool = False) -> list[tuple[str, bool]]:
    """Problems with one report, each with whether it shows ``xi_star``
    wrong; an empty list means the report passed."""
    try:
        report = json.loads(text)
    except ValueError as exc:
        return [(f"report is not JSON: {exc}", True)]
    if not isinstance(report, dict):
        return [("report is not a JSON object", True)]
    xi_hat, s_hat = exact_estimate(n_plus, n_minus)
    problems = []
    if report.get("xi_hat") != xi_hat:
        problems.append(f"xi_hat {report.get('xi_hat')!r} != exact {xi_hat!r}")
    if report.get("s_hat") != s_hat:
        problems.append(f"s_hat {report.get('s_hat')!r} != exact {s_hat!r}")
    x = _vector(report.get("xi_star"))
    if x is None:
        problems.append(f"xi_star is not three finite numbers: {report.get('xi_star')!r}")
        return [(p, True) for p in problems]
    projected = report.get("was_projected")
    exterior = is_exterior(xi_hat)
    if projected not in (True, False) or (exterior is not None and projected != exterior):
        problems.append(f"was_projected = {projected!r} but the estimate is {'outside' if exterior else 'inside'} the ball")
    if projected is True:
        problems += lagrange_problems(xi_hat, s_hat, x)
    elif x != xi_hat:
        problems.append(f"interior xi_star {x!r} != xi_hat {xi_hat!r}")
    kl = report.get("kl_empirical_to_mle")
    expected_kl = weighted_kl(xi_hat, s_hat, x)
    if not isinstance(kl, float) or not abs(kl - expected_kl) <= KL_TOL * (1.0 + abs(expected_kl)):
        problems.append(f"kl_empirical_to_mle {kl!r} != recomputed {expected_kl!r}")
    if with_oracle:
        oracle = report.get("oracle")
        direct = _vector(oracle.get("xi")) if isinstance(oracle, dict) else None
        if direct is None:
            problems.append("oracle answer missing")
    found = [(p, True) for p in problems]
    if with_oracle and direct is not None:
        disagreement = oracle_disagreement(xi_hat, s_hat, x, direct)
        if disagreement:
            found.append(disagreement)
    return found
