"""Acceptance suite: every shipped claim at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints its verdict before asserting, so a red run
still reports every criterion it reached.  The batteries from ``checks`` fix
their own sizes; after its verdict a test pins each size by counting the
calls the battery makes (the ``check_calls`` fixture).  Where a criterion
is a ``check`` gate, it reads the gate's bound from ``checks.GATES`` (the
``gate_bound`` fixture); the projector-versus-oracle criteria read
``oracle.DISCREPANCY_TOL``, the bound of ``bench`` and ``estimate --oracle``.
"""

import math
import time

import numpy as np
import pytest

from blochmle.checks import (
    canonical_kl_defect,
    consistency_errors,
    exterior_point,
    fisher_agreement_defect,
    foliation_defect,
    median_slope_defect,
    projection_optimality_defect,
    projection_residual_battery,
    pythagorean_defect,
    random_weights,
    run_benchmark,
)
from blochmle.oracle import DISCREPANCY_TOL, oracle_mle
from blochmle.projector import project_mle

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])


def _verdict(number, name, passed, detail):
    print(f"\n[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_projection_correctness(check_calls, gate_bound):
    projections = check_calls("project_mle")
    start = time.perf_counter()
    residual = projection_residual_battery(seed=101)
    elapsed = time.perf_counter() - start
    passed = residual < gate_bound(projection_residual_battery) and elapsed < 5.0
    _verdict(
        1,
        "projection residuals on 1000 exterior instances",
        passed,
        f"worst norm or equation residual {residual:.2e}, {elapsed:.2f}s",
    )
    assert len(projections) == 1000


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        xi_hat = exterior_point(rng)
        w = random_weights(rng)
        gap = float(np.max(np.abs(project_mle(xi_hat, w).xi_star - oracle_mle(xi_hat, w))))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    passed = worst < DISCREPANCY_TOL and elapsed < 60.0
    _verdict(2, "projector vs direct search on 100 instances", passed,
             f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_symmetry_exactness():
    xi_star = project_mle(np.array([0.8, 0.8, 0.8]), EQUAL).xi_star
    gap = float(np.max(np.abs(np.asarray(xi_star) - 1.0 / math.sqrt(3.0))))
    _verdict(3, "symmetric input lands on the diagonal", gap < 1e-10, f"max gap {gap:.2e}")


def test_criterion_04_potential_divergence_equals_kl(check_calls, gate_bound):
    divergences = check_calls("canonical_divergence")
    defect = canonical_kl_defect(seed=404)
    _verdict(4, "potential-based divergence vs outcome KL, k in {1,2,3}",
             defect < gate_bound(canonical_kl_defect), f"defect {defect:.2e}")
    assert len(divergences) == 3 * 1000


def test_criterion_05_foliation_orthogonality(check_calls, gate_bound):
    points = check_calls("_fisher_rows")
    defect = foliation_defect(seed=505)
    _verdict(5, "weight/state slices orthogonal at 100 points", defect < gate_bound(foliation_defect),
             f"defect {defect:.2e}")
    assert len(points) == 100


def test_criterion_06_fisher_metric_agreement(check_calls, gate_bound):
    points = check_calls("fisher_metric")
    defect = fisher_agreement_defect(seed=606)
    _verdict(6, "analytic vs expectation Fisher matrix at 100 points",
             defect < gate_bound(fisher_agreement_defect), f"defect {defect:.2e}")
    assert len(points) == 100


def test_criterion_07_pythagorean_and_optimality(check_calls, gate_bound):
    divergences = check_calls("kl_divergence")
    objectives = check_calls("empirical_kl")
    projections = check_calls("project_mle")
    additivity = pythagorean_defect(seed=707)
    optimality = projection_optimality_defect(seed=707)
    passed = additivity < gate_bound(pythagorean_defect) and optimality < gate_bound(projection_optimality_defect)
    _verdict(7, "divergence additivity and global optimality", passed,
             f"additivity {additivity:.2e}, optimality slack {optimality:.2e}")
    # 3 divergences per additivity instance; per optimality instance, the
    # empirical KL of the estimate and of 200 sphere points
    assert len(divergences) == 3 * 100
    assert len(objectives) == 20 * (1 + 200)
    assert len(projections) == 20


def test_criterion_08_speed_ordering():
    start = time.perf_counter()
    result = run_benchmark(trials=1000, seed=808)
    elapsed = time.perf_counter() - start
    passed = result.speedup >= 5.0 and result.max_discrepancy < DISCREPANCY_TOL and elapsed < 300.0
    _verdict(
        8,
        "projection at least 5x faster than direct search",
        passed,
        f"speedup {result.speedup:.1f}x (proj {result.projection_mean_ms:.3f} ms, "
        f"search {result.oracle_mean_ms:.3f} ms), max gap {result.max_discrepancy:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_statistical_consistency(gate_bound):
    sweep = consistency_errors(
        n_values=(100, 1000, 10000, 100000), seeds_per_n=100, base_seed=909
    )
    slope = sweep["rmse_slope"]
    # the RMSE slope, held to the bound of the median slope's gate
    _verdict(9, "RMSE scales like 1/sqrt(N) for a pure state",
             abs(slope + 0.5) < gate_bound(median_slope_defect), f"log-log slope {slope:.3f}")


def test_criterion_10_weighted_trajectory_asymmetry():
    start = np.array([0.9, 0.9, 0.0])
    endpoint_equal = project_mle(start, EQUAL).xi_star
    endpoint_weighted = project_mle(start, np.array([5 / 7, 1 / 7, 1 / 7])).xi_star
    move_equal = abs(endpoint_equal[0] - 0.9)
    move_weighted = abs(endpoint_weighted[0] - 0.9)
    on_circle = max(
        abs(np.dot(endpoint_equal, endpoint_equal) - 1.0),
        abs(np.dot(endpoint_weighted, endpoint_weighted) - 1.0),
    )
    passed = move_weighted < move_equal and on_circle < 1e-10
    _verdict(
        10,
        "extra weight on axis 1 pins its coordinate",
        passed,
        f"displacement {move_weighted:.4f} (weighted) vs {move_equal:.4f} (equal), "
        f"circle residual {on_circle:.1e}",
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
