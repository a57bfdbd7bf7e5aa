"""Acceptance suite: every shipped claim at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints its verdict before asserting, so a red run
still reports every criterion it reached.
"""

import math
import time

import numpy as np
import pytest

from blochmle.bench import run_benchmark
from blochmle.checks import (
    canonical_kl_defect,
    consistency_errors,
    fisher_agreement_defect,
    foliation_defect,
    projection_optimality_defect,
    projection_residual_battery,
    pythagorean_defect,
)
from blochmle.oracle import oracle_mle
from blochmle.projector import project_mle

EQUAL = np.array([1 / 3, 1 / 3, 1 / 3])


def _verdict(number, name, passed, detail):
    print(f"\n[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_projection_correctness():
    start = time.perf_counter()
    battery = projection_residual_battery(n=1000, seed=101)
    elapsed = time.perf_counter() - start
    passed = (
        battery["max_norm_residual"] < 1e-10
        and battery["max_equation_residual"] < 1e-10
        and elapsed < 5.0
    )
    _verdict(
        1,
        "projection residuals on 1000 exterior instances",
        passed,
        f"norm {battery['max_norm_residual']:.2e}, equations "
        f"{battery['max_equation_residual']:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    done = 0
    while done < 100:
        xi_hat = rng.uniform(-1.0, 1.0, 3)
        if np.dot(xi_hat, xi_hat) <= 1.0:
            continue
        w = rng.uniform(0.1, 1.0, 3)
        w /= w.sum()
        gap = float(np.max(np.abs(project_mle(xi_hat, w).xi_star - oracle_mle(xi_hat, w))))
        worst = max(worst, gap)
        done += 1
    elapsed = time.perf_counter() - start
    passed = worst < 1e-4 and elapsed < 60.0
    _verdict(2, "projector vs direct search on 100 instances", passed,
             f"max gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_symmetry_exactness():
    xi_star = project_mle(np.array([0.8, 0.8, 0.8]), EQUAL).xi_star
    gap = float(np.max(np.abs(np.asarray(xi_star) - 1.0 / math.sqrt(3.0))))
    _verdict(3, "symmetric input lands on the diagonal", gap < 1e-10, f"max gap {gap:.2e}")


def test_criterion_04_potential_divergence_equals_kl():
    defect = canonical_kl_defect(n_pairs=1000, seed=404)
    _verdict(4, "potential-based divergence vs outcome KL, k in {1,2,3}",
             defect < 1e-10, f"defect {defect:.2e}")


def test_criterion_05_foliation_orthogonality():
    defect = foliation_defect(n=100, seed=505)
    _verdict(5, "weight/state slices orthogonal at 100 points", defect < 1e-8,
             f"defect {defect:.2e}")


def test_criterion_06_fisher_metric_agreement():
    defect = fisher_agreement_defect(n=100, seed=606)
    _verdict(6, "analytic vs expectation Fisher matrix at 100 points", defect < 1e-8,
             f"defect {defect:.2e}")


def test_criterion_07_pythagorean_and_optimality():
    additivity = pythagorean_defect(n=100, seed=707)
    optimality = projection_optimality_defect(instances=20, sphere_samples=200, seed=707)
    passed = additivity < 1e-10 and optimality < 1e-12
    _verdict(7, "divergence additivity and global optimality", passed,
             f"additivity {additivity:.2e}, optimality slack {optimality:.2e}")


def test_criterion_08_speed_ordering():
    start = time.perf_counter()
    result = run_benchmark(trials=1000, seed=808)
    elapsed = time.perf_counter() - start
    passed = result.speedup >= 5.0 and result.max_discrepancy < 1e-4 and elapsed < 300.0
    _verdict(
        8,
        "projection at least 5x faster than direct search",
        passed,
        f"speedup {result.speedup:.1f}x (proj {result.projection_mean_ms:.3f} ms, "
        f"search {result.oracle_mean_ms:.3f} ms), max gap {result.max_discrepancy:.1e}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_statistical_consistency():
    sweep = consistency_errors(
        n_values=(100, 1000, 10000, 100000), seeds_per_n=100, base_seed=909
    )
    slope = sweep["rmse_slope"]
    _verdict(9, "RMSE scales like 1/sqrt(N) for a pure state", abs(slope + 0.5) <= 0.15,
             f"log-log slope {slope:.3f}")


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
