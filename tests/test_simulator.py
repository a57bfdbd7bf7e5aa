import numpy as np
import pytest

from blochmle.checks import consistency_errors, reproducibility_ok, weight_lln_defect
from blochmle.core import CountRecord, InvalidInputError, temporal_estimate
from blochmle.simulator import DRAW_CHUNK, SimulationSpec, simulate


def test_spec_validation():
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.9, 0.9, 0.9), mode="standard", n_shots=10)
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="adaptive", n_shots=10)
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=0)
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="randomized", n_shots=10)
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=10, weights=(0.4, 0.3, 0.3))
    with pytest.raises(InvalidInputError):
        SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=10, seed=-1)


def test_normalized_pure_state_accepted():
    xi = tuple(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    spec = SimulationSpec(xi_true=xi, mode="standard", n_shots=10, seed=1)
    assert simulate(spec).total == 30


def test_reproducibility():
    assert reproducibility_ok(seed=123)


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            SimulationSpec(xi_true=(0.3, -0.2, 0.5), mode="standard", n_shots=5000, seed=0),
            CountRecord((3277, 1971, 3754), (1723, 3029, 1246)),
        ),
        (
            SimulationSpec(
                xi_true=(0.3, -0.2, 0.5), mode="randomized", n_shots=5000, weights=(0.5, 0.3, 0.2), seed=0
            ),
            CountRecord((1626, 596, 751), (827, 914, 286)),
        ),
    ],
)
def test_frozen_counts(spec, expected):
    # pinned across versions: the determinism contract is platform- and
    # release-independent, not only within one process
    assert simulate(spec) == expected


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            SimulationSpec(xi_true=(0.3, -0.2, 0.5), mode="standard", n_shots=200_003, seed=11),
            CountRecord((130054, 80190, 150010), (69949, 119813, 49993)),
        ),
        (
            SimulationSpec(
                xi_true=(0.3, -0.2, 0.5), mode="randomized", n_shots=200_003, weights=(0.5, 0.3, 0.2), seed=11
            ),
            CountRecord((64712, 24109, 30127), (34805, 36194, 10056)),
        ),
    ],
)
def test_frozen_counts_across_draw_chunks(spec, expected):
    # several chunks of uniforms plus a remainder; pinned from a single
    # draw of n_shots, which the chunked draws must reproduce exactly
    assert spec.n_shots > 3 * DRAW_CHUNK and spec.n_shots % DRAW_CHUNK != 0
    assert simulate(spec) == expected


def test_distinct_seeds_differ():
    a = simulate(SimulationSpec(xi_true=(0.2, 0.1, 0.0), mode="standard", n_shots=1000, seed=1))
    b = simulate(SimulationSpec(xi_true=(0.2, 0.1, 0.0), mode="standard", n_shots=1000, seed=2))
    assert a != b


def test_axis_substreams_are_independent():
    # identical per-axis marginals but independent draws: axes should not tally identically
    rec = simulate(SimulationSpec(xi_true=(0.5, 0.5, 0.5), mode="standard", n_shots=10000, seed=3))
    assert len(set(rec.n_plus)) > 1


def test_pure_state_forbidden_outcome():
    rec = simulate(SimulationSpec(xi_true=(1.0, 0.0, 0.0), mode="standard", n_shots=5000, seed=5))
    assert rec.n_minus[0] == 0
    assert rec.n_plus[0] == 5000


def test_origin_standard_large_n():
    rec = simulate(SimulationSpec(xi_true=(0.0, 0.0, 0.0), mode="standard", n_shots=10**6, seed=7))
    xi_hat, _ = temporal_estimate(rec)
    assert np.all(np.abs(xi_hat) < 0.01)  # 5 sigma = 0.005 at this N


def test_randomized_mode_weights():
    assert weight_lln_defect(seed=11) < 1.0


def test_randomized_mode_tallies_sum():
    spec = SimulationSpec(
        xi_true=(0.3, -0.4, 0.2), mode="randomized", n_shots=7777, weights=(0.5, 0.25, 0.25), seed=13
    )
    assert simulate(spec).total == 7777


def test_error_shrinks_with_n():
    # lighter version of the acceptance sweep
    sweep = consistency_errors(n_values=(100, 1000, 10000), seeds_per_n=30, base_seed=17)
    assert sweep["median_slope"] == pytest.approx(-0.5, abs=0.2)
    assert np.all(np.diff(sweep["rmse"]) < 0.0)
