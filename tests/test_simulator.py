import collections
import csv
import math
from fractions import Fraction

import numpy as np
import pytest

from blochmle import checks
from blochmle.checks import CONSISTENCY_STATE, SWEEP_SHOTS, consistency_errors, reproducibility_ok, weight_lln_defect
from blochmle.cli import main
from blochmle.core import CountRecord, InvalidInputError, norm_squared, temporal_estimate
from blochmle.projector import project_mle
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


@pytest.mark.parametrize(
    "xi_true",
    [
        ("0.1", "0", "0"),
        "abc",
        b"\x00\x00\x01",
        [0.1, "x", 0.0],
        [0.1, [0.0, 0.0], 0.0],
        [[0.1], [0.0], [0.0]],
        np.full((3, 1), 0.1),
        [np.array([0.1]), np.array([0.0]), np.array([0.0])],
        (0.1, 0.0),
        None,
        {0.1, 0.2},  # crashed the refusal's shape report with a TypeError
    ],
)
def test_spec_refuses_text_and_ragged_state(xi_true):
    # the first was accepted as (0.1, 0.0, 0.0); "abc", the word and the
    # ragged list escaped as a bare ValueError, which the CLI did not map
    # to exit 2.  The refusal names xi_true, or the component it reads
    with pytest.raises(InvalidInputError, match=r"^xi_true (needs 3 components|needs real numbers|component \d must be a real number), got "):
        SimulationSpec(xi_true=xi_true, mode="standard", n_shots=10)


@pytest.mark.parametrize("field", ["n_shots", "seed"])
@pytest.mark.parametrize("value", [7.5, "7", math.nan, math.inf, None, 3000.0, 1.0, np.float64(5), Fraction(4), True])
def test_spec_refuses_non_integers(field, value):
    # 7.5 used to become 7 and "7" to pass; NaN, inf and None escaped as a
    # ValueError, an OverflowError and a TypeError; an integral float, a
    # Fraction and a bool passed as the int they equal
    kwargs = {"xi_true": (0.1, 0.0, 0.0), "mode": "standard", "n_shots": 10, "seed": 0, field: value}
    with pytest.raises(InvalidInputError, match=f"^{field}: expected an integer, got "):
        SimulationSpec(**kwargs)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", 10**5000, "seed must be a 64-bit unsigned integer, got an over-long int"),
        ("n_shots", -(10**5000), "n_shots must be >= 1, got an over-long int"),
    ],
    ids=["seed=10**5000", "n_shots=-10**5000"],
)
def test_spec_huge_int_refusal_is_short(field, value, message):
    # the refusal printed the int, which has no str() above 4,300 digits: a
    # plain ValueError escaped while the message was built
    kwargs = {"xi_true": (0.1, 0, 0), "mode": "standard", "n_shots": 1, field: value}
    with pytest.raises(InvalidInputError) as caught:
        SimulationSpec(**kwargs)
    assert str(caught.value) == message and len(message) < 300


def test_normalized_pure_state_accepted():
    xi = tuple(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0))
    spec = SimulationSpec(xi_true=xi, mode="standard", n_shots=10, seed=1)
    assert sum(simulate(spec).axis_totals) == 30


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


@pytest.mark.parametrize(
    "spec, expected",
    [
        (
            SimulationSpec(
                xi_true=(0.0, 0.0, 1.0), mode="randomized", n_shots=200_003, weights=(0.5, 0.3, 0.2 + 9e-13), seed=4
            ),
            CountRecord((50134, 29948, 40079), (49983, 29859, 0)),
        ),
        (
            SimulationSpec(
                xi_true=(0.0, 0.0, -1.0), mode="randomized", n_shots=200_003, weights=(0.5, 0.3, 0.2 + 9e-13), seed=4
            ),
            CountRecord((50134, 29948, 0), (49983, 29859, 40079)),
        ),
        (
            SimulationSpec(
                xi_true=(1.0, 0.0, 0.0), mode="randomized", n_shots=70_000, weights=(0.5 + 9e-13, 0.3, 0.2), seed=9
            ),
            CountRecord((35082, 10463, 7013), (0, 10486, 6956)),
        ),
    ],
    ids=["xi3_plus_1", "xi3_minus_1", "xi1_plus_1"],
)
def test_frozen_counts_with_empty_outcomes(spec, expected):
    # pure components leave outcomes with probability 0, and weights summing
    # to 1 + 9e-13 take the cumulative sum past 1 (for xi3 = +1 before its
    # last entry); the last outcome must still take exactly the rest
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


def test_randomized_mode_weights(check_calls, gate_bound):
    runs = check_calls("simulate")
    assert weight_lln_defect(seed=11) < gate_bound(weight_lln_defect)
    assert [spec.n_shots for (spec,) in runs] == [300000]


def test_randomized_mode_tallies_sum():
    spec = SimulationSpec(
        xi_true=(0.3, -0.4, 0.2), mode="randomized", n_shots=7777, weights=(0.5, 0.25, 0.25), seed=13
    )
    assert sum(simulate(spec).axis_totals) == 7777


def test_error_shrinks_with_n():
    # lighter version of the acceptance sweep
    sweep = consistency_errors(seeds_per_n=30, base_seed=17)
    assert sweep["median_slope"] == pytest.approx(-0.5, abs=0.2)
    assert np.all(np.diff(sweep["rmse"]) < 0.0)


def test_sweep_seeds_wrap_at_2_64(monkeypatch):
    # the largest valid base seed: run k = 1 at the first N wraps to seed 0
    seeds = []

    def recorded(**fields):
        seeds.append(fields["seed"])
        return SimulationSpec(**fields)

    monkeypatch.setattr(checks, "SimulationSpec", recorded)
    consistency_errors(seeds_per_n=2, base_seed=2**64 - 1)
    assert seeds == [2**64 - 1, 0, 99999, 100000, 199999, 200000, 299999, 300000]


def test_sweep_returns_what_its_readers_read():
    sweep = consistency_errors(seeds_per_n=2, base_seed=5)
    assert list(sweep) == ["rmse", "median", "rmse_slope", "median_slope"]
    assert all(type(v) is float for key in ("rmse", "median") for v in sweep[key])
    assert len(sweep["rmse"]) == len(sweep["median"]) == len(SWEEP_SHOTS)


def test_sweep_refuses_seeds_per_n_below_1():
    # 0 used to give NaN errors with a "Mean of empty slice" RuntimeWarning
    with pytest.raises(InvalidInputError, match="^seeds_per_n must be >= 1, got 0$"):
        consistency_errors(seeds_per_n=0)
    # a TypeError from range() used to escape
    with pytest.raises(InvalidInputError, match="^seeds_per_n: expected an integer, got 2.5$"):
        consistency_errors(seeds_per_n=2.5)
    # a bool was read as 1 seed
    with pytest.raises(InvalidInputError, match="^seeds_per_n: expected an integer, got True$"):
        consistency_errors(seeds_per_n=True)


def test_sweep_cli_writes_the_fitted_medians(monkeypatch, tmp_path, capsys):
    # an even seed count, where the median is the mean of the two middle
    # errors, each recomputed from the counts that the sweep simulated
    sweep = consistency_errors(seeds_per_n=4, base_seed=3)
    simulated = collections.defaultdict(list)

    def recorded(spec):
        counts = simulate(spec)
        simulated[spec.n_shots].append(counts)
        return counts

    monkeypatch.setattr(checks, "simulate", recorded)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seeds", "4", "--seed", "3", "--out", str(out)]) == 0
    assert b"\r" not in out.read_bytes()
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    n_values = [int(row["n_shots"]) for row in rows]
    medians = [float(row["median_error"]) for row in rows]
    errors = {
        n: [
            math.sqrt(norm_squared(np.asarray(project_mle(*temporal_estimate(c)).xi_star) - CONSISTENCY_STATE))
            for c in simulated[n]
        ]
        for n in n_values
    }
    assert n_values == list(SWEEP_SHOTS) and all(len(errors[n]) == 4 for n in n_values)
    assert medians == [float(np.median(errors[n])) for n in n_values] == sweep["median"]
    slope = np.polyfit(np.log(n_values), np.log(medians), 1)[0]
    assert slope == pytest.approx(sweep["median_slope"], abs=1e-12)
    assert f"median slope {sweep['median_slope']:.3f}" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_sweep_cli_refuses_seeds_below_1(seeds, tmp_path, capsys):
    # 0 used to write an all-NaN table, -1 to end in a numpy traceback
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seeds", seeds, "--out", str(out)]) == 2
    assert f"error: seeds_per_n must be >= 1, got {seeds}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cli_refuses_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--seeds", "1", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be a 64-bit unsigned integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_cli_unwritable_out_exit_2(tmp_path, capsys):
    # the former sweep script ended here in a FileNotFoundError traceback,
    # after the whole sweep had run
    out = tmp_path / "missing" / "sweep.csv"
    assert main(["sweep", "--seeds", "1", "--out", str(out)]) == 2
    assert f"error: cannot write {out}: " in capsys.readouterr().err
    assert not out.exists()
