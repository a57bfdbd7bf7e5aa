"""The estimate path runs without numpy, the oracle, ``dataclasses`` or
``typing``, ``estimate --oracle`` without the check batteries, and a
projection trajectory and the ``trajectories`` subcommand without numpy:
fresh interpreters, checked through ``sys.modules``; and the contract of
the package's records, which are namedtuples so that they cost no import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from blochmle.checks import BenchResult, BenchTrial, CheckOutcome
from blochmle.core import CountRecord, InvalidInputError
from blochmle.infogeo import dual_coordinates
from blochmle.io import counts_to_csv, counts_to_json
from blochmle.projector import project_mle
from blochmle.simulator import SimulationSpec

SRC = Path(__file__).resolve().parents[1] / "src"
PROJECTED = CountRecord((90, 90, 90), (10, 10, 10))


def fresh_python(code: str, *argv: str, stdin: str = "", flags: tuple = ()) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


# Runs ``blochmle estimate`` on stdin, then writes its exit code and which of
# numpy and the modules that only other subcommands need were loaded.
ESTIMATE = """
import sys
from blochmle.cli import main
code = main(["estimate", *sys.argv[1:]])
watched = {"numpy", "blochmle.checks", "blochmle.infogeo", "blochmle.simulator"}
print(code, *sorted(watched & set(sys.modules)), file=sys.stderr)
"""


def run_estimate(text: str, *argv: str) -> tuple[dict, list]:
    done = fresh_python(ESTIMATE, *argv, stdin=text)
    code, *loaded = done.stderr.split()
    assert code == "0"
    return json.loads(done.stdout), loaded


def test_estimate_json_record_leaves_numpy_unloaded():
    report, loaded = run_estimate(counts_to_json(PROJECTED))
    assert report["was_projected"] and not loaded


def test_estimate_csv_record_leaves_numpy_unloaded():
    report, loaded = run_estimate(counts_to_csv(PROJECTED))
    assert report["was_projected"] and not loaded


def test_estimate_with_oracle_loads_numpy_and_agrees():
    # the agreement rule lives in oracle, so the check batteries and the
    # modules only they use stay unloaded
    report, loaded = run_estimate(counts_to_json(PROJECTED), "--oracle")
    assert loaded == ["numpy"] and report["oracle"]["max_discrepancy"] < 1e-4


# Runs ``blochmle estimate`` on stdin, then writes its exit code and which of
# the modules the estimate path must not load were loaded.
BUDGET = """
import sys
from blochmle.cli import main
code = main(["estimate"])
banned = {"dataclasses", "inspect", "typing", "numpy", "blochmle.oracle"}
print(code, *sorted(banned & set(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("to_text", [counts_to_json, counts_to_csv], ids=["json", "csv"])
def test_estimate_import_budget(to_text):
    # -S: a site .pth file that preloads typing, as some installations
    # have, would otherwise hide a regression
    done = fresh_python(BUDGET, stdin=to_text(PROJECTED), flags=("-S",))
    assert json.loads(done.stdout)["was_projected"]
    assert done.stderr.split() == ["0"]


def test_trajectory_leaves_numpy_unloaded():
    done = fresh_python(
        "import sys\n"
        "from blochmle.projector import projection_trajectory\n"
        "curve = projection_trajectory((0.9, 0.9, 0.0), (1 / 3, 1 / 3, 1 / 3), 8)\n"
        "print(len(curve), type(curve[-1][0]).__name__, 'numpy' in sys.modules)"
    )
    assert done.stdout.split() == ["8", "float", "False"]


def test_trajectories_subcommand_leaves_numpy_unloaded():
    done = fresh_python(
        "import os, sys\n"
        "from blochmle.cli import main\n"
        "code = main(['trajectories', '--grid', '3', '--samples', '4', '--out', os.devnull])\n"
        "print(code, 'numpy' in sys.modules)"
    )
    assert done.stdout.split() == ["0", "False"]


def test_import_leaves_numpy_unloaded():
    done = fresh_python("import sys, blochmle; print('numpy' in sys.modules)")
    assert done.stdout.split() == ["False"]


def test_star_import_resolves_every_public_name():
    done = fresh_python(
        "import blochmle\n"
        "namespace = {}\n"
        "exec('from blochmle import *', namespace)\n"
        "missing = [name for name in blochmle.__all__ if name not in namespace]\n"
        "print(len(blochmle.__all__), missing, set(blochmle.__all__) <= set(dir(blochmle)))"
    )
    assert done.stdout.split() == ["25", "[]", "True"]


def test_dir_lists_every_public_name_once():
    # in process, after a lazy load: dir() listed a loaded name twice, once
    # from the module's globals and once from the lazy table
    import blochmle

    assert blochmle.project_mle is project_mle
    names = dir(blochmle)
    assert len(names) == len(set(names))
    assert set(blochmle.__all__) <= set(names)


# One instance of each of the package's records.
RECORDS = {
    "CountRecord": PROJECTED,
    "ProjectionResult": project_mle((0.8, 0.8, 0.8), (1 / 3, 1 / 3, 1 / 3)),
    "SimulationSpec": SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=10),
    "DualCoordinates": dual_coordinates((0.1, 0.2, 0.3)),
    "CheckOutcome": CheckOutcome("name", True, "defect 0"),
    "BenchTrial": BenchTrial(0, 0.1, 20.0, 1e-9),
    "BenchResult": BenchResult([BenchTrial(0, 0.1, 20.0, 1e-9)], 0.1, 0.1, 20.0, 20.0, 1e-9),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_tuples_of_their_fields(name):
    record = RECORDS[name]
    assert len(record) == len(record._fields)
    assert tuple(record) == tuple(getattr(record, field) for field in record._fields)
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


def test_keyword_construction_and_equality():
    record = CountRecord(n_plus=(90, 90, 90), n_minus=(10, 10, 10))
    assert record == PROJECTED == ((90, 90, 90), (10, 10, 10))
    n_plus, n_minus = record
    assert (n_plus, n_minus) == (record.n_plus, record.n_minus)
    assert record != CountRecord((90, 90, 91), (10, 10, 10))
    assert hash(record) == hash(PROJECTED)
    spec = SimulationSpec(mode="randomized", xi_true=[0, 0.5, 0], n_shots=7, weights=(0.5, 0.25, 0.25), seed=3)
    assert spec == SimulationSpec((0.0, 0.5, 0.0), "randomized", 7, (0.5, 0.25, 0.25), 3)


def test_repr_names_the_fields():
    assert repr(CountRecord((1, 2, 3), (4, 5, 6))) == "CountRecord(n_plus=(1, 2, 3), n_minus=(4, 5, 6))"


def test_defaults_unchanged():
    spec = SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=10)
    assert spec.weights is None and spec.seed == 0


def test_replace_validates_and_normalises():
    with pytest.raises(InvalidInputError, match="axis 1: no measurements recorded"):
        PROJECTED._replace(n_plus=(0, 90, 90), n_minus=(0, 10, 10))
    spec = RECORDS["SimulationSpec"]
    with pytest.raises(InvalidInputError, match="mode must be one of"):
        spec._replace(mode="adaptive")
    with pytest.raises(InvalidInputError, match="^seed: expected an integer, got 5.0$"):
        spec._replace(seed=5.0)
    with pytest.raises(InvalidInputError, match="^axis 1 n_plus: expected an integer, got True$"):
        PROJECTED._replace(n_plus=(True, 1, 1))
