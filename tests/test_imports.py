"""The estimate path runs without numpy: fresh interpreters, checked through
``sys.modules``."""

import json
import os
import subprocess
import sys
from pathlib import Path

from blochmle.core import CountRecord
from blochmle.io import counts_to_csv, counts_to_json

SRC = Path(__file__).resolve().parents[1] / "src"
PROJECTED = CountRecord((90, 90, 90), (10, 10, 10))


def fresh_python(code: str, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done


# Runs ``blochmle estimate`` on stdin, then writes whether numpy was loaded.
ESTIMATE = """
import sys
from blochmle.cli import main
code = main(["estimate", *sys.argv[1:]])
print("numpy" in sys.modules, code, file=sys.stderr)
"""


def run_estimate(text: str, *argv: str) -> tuple[dict, bool]:
    done = fresh_python(ESTIMATE, *argv, stdin=text)
    loaded, code = done.stderr.split()
    assert code == "0"
    return json.loads(done.stdout), loaded == "True"


def test_estimate_json_record_leaves_numpy_unloaded():
    report, loaded = run_estimate(counts_to_json(PROJECTED))
    assert report["was_projected"] and not loaded


def test_estimate_csv_record_leaves_numpy_unloaded():
    report, loaded = run_estimate(counts_to_csv(PROJECTED))
    assert report["was_projected"] and not loaded


def test_estimate_with_oracle_loads_numpy_and_agrees():
    report, loaded = run_estimate(counts_to_json(PROJECTED), "--oracle")
    assert loaded and report["oracle"]["max_discrepancy"] < 1e-4


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
    assert done.stdout.split() == ["31", "[]", "True"]
