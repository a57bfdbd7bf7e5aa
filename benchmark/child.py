"""Fresh-process measurements; each mode prints one JSON object.

    child.py setup     stdin: counts.  Imports blochmle, runs the record
                       through ``estimate``, prints the report and the
                       CLOCK_MONOTONIC time at which that was done.
    child.py numpy     seconds spent in ``import numpy``.
    child.py blochmle  seconds spent in ``import blochmle``, numpy already
                       imported.
    child.py main      stdin: counts.  Milliseconds of ``cli.main(["estimate"])``
                       run once in this process, and its report.

Modes import nothing they do not time before the timer starts.
"""

import json
import sys
import time


def _setup() -> dict:
    text = sys.stdin.read()
    import pipeline

    report = pipeline.estimate(text)
    return {"done_ns": time.clock_gettime_ns(time.CLOCK_MONOTONIC), "report": report}


def _numpy() -> dict:
    start = time.perf_counter()
    import numpy  # noqa: F401

    return {"seconds": time.perf_counter() - start}


def _blochmle() -> dict:
    import numpy  # noqa: F401

    start = time.perf_counter()
    import blochmle  # noqa: F401

    return {"seconds": time.perf_counter() - start}


def _main() -> dict:
    import contextlib
    import io

    from blochmle import cli

    sys.stdin = io.StringIO(sys.stdin.read())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(["estimate"])
        elapsed = time.perf_counter() - start
    return {"ms": 1e3 * elapsed, "code": code, "report": out.getvalue()}


MODES = {"setup": _setup, "numpy": _numpy, "blochmle": _blochmle, "main": _main}

if __name__ == "__main__":
    print(json.dumps(MODES[sys.argv[1]]()))
