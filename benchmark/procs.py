"""Child processes.  ``run_child`` is the one way the benchmark starts a
process: it waits for the child, collects its resource usage and kills it if
it outlives ``timeout``."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ESTIMATE_ARGV = [sys.executable, "-m", "blochmle.cli", "estimate"]


def monotonic_ns() -> int:
    """System-wide clock, comparable between a parent and its children."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


@dataclass(frozen=True)
class ChildResult:
    returncode: int
    out: str
    err: str
    max_rss_kb: int
    spawned_ns: int
    exited_ns: int


def run_child(argv, stdin_text: str, cwd, env, timeout: float = 60.0) -> ChildResult:
    spawned = monotonic_ns()
    with subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=cwd, env=env, text=True
    ) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(stdin_text)
                proc.stdin.close()
            except BrokenPipeError:
                pass
            out = proc.stdout.read()
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, out, err, usage.ru_maxrss, spawned, monotonic_ns())


def estimate_process(text: str, cwd, env) -> ChildResult:
    """One ``python -m blochmle.cli estimate`` process, the record on stdin."""
    return run_child(ESTIMATE_ARGV, text, cwd, env)
