"""Machine-speed references that the end-to-end times are scaled by.

On a shared 2-vCPU virtual machine the same code ran up to 1.9x slower for
seconds to minutes at a time, and not by the same factor for all code: in
the slow state an exterior_batch record took about 1.8x as long, a
pure-Python integer loop only about 1.45x.  So each run times a fixed
kernel between records, outside the timed intervals, and scales each time
by REFERENCE_MS over the median of the kernel times taken from ``window_ns``
before the time starts to ``window_ns`` after it ends.  There are two
kernels.  Each is shaped like the work it scales, and neither shares code
with blochmle, so a change to the program still shows:

- ``record_kernel`` scales in-process records.  It does JSON, 3-element
  numpy arrays, numpy-scalar and float arithmetic and math calls, the mix
  of a counts record.  It slowed by about the same factor as those records,
  and the machine's state changed within a fraction of a second, so its
  window, RECORD_WINDOW_NS, holds about 4 kernel times.
- ``process_kernel`` scales fresh processes: cli_estimate records and the
  setup_s samples.  It unmarshals and runs a module's code object, the work
  of an import.  A process's latency correlated only 0.1 to 0.3 with the
  kernel times next to it, and scaling by those few widened the spread of
  its p90, so its window, PROCESS_WINDOW_NS, spans about 20 processes.
"""

from __future__ import annotations

import bisect
import json
import marshal
import math
import statistics

import numpy as np

from procs import monotonic_ns

REFERENCE_MS = 2.5  # scaled times are what they would be where the kernel takes this long
EVERY_NS = 25_000_000  # one kernel time per this much time since the last
BURST = 4  # at most this many kernel times at once, e.g. after a 0.25 s process
RECORD_WINDOW_NS = 50_000_000
PROCESS_WINDOW_NS = 5_000_000_000

_MODULE = marshal.dumps(
    compile(
        "\n".join(
            f"def f{i}(x, y=2):\n    return [x * y + {i}, {{'k{i}': x}}, 'v{i}'.upper()]\n"
            f"class C{i}:\n    a = {i}\n    def m(self):\n        return f{i}(self.a)\n"
            for i in range(40)
        ),
        "<kernel>",
        "exec",
    )
)


def process_kernel() -> int:
    total = 0
    for _ in range(4):
        namespace = {}
        exec(marshal.loads(_MODULE), namespace)
        total += len(namespace["C3"]().m())
    return total


_COUNTS = '{"axes": [{"axis": 1, "n_plus": 37, "n_minus": 12}, {"axis": 2, "n_plus": 5, "n_minus": 40}, {"axis": 3, "n_plus": 20, "n_minus": 21}]}'


def record_kernel() -> float:
    total = 0.0
    for _ in range(12):
        axes = json.loads(_COUNTS)["axes"]
        plus = np.array([axis["n_plus"] for axis in axes], dtype=float)
        minus = np.array([axis["n_minus"] for axis in axes], dtype=float)
        v = (plus - minus) / (plus + minus)
        w = (plus + minus) / (plus + minus).sum()
        lam, r = 1.0, 0.0
        for _ in range(48):
            r = 0.0
            for i in range(3):
                mu = lam * w[i]
                x = math.cos((math.pi + math.atan(math.sqrt(abs(float(mu) - v[i]) + 1.0))) / 3.0)
                r += x * x
            lam *= 1.01
        total += r + float(np.dot(v, w))
        json.dumps({"v": v.tolist(), "t": total})
    return total


class SpeedReference:
    """Kernel times of one kernel, and when each was taken."""

    def __init__(self, kernel, window_ns: int):
        self.kernel = kernel
        self.window_ns = window_ns
        self.times_ns: list[int] = []
        self.taken_at: list[int] = []
        self.last = 0

    def calibrate(self, force: bool = False) -> None:
        """Time the kernel once for each EVERY_NS since the last time, at
        most BURST times; at least once if ``force``."""
        due = min(BURST, (monotonic_ns() - self.last) // EVERY_NS)
        for _ in range(max(due, int(force))):
            start = monotonic_ns()
            self.kernel()
            self.last = monotonic_ns()
            self.times_ns.append(self.last - start)
            self.taken_at.append(self.last)

    def factor(self, start: int, end: int) -> float:
        """What a time measured from ``start`` to ``end`` is multiplied by."""
        lo = bisect.bisect_left(self.taken_at, start - self.window_ns)
        hi = bisect.bisect_right(self.taken_at, end + self.window_ns)
        near = self.times_ns[lo:hi] or self.times_ns[max(0, lo - 1) : lo + 1]
        return REFERENCE_MS * 1e6 / statistics.median(near)

    def summary(self) -> dict:
        median = statistics.median(self.times_ns) / 1e6 if self.times_ns else None
        return {"median_ms": median, "samples": len(self.times_ns)}
