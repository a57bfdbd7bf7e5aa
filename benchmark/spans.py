"""In-memory span recorder for the traced run.

``SpanRecorder.span`` replaces a module attribute with a wrapper, so every
call that looks the name up in that module records a span: its name, start
and end from ``time.perf_counter_ns``, the enclosing span, the record id and
the phase.  ``SpanRecorder.count`` wraps a name that is called many times
inside one layer (``cubic_solve``, the oracle's objective) and only adds one
to the enclosing span's count.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

NAME, START, END, PARENT, RECORD, PHASE, COUNT = range(7)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []
        self.record = None
        self.phase = "loop"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _patch(self, module, attr: str, wrapper_of) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, functools.wraps(original)(wrapper_of(original)))

    def span(self, module, attr: str, name: str) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper_of(fn):
            def traced(*args, **kwargs):
                entry = [name, 0, 0, stack[-1] if stack else -1, self.record, self.phase, 0]
                stack.append(len(spans))
                spans.append(entry)
                entry[START] = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    entry[END] = clock()
                    stack.pop()

            return traced

        self._patch(module, attr, wrapper_of)

    def count(self, module, attr: str) -> None:
        spans, stack = self.spans, self._stack

        def wrapper_of(fn):
            def counted(*args, **kwargs):
                if stack:
                    spans[stack[-1]][COUNT] += 1
                return fn(*args, **kwargs)

            return counted

        self._patch(module, attr, wrapper_of)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the durations of its child spans."""
        children = defaultdict(int)
        for entry in self.spans:
            if entry[PARENT] >= 0:
                children[entry[PARENT]] += entry[END] - entry[START]
        return [entry[END] - entry[START] - children[i] for i, entry in enumerate(self.spans)]

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent, record, phase, count."""
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self.spans:
                handle.write(json.dumps(entry) + "\n")
