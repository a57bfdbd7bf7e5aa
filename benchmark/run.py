"""Layered benchmark for blochmle.

    python3 benchmark/run.py --workload exterior_batch --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the program under test is the ``src/blochmle`` next to
this directory, imported from source.  One closed-loop caller sends one
record at a time and at most one child process runs at a time.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with provenance, goes to ``benchmark/results/``.

A record fails when the program refuses it with its documented numerical
failure (``SolverError``, CLI exit code 3) or when its output fails the
check in ``check.py``, or when a repeat of the record gives another output.
Only outputs shown wrong, and any other exception or exit code, make
``correct`` false; every failure is counted in ``failed`` and printed with
its input.  The timed loop cycles through a fixed pool of records (POOL),
each run at least once, and ``attempted`` counts distinct records, so
``attempted`` and ``failed`` depend on the seed alone.  The exit
code is 0 when ``correct`` is true, 1 when it is not and 2 when the
benchmark could not run.  See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from array import array
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import check
import inputs
import procs
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("exterior_batch", "interior_batch", "cli_estimate", "synthetic_crosscheck")
SETUP_REPEATS = 8  # fresh processes per run for setup_s, half before the loop and half after; the median is reported
BREAKDOWN_REPEATS = 5  # fresh processes per process-cost layer in a traced run
# untimed records before the loop, from a stream of their own
WARMUP_RECORDS = {"exterior_batch": 32, "interior_batch": 32, "cli_estimate": 2, "synthetic_crosscheck": 4}
# records each run's timed loop cycles through, so that what a run attempts
# and what fails depends on the seed alone, not on how fast the machine is
POOL = {"exterior_batch": 8192, "interior_batch": 8192, "cli_estimate": 64, "synthetic_crosscheck": 512}
ORACLE_SAMPLE = 16  # exterior_batch records re-solved by oracle_mle after the loop
PROBE_COUNTS = 64  # exterior records run traced after the loop (see layer_metrics)
PROBE_SIMULATIONS = 12  # about half are projected, which the oracle metrics need

EXIT_SOLVER = 3  # blochmle's exit code for an internal numerical failure

# The loop's records split into this many consecutive blocks; each rate and
# percentile is the median of its values over the blocks, so that a burst of
# load from elsewhere on the host moves at most a block or two.
BLOCKS = 5

END_TO_END_UNITS = {
    "records_per_s": "1/s",
    "record_p50_ms": "ms",
    "record_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class CannotRun(RuntimeError):
    """The benchmark cannot measure this checkout."""


def import_program():
    """Import blochmle from this checkout's sources, or explain why not."""
    if not (SRC / "blochmle" / "__init__.py").is_file():
        raise CannotRun(f"no blochmle sources at {SRC / 'blochmle'}")
    sys.path.insert(0, str(SRC))
    import blochmle

    if Path(blochmle.__file__).resolve().parent != (SRC / "blochmle").resolve():
        raise CannotRun(f"imported blochmle from {blochmle.__file__}, not from {SRC}")


def provenance(args) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Run:
    """One benchmark run: drives records, checks every output, keeps counts."""

    def __init__(self, args):
        # imported here: blochmle is importable only after import_program()
        import pipeline
        from blochmle import SolverError

        self.args = args
        self.pipeline = pipeline
        self.solver_error = SolverError
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.outputs: dict[tuple, object] = {}  # each record's first output, to compare repeats with
        self.failures: dict[tuple, list[str]] = {}
        self.wrong: set[tuple] = set()
        self.exterior = 0
        self.classified = 0
        self.shots_range = (float("inf"), 0)
        self.child_rss_kb = 0
        self.process_speed = speed.SpeedReference(speed.process_kernel, speed.PROCESS_WINDOW_NS)
        self.record_speed = speed.SpeedReference(speed.record_kernel, speed.RECORD_WINDOW_NS)
        self.oracle_keep: list[tuple] = []
        rng = np.random.default_rng([args.seed, 99])
        self.oracle_candidates = set(rng.choice(2048, 3 * ORACLE_SAMPLE, replace=False).tolist())

    # -- records -------------------------------------------------------------

    def speed_for(self, workload: str) -> speed.SpeedReference:
        """The reference that scales this workload's records."""
        return self.process_speed if workload == "cli_estimate" else self.record_speed

    def process(self, workload: str, record):
        """Run one record through the program; returns what it produced."""
        if workload == "cli_estimate":
            return procs.estimate_process(record.text, ROOT, self.env)
        if workload == "synthetic_crosscheck":
            return self.pipeline.crosscheck(record)
        return self.pipeline.estimate(record.text)

    def record_failure(self, key, record, problems: list[tuple[str, bool]]) -> None:
        """Count a failed record; ``problems`` pairs each message with whether
        it shows the output wrong (see the module docstring)."""
        messages = [message for message, _ in problems]
        self.failures.setdefault(key, []).extend(messages)
        if any(wrong for _, wrong in problems):
            self.wrong.add(key)
        print(f"FAIL {key[0]} record {key[1]}: {'; '.join(messages)} | input: {record.describe()}", file=sys.stderr)

    @staticmethod
    def signature(output):
        """What must repeat exactly when a record runs again."""
        if isinstance(output, Exception):
            return f"{type(output).__name__}: {output}"
        if isinstance(output, procs.ChildResult):
            return output.returncode, output.out
        if isinstance(output, tuple):  # synthetic_crosscheck: (counts, report)
            return output[1]
        return output

    def verify(self, workload: str, phase: str, record, output) -> None:
        """Check one output against the record it came from.  A record's
        first output is checked in full and counted in ``attempted``; each
        later output of the same record must repeat it exactly."""
        key = (phase, record.index)
        if workload == "cli_estimate" and phase == "loop" and not isinstance(output, Exception):
            self.child_rss_kb = max(self.child_rss_kb, output.max_rss_kb)
        signature = self.signature(output)
        if key in self.outputs:
            if signature != self.outputs[key]:
                problem = f"output {signature!r} differs from this record's first output {self.outputs[key]!r}"
                self.record_failure(key, record, [(problem, True)])
            return
        self.outputs[key] = signature
        self.attempted += 1
        if isinstance(output, Exception):
            refused = isinstance(output, self.solver_error)
            self.record_failure(key, record, [(f"raised {type(output).__name__}: {output}", not refused)])
            return
        with_oracle = workload == "synthetic_crosscheck"
        if workload == "cli_estimate":
            if output.returncode != 0:
                problem = f"exit code {output.returncode}: {output.err.strip()}"
                self.record_failure(key, record, [(problem, output.returncode != EXIT_SOLVER)])
                return
            n_plus, n_minus, text = record.n_plus, record.n_minus, output.out
        elif with_oracle:
            counts, text = output
            n_plus, n_minus = counts.n_plus, counts.n_minus
            drawn = sum(n_plus) + sum(n_minus)
            per_axis = [p + m for p, m in zip(n_plus, n_minus)]
            if drawn != record.shots or (record.mode == "standard" and set(per_axis) != {record.n_shots}):
                self.record_failure(key, record, [(f"simulated shots {per_axis} do not match the plan", True)])
                return
        else:
            n_plus, n_minus, text = record.n_plus, record.n_minus, output
        problems = check.check_report(n_plus, n_minus, text, with_oracle=with_oracle)
        if problems:
            self.record_failure(key, record, problems)
        if phase != "loop":
            return
        exterior = check.is_exterior(check.exact_estimate(n_plus, n_minus)[0])
        self.classified += 1
        self.exterior += bool(exterior)
        shots = sum(n_plus) + sum(n_minus)
        self.shots_range = (min(shots, self.shots_range[0]), max(shots, self.shots_range[1]))
        if (
            workload == "exterior_batch"
            and exterior
            and record.index in self.oracle_candidates
            and len(self.oracle_keep) < ORACLE_SAMPLE
            and not problems
        ):
            self.oracle_keep.append((key, record, text))

    def drive(self, workload: str, records, phase: str, until_ns=None, limit=None, recorder=None, trail=None) -> array:
        """Closed loop: send the next record only after the previous one is
        done.  Returns the per-record latencies in ns; ``trail``, if given,
        gets each record's index, start and end (see new_trail).
        Checking happens a chunk at a time, outside the timed intervals."""
        clock = procs.monotonic_ns
        latencies = array("q")
        pending: list[tuple] = []
        gc.collect()
        for count, record in enumerate(records):
            if (limit is not None and count >= limit) or (until_ns is not None and clock() >= until_ns):
                break
            if recorder is not None:
                recorder.record = (phase, record.index)
            start = clock()
            try:
                output = self.process(workload, record)
            except Exception as exc:  # a failing record is counted, not fatal
                output = exc
            end = clock()
            latencies.append(end - start)
            pending.append((record, output))
            if trail is not None:
                trail.index.append(record.index)
                trail.start.append(start)
                trail.end.append(end)
            self.speed_for(workload).calibrate()
            if len(pending) == inputs.CHUNK:
                for item in pending:
                    self.verify(workload, phase, *item)
                pending.clear()
        for item in pending:
            self.verify(workload, phase, *item)
        return latencies

    def oracle_subsample(self) -> None:
        """Re-solve a seeded sample of exterior_batch records with the
        direct-search oracle, outside the timed loop."""
        from blochmle import oracle

        for key, record, text in self.oracle_keep:
            xi_hat, s_hat = check.exact_estimate(record.n_plus, record.n_minus)
            direct = oracle.oracle_mle(np.array(xi_hat), np.array(s_hat))
            x = json.loads(text)["xi_star"]
            disagreement = check.oracle_disagreement(xi_hat, s_hat, x, direct.tolist())
            if disagreement:
                self.record_failure(key, record, [disagreement])

    # -- fresh processes -----------------------------------------------------

    def child(self, mode: str, stdin_text: str = "") -> tuple:
        done = procs.run_child([sys.executable, str(HERE / "child.py"), mode], stdin_text, ROOT, self.env)
        if done.returncode != 0:
            raise RuntimeError(f"child.py {mode} exited {done.returncode}: {done.err.strip()}")
        return done, json.loads(done.out)

    def setup_seconds(self, repeats: range) -> list[tuple[int, int]]:
        """Fresh interpreter -> ``import blochmle`` -> one warm-up record
        through ``estimate``, timed from the parent's spawn to the child's
        finishing clock.  The same kind of record serves every workload, so
        setup_s measures what every process pays.  Child 0 only fills the
        bytecode cache and is not counted.  Returns each counted child's
        start and end in ns, with a kernel time taken before and after."""
        record = next(inputs.stream("cli_estimate", self.args.seed))
        samples = []
        self.process_speed.calibrate(force=True)
        for repeat in repeats:
            done, doc = self.child("setup", record.text)
            self.process_speed.calibrate(force=True)
            if repeat:
                samples.append((done.spawned_ns, doc["done_ns"]))
            self.attempted += 1
            problems = check.check_report(record.n_plus, record.n_minus, doc["report"])
            if problems:
                self.record_failure(("setup", repeat), record, problems)
        return samples

    def process_costs(self) -> dict:
        """Process-cost breakdown of one ``estimate`` process, each part in
        fresh processes; medians over BREAKDOWN_REPEATS."""
        record = next(inputs.stream("cli_estimate", self.args.seed))
        samples = defaultdict(list)
        for repeat in range(BREAKDOWN_REPEATS + 1):
            bare = procs.run_child([sys.executable, "-c", "pass"], "", ROOT, self.env)
            _, numpy_doc = self.child("numpy")
            _, blochmle_doc = self.child("blochmle")
            _, main_doc = self.child("main", record.text)
            self.attempted += 1
            code = main_doc["code"]
            problems = [] if code == 0 else [(f"cli.main returned {code}", code != EXIT_SOLVER)]
            problems += check.check_report(record.n_plus, record.n_minus, main_doc["report"])
            if problems:
                self.record_failure(("cli.main", repeat), record, problems)
            if repeat:  # the first round fills the bytecode cache
                samples["cli.interpreter_s"].append((bare.exited_ns - bare.spawned_ns) / 1e9)
                samples["import.numpy_s"].append(numpy_doc["seconds"])
                samples["import.blochmle_s"].append(blochmle_doc["seconds"])
                samples["cli.main_ms"].append(main_doc["ms"])
        return {name: statistics.median(values) for name, values in samples.items()}

    # -- results -------------------------------------------------------------

    @property
    def failed(self) -> int:
        return len(self.failures)

    def input_summary(self) -> dict:
        return {
            "records_classified": self.classified,
            "exterior_share": self.exterior / self.classified if self.classified else None,
            "shots_min": self.shots_range[0] if self.classified else None,
            "shots_max": self.shots_range[1],
        }


def new_trail() -> SimpleNamespace:
    """Index, start and end of each loop record, in arrays of 8-byte ints,
    so that the benchmark's own memory grows little with the records a run
    gets through and ``peak_rss_mb`` stays the program's."""
    return SimpleNamespace(index=array("q"), start=array("q"), end=array("q"))


def untraced(run: Run, workload: str) -> tuple[dict, dict]:
    """End-to-end metrics: set-up in fresh processes, then the timed loop."""
    args = run.args
    setup = run.setup_seconds(range(SETUP_REPEATS // 2 + 1))
    run.drive(workload, inputs.stream(workload, args.seed, 2), "warmup", limit=WARMUP_RECORDS[workload])
    pool = inputs.pool(workload, args.seed, POOL[workload])
    trail = new_trail()
    deadline = procs.monotonic_ns() + int(args.seconds * 1e9)
    latencies = run.drive(workload, itertools.cycle(pool), "loop", until_ns=deadline, trail=trail)
    run.speed_for(workload).calibrate(force=True)  # a kernel time right after the last record
    setup += run.setup_seconds(range(SETUP_REPEATS // 2 + 1, SETUP_REPEATS + 1))
    run.drive(workload, pool[len(latencies) :], "loop")  # any records the loop did not reach, untimed
    if workload == "cli_estimate":
        peak_kb = run.child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "exterior_batch":
        run.oracle_subsample()
    loop_speed = run.speed_for(workload)
    scaled = [lat * loop_speed.factor(start, end) for lat, start, end in zip(latencies, trail.start, trail.end)]
    failed_indices = {index for phase, index in run.failures if phase == "loop"}
    valid = np.array([index not in failed_indices for index in trail.index])
    setup_ns = [end - start for start, end in setup]
    setup_scaled = [(end - start) * run.process_speed.factor(start, end) for start, end in setup]

    def summary(lat_ns, setup_s) -> dict:
        blocks = np.array_split(np.arange(len(lat_ns)), min(BLOCKS, len(lat_ns)))
        lat_ms = np.asarray(lat_ns) / 1e6

        def over_blocks(value):
            return float(np.median([value(block) for block in blocks]))

        return {
            "records_per_s": over_blocks(lambda b: valid[b].sum() / (lat_ms[b].sum() / 1e3)),
            "record_p50_ms": over_blocks(lambda b: np.percentile(lat_ms[b], 50)),
            "record_p90_ms": over_blocks(lambda b: np.percentile(lat_ms[b], 90)),
            "peak_rss_mb": peak_kb / 1024.0,
            "setup_s": setup_s,
        }

    metrics = summary(scaled, statistics.median(setup_scaled) / 1e9)
    detail = {
        "latency_samples": len(latencies),
        "latency_deciles_ms": np.percentile(np.asarray(scaled) / 1e6, range(10, 100, 10)).round(4).tolist(),
        "pool_records": len(pool),
        "failed_frac": len(failed_indices) / len(pool),
        "speed_reference": {"record_kernel": run.record_speed.summary(), "process_kernel": run.process_speed.summary()},
        "unscaled": summary(latencies, statistics.median(setup_ns) / 1e9),
    }
    return metrics, detail


def install_spans(run: Run, recorder) -> None:
    """Wrap each layer's public function where its caller looks it up."""
    from blochmle import io as bio
    from blochmle import oracle as boracle
    from blochmle import projector as bproj
    from blochmle import simulator as bsim

    recorder.span(bio, "parse_counts", "io.parse_counts")
    recorder.span(bio, "build_estimate_report", "io.build_estimate_report")
    recorder.span(bio, "report_to_json", "io.report_to_json")
    recorder.span(bio, "counts_to_json", "io.counts_to_json")
    recorder.span(bio, "temporal_estimate", "core.temporal_estimate")
    recorder.span(bio, "project_mle", "projector.project_mle")
    recorder.span(bio, "empirical_kl", "oracle.empirical_kl")
    recorder.span(bio, "oracle_mle", "oracle.oracle_mle")
    recorder.span(bsim, "simulate", "simulator.simulate")
    recorder.span(procs, "estimate_process", "cli.estimate_process")
    recorder.count(bproj, "cubic_solve")
    recorder.count(boracle, "empirical_kl")


def layer_metrics(recorder, shots: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans: p50 of self time unless a count or
    ratio.  Each metric comes from the workload's own loop where the loop
    calls that layer, otherwise from the probe records (phase "probe").  The
    two counts always come from the probe records, a fixed seeded set, so
    that they repeat exactly between runs at the same seed."""
    from spans import COUNT, END, NAME, PHASE, RECORD, START

    spans = recorder.spans
    self_ns = recorder.self_times_ns()
    groups = defaultdict(list)
    for i, entry in enumerate(spans):
        groups[entry[NAME], entry[PHASE]].append(i)
    sources = {}

    def pick(metric, name, keep=lambda i: True, phases=("loop", "probe")):
        for phase in phases:
            chosen = [i for i in groups[name, phase] if keep(i)]
            if chosen:
                sources[metric] = phase
                return chosen
        raise RuntimeError(f"no {name} spans for {metric}")

    def p50_self(metric, name, scale, keep=lambda i: True):
        return statistics.median(self_ns[i] for i in pick(metric, name, keep)) / scale

    counted = lambda i: spans[i][COUNT] > 0  # noqa: E731  exterior projections / oracle searches
    exterior = pick("projector.exterior_share", "projector.project_mle")
    projections = pick("projector.project_mle_us", "projector.project_mle", counted)
    searches = pick("oracle.oracle_mle_ms", "oracle.oracle_mle", counted)
    phase = sources["oracle.oracle_mle_ms"]
    projection_ns = {spans[i][RECORD]: spans[i][END] - spans[i][START] for i in groups["projector.project_mle", phase] if counted(i)}
    speedups = [
        (spans[i][END] - spans[i][START]) / projection_ns[spans[i][RECORD]]
        for i in searches
        if spans[i][RECORD] in projection_ns
    ]
    sources["oracle.speedup_vs_projector"] = phase
    simulations = pick("simulator.shots_per_s", "simulator.simulate")
    probe_projections = pick("projector.cubic_solve_calls", "projector.project_mle", counted, ("probe",))
    probe_searches = pick("oracle.objective_evals", "oracle.oracle_mle", counted, ("probe",))
    metrics = {
        "projector.project_mle_us": statistics.median(self_ns[i] for i in projections) / 1e3,
        "projector.cubic_solve_calls": statistics.median(spans[i][COUNT] for i in probe_projections),
        "projector.exterior_share": sum(map(counted, exterior)) / len(exterior),
        "io.parse_counts_us": p50_self("io.parse_counts_us", "io.parse_counts", 1e3),
        "io.build_estimate_report_self_us": p50_self("io.build_estimate_report_self_us", "io.build_estimate_report", 1e3),
        "io.report_to_json_us": p50_self("io.report_to_json_us", "io.report_to_json", 1e3),
        "core.temporal_estimate_us": p50_self("core.temporal_estimate_us", "core.temporal_estimate", 1e3),
        "oracle.empirical_kl_us": p50_self("oracle.empirical_kl_us", "oracle.empirical_kl", 1e3),
        "oracle.oracle_mle_ms": statistics.median(self_ns[i] for i in searches) / 1e6,
        "oracle.objective_evals": statistics.median(spans[i][COUNT] for i in probe_searches),
        "oracle.speedup_vs_projector": statistics.median(speedups),
        "simulator.simulate_ms": p50_self("simulator.simulate_ms", "simulator.simulate", 1e6),
        "simulator.shots_per_s": sum(shots[spans[i][RECORD]] for i in simulations)
        / (sum(spans[i][END] - spans[i][START] for i in simulations) / 1e9),
    }
    return metrics, sources


def traced(run: Run, workload: str) -> tuple[dict, dict]:
    """Per-layer metrics.  Each group of loop records runs untraced and then
    again traced, so the tracing overhead compares the same records at
    nearly the same time.  Probe records then cover the layers the loop does
    not call, and fresh processes give the process-cost breakdown."""
    from spans import SpanRecorder

    args = run.args
    run.drive(workload, inputs.stream(workload, args.seed, 2), "warmup", limit=WARMUP_RECORDS[workload])
    pool = inputs.pool(workload, args.seed, POOL[workload])
    records = itertools.cycle(pool)
    group = inputs.CHUNK if workload in ("exterior_batch", "interior_batch") else 1
    recorder = SpanRecorder()
    plain, with_spans, shots = [], [], {}
    deadline = procs.monotonic_ns() + int(args.seconds * 1e9)
    while procs.monotonic_ns() < deadline or len(plain) < len(pool):  # the whole pool at least once
        batch = list(itertools.islice(records, group))
        plain += run.drive(workload, batch, "loop-untraced")
        install_spans(run, recorder)
        try:
            with_spans += run.drive(workload, batch, "loop", recorder=recorder)
        finally:
            recorder.restore()
        if workload == "synthetic_crosscheck":
            shots.update({("loop", sim.index): sim.shots for sim in batch})
    probe_counts = list(itertools.islice(inputs.stream("exterior_batch", args.seed, 1), PROBE_COUNTS))
    probe_sims = list(itertools.islice(inputs.stream("synthetic_crosscheck", args.seed, 1), PROBE_SIMULATIONS))
    shots.update({("probe-sim", sim.index): sim.shots for sim in probe_sims})
    recorder.phase = "probe"
    install_spans(run, recorder)
    try:
        run.drive("exterior_batch", probe_counts, "probe", recorder=recorder)
        run.drive("synthetic_crosscheck", probe_sims, "probe-sim", recorder=recorder)
    finally:
        recorder.restore()
    if workload == "exterior_batch":
        run.oracle_subsample()
    metrics, sources = layer_metrics(recorder, shots)
    peaks = []
    for sim in probe_sims:
        tracemalloc.start()
        try:
            run.pipeline.simulate(sim)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    metrics["simulator.peak_alloc_mb"] = max(peaks) / 2**20
    metrics.update(run.process_costs())
    metrics["trace.overhead_frac"] = (sum(with_spans) - sum(plain)) / sum(plain)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload}-seed{args.seed}-spans.jsonl"
    recorder.write(spans_path)
    detail = {"layer_sources": sources, "loop_records": len(plain), "spans": len(recorder.spans), "spans_file": spans_path.name}
    return metrics, detail


LAYER_UNITS = {
    "projector.project_mle_us": "us",
    "projector.cubic_solve_calls": "count",
    "projector.exterior_share": "ratio",
    "io.parse_counts_us": "us",
    "io.build_estimate_report_self_us": "us",
    "io.report_to_json_us": "us",
    "core.temporal_estimate_us": "us",
    "oracle.empirical_kl_us": "us",
    "oracle.oracle_mle_ms": "ms",
    "oracle.objective_evals": "count",
    "oracle.speedup_vs_projector": "ratio",
    "simulator.simulate_ms": "ms",
    "simulator.shots_per_s": "1/s",
    "simulator.peak_alloc_mb": "MB",
    "cli.interpreter_s": "s",
    "import.numpy_s": "s",
    "import.blochmle_s": "s",
    "cli.main_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        print(done.stdout, end="", flush=True)
        worst = max(worst, done.returncode)
        if done.returncode not in (0, 1):
            combined["correct"] = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except CannotRun as exc:
        print(f"error: {exc}", file=sys.stderr)
    except Exception:  # report, and keep exit code 1 for wrong outputs
        traceback.print_exc()
    return 2


def run_one(args) -> int:
    import_program()
    run = Run(args)
    if args.trace:
        metrics, detail = traced(run, args.workload)
        units = LAYER_UNITS
    else:
        metrics, detail = untraced(run, args.workload)
        units = END_TO_END_UNITS
    inputs = run.input_summary()
    result = {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    document = {
        "provenance": provenance(args),
        "inputs": inputs,
        "detail": detail,
        "failures": [{"phase": k[0], "record": k[1], "problems": v} for k, v in list(run.failures.items())[:1000]],
        **result,
    }
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"inputs: {json.dumps(inputs)}")
    print(f"detail: {json.dumps(detail)}")
    for name, entry in result["metrics"].items():
        print(f"  {name:36s} {entry['value']:.6g} {entry['unit']}")
    print(f"attempted {run.attempted}, failed {run.failed}; result file {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
