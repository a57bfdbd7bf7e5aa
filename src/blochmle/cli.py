"""Command-line surface.

Subcommands: ``estimate`` (counts file -> JSON report), ``simulate``
(synthetic counts file), ``bench`` (projection vs direct-search timing),
``trajectories`` (plot-ready projection curves), ``sweep`` (estimation
error versus shot count), ``check`` (the rows of ``checks.GATES``).  Exit
codes: 0 success, 1 failed invariant, 2 bad input, 3 internal numerical
failure or, in ``bench`` and ``estimate --oracle``, a projector and direct
search that disagree.  A rule on an argument that a library function
already enforces is left to that function; its ``InvalidInputError`` exits
2.  So is every ``--seed``: argparse reads it as an int, and the function
that draws from it refuses one outside [0, 2**64) by core's seed rule.

The modules that need numpy (simulator, checks) are imported inside
the subcommands that use them, so neither ``trajectories`` nor an
``estimate`` process without ``--oracle`` ever loads it;
the package's records are namedtuples, so it loads neither ``dataclasses``
nor ``typing`` either.  ``estimate --oracle`` loads numpy through
``oracle``, which also holds the cross-check's tolerance, and no more: not
``checks``, ``infogeo`` or ``simulator``.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import InvalidInputError, SolverError, _at_least, norm_squared, weight_vector
from .io import (
    build_estimate_report,
    counts_to_csv,
    counts_to_json,
    csv_text,
    parse_counts,
    report_to_json,
)
from .projector import _linspace, projection_trajectory

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3

PLANES = {"xi1xi2": (0, 1, 2), "xi1xi3": (0, 2, 1), "xi2xi3": (1, 2, 0)}

# The suites of checks.GATES in table order, named here so that parsing
# ``check --suite`` does not import checks (and numpy).
SUITE_NAMES = ("infogeo", "projector", "simulator")


def _read_input(path: str) -> str:
    try:
        if path == "-":
            text = sys.stdin.read()
            # a surrogateescape stdin (POSIX and C.UTF-8 locales) keeps bytes
            # that are not UTF-8 as lone surrogates: recover them, decode strictly
            text.encode("utf-8", "surrogateescape").decode("utf-8")
            return text
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeError) as exc:
        name = "standard input" if path == "-" else path
        raise InvalidInputError(f"cannot read {name}: {exc}") from None


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from None


def _parse_triple(text: str, flag: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidInputError(f"{flag}: expected 3 comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise InvalidInputError(f"{flag}: not numeric: {text!r}") from None


def _parse_weights(text: str, flag: str) -> tuple[float, float, float]:
    # accepts ratios (e.g. 5,1,1) and normalizes them to fractions
    ratios = _parse_triple(text, flag)
    if not all(math.isfinite(r) and r > 0.0 for r in ratios):
        raise InvalidInputError(f"{flag}: weights must be positive, got {text!r}")
    total = ratios[0] + ratios[1] + ratios[2]
    if not math.isfinite(total):
        # the sum overflows: scale by the largest ratio first, and only then,
        # so that every ratio triple with a finite sum keeps its weights' bits
        top = max(ratios)
        ratios = [r / top for r in ratios]
        total = ratios[0] + ratios[1] + ratios[2]
    weights = [r / total for r in ratios]
    if 0.0 in weights:
        raise InvalidInputError(f"{flag}: a weight underflows to 0, below the smallest positive float, got {text!r}")
    return weight_vector(weights)


def _methods_agree(max_discrepancy: float) -> bool:
    """The rule of ``bench`` and ``estimate --oracle``: the projector and
    the direct search agree when the max-norm gap between their answers is
    below ``oracle.DISCREPANCY_TOL``.  A disagreement is also written to
    stderr.  Both callers have loaded ``oracle`` already."""
    from .oracle import DISCREPANCY_TOL  # noqa: PLC0415 - see the module docstring

    if max_discrepancy < DISCREPANCY_TOL:
        return True
    print("methods disagree beyond 1e-4", file=sys.stderr)
    return False


def _cmd_estimate(args) -> int:
    counts = parse_counts(_read_input(args.infile))
    report = build_estimate_report(counts, with_oracle=args.oracle)
    _write_output(args.out, report_to_json(report))
    if args.oracle and not _methods_agree(report["oracle"]["max_discrepancy"]):
        return EXIT_SOLVER
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .simulator import SimulationSpec, simulate  # noqa: PLC0415 - see the module docstring

    weights = _parse_weights(args.s, "--s") if args.s is not None else None
    spec = SimulationSpec(
        xi_true=_parse_triple(args.xi, "--xi"),
        mode=args.mode,
        n_shots=args.N,
        weights=weights,
        seed=args.seed,
    )
    counts = simulate(spec)
    text = counts_to_csv(counts) if args.format == "csv" else counts_to_json(counts)
    _write_output(args.out, text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .checks import run_benchmark  # noqa: PLC0415 - see the module docstring

    result = run_benchmark(args.trials, args.seed)
    rows = ([r.index, f"{r.projection_ms:.6f}", f"{r.oracle_ms:.6f}", f"{r.discrepancy:.3e}"] for r in result.trials)
    _write_output(args.out, csv_text(["trial", "projection_ms", "oracle_ms", "discrepancy"], rows))
    print(
        f"projection mean {result.projection_mean_ms:.4f} ms (median {result.projection_median_ms:.4f}), "
        f"direct search mean {result.oracle_mean_ms:.4f} ms (median {result.oracle_median_ms:.4f}), "
        f"speedup {result.speedup:.1f}x, max discrepancy {result.max_discrepancy:.3e}",
        file=sys.stderr,
    )
    return EXIT_OK if _methods_agree(result.max_discrepancy) else EXIT_SOLVER


def _cmd_trajectories(args) -> int:
    grid = _at_least(args.grid, "--grid", 1)
    weights = _parse_weights(args.s, "--s")
    u_axis, v_axis, _ = PLANES[args.plane]
    lattice = _linspace(-1.0, 1.0, grid)

    # projection_trajectory refuses --samples below 2 at the first start
    # point, (-1, -1), which is always outside the ball
    rows = []
    trajectory_id = 0
    for u in lattice:
        for v in lattice:
            start = [0.0, 0.0, 0.0]
            start[u_axis], start[v_axis] = u, v
            if norm_squared(start) <= 1.0:
                continue
            curve = projection_trajectory(start, weights, args.samples)
            for k, point in enumerate(curve):
                rows.append([trajectory_id, k] + [f"{c:.12g}" for c in point])
            trajectory_id += 1
    _write_output(args.out, csv_text(["trajectory_id", "sample_index", "xi1", "xi2", "xi3"], rows))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from .checks import consistency_errors  # noqa: PLC0415 - see the module docstring

    sweep = consistency_errors(seeds_per_n=args.seeds, base_seed=args.seed)
    n_values = list(sweep["errors"])
    table = csv_text(["n_shots", "rmse", "median_error"], zip(n_values, sweep["rmse"], sweep["median"]))
    _write_output(args.out, table)
    for n, rmse in zip(n_values, sweep["rmse"]):
        print(f"N = {n:>6d}   rmse {rmse:.5f}   sqrt(N)*rmse {rmse * math.sqrt(n):.3f}", file=sys.stderr)
    print(f"rmse slope {sweep['rmse_slope']:.3f}, median slope {sweep['median_slope']:.3f}", file=sys.stderr)
    return EXIT_OK


def _cmd_check(args) -> int:
    from .checks import run_gates  # noqa: PLC0415 - see the module docstring

    outcomes = run_gates(SUITE_NAMES if args.suite == "all" else (args.suite,), args.seed)
    for outcome in outcomes:
        status = "PASS" if outcome.passed else "FAIL"
        detail = f" ({outcome.detail})" if outcome.detail else ""
        print(f"{status} {outcome.name}{detail}")
    failed = sum(not o.passed for o in outcomes)
    print(f"{len(outcomes) - failed}/{len(outcomes)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blochmle",
        description="Maximum-likelihood correction of qubit tomography counts "
        "by metric projection onto the Bloch sphere.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="counts file -> JSON estimate report")
    p.add_argument("--in", dest="infile", default="-", help="counts file (JSON or CSV), '-' for stdin")
    p.add_argument("--out", default="-", help="report destination, '-' for stdout")
    p.add_argument("--oracle", action="store_true", help="also run the direct-search cross-check")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("simulate", help="draw synthetic counts")
    p.add_argument("--xi", required=True, help="true Stokes vector a,b,c with norm <= 1")
    p.add_argument("--mode", choices=["standard", "randomized"], default="standard")
    p.add_argument("--N", type=int, required=True, help="shots per axis (standard) or total (randomized)")
    p.add_argument("--s", default=None, help="axis weight ratios a,b,c, normalized (randomized mode)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="time projection vs direct search")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("trajectories", help="emit projection curves for a plane of start points")
    p.add_argument("--plane", choices=sorted(PLANES), default="xi1xi2")
    p.add_argument("--grid", type=int, default=9, help="lattice resolution per plane axis")
    p.add_argument("--s", default="1,1,1", help="axis weight ratios a,b,c, normalized")
    p.add_argument("--samples", type=int, default=32, help="points per trajectory")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_trajectories)

    p = sub.add_parser("sweep", help="estimation error vs shot count (CSV)")
    p.add_argument("--seeds", type=int, default=100, help="simulated experiments per shot count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run seeded invariant suites")
    p.add_argument("--suite", choices=["all", *SUITE_NAMES], default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
