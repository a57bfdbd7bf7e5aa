import collections
import csv
import hashlib
import io
import itertools
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from blochmle import checks, projector
from blochmle import io as bio
from blochmle.checks import GATES, BenchResult, BenchTrial, run_benchmark
from blochmle.cli import SUITE_NAMES, build_parser, main
from blochmle.core import CountRecord, InvalidInputError, SolverError
from blochmle.io import (
    build_estimate_report,
    counts_to_csv,
    counts_to_json,
    parse_counts,
    parse_counts_csv,
    parse_counts_json,
    report_to_json,
)
from blochmle.projector import ProjectionResult, _linspace
from blochmle.simulator import SimulationSpec

RECORD = CountRecord((80, 50, 65), (20, 50, 35))


def nan_on_second_call(function):
    """``function``, but its second call returns NaN in place of every
    number of its result: a NaN met after the first instance, which a
    running ``max`` from a finite start would drop."""
    calls = itertools.count(1)

    def fake(*args):
        value = function(*args)
        if next(calls) != 2:
            return value
        if isinstance(value, ProjectionResult):
            return value._replace(xi_star=(math.nan,) * 3, norm_residual=math.nan, equation_residuals=(math.nan,) * 3)
        return np.full_like(value, math.nan) if isinstance(value, np.ndarray) else math.nan

    return fake


# the columns of ``checks._fisher_rows`` that each of its two gates reads:
# the Fisher metric's gate the state-state block, the foliation's the
# state-weight block
METRIC_BLOCK, FOLIATION_BLOCK = slice(0, 3), slice(3, 5)


def fisher_rows_set(columns, value, every=1):
    """A fake of ``checks._fisher_rows``, built from the real function, that
    sets ``columns`` of every ``every``-th call's rows to ``value`` and
    leaves the other block as computed, so only one gate reads the fault."""

    def make(function):
        calls = itertools.count(1)

        def fake(s, xi):
            rows = function(s, xi)
            if next(calls) % every == 0:
                rows[:, columns] = value
            return rows

        return fake

    return make


class TestCountsFormats:
    def test_json_roundtrip(self):
        assert parse_counts_json(counts_to_json(RECORD)) == RECORD

    def test_csv_roundtrip(self):
        assert parse_counts_csv(counts_to_csv(RECORD)) == RECORD

    def test_csv_bytes(self):
        # header, three rows in axis order, "\n" line ends, no quoting
        assert counts_to_csv(RECORD) == "axis,n_plus,n_minus\n1,80,20\n2,50,50\n3,65,35\n"
        big = CountRecord((2**70, 0, 1), (3, 10**20, 0))
        assert counts_to_csv(big) == f"axis,n_plus,n_minus\n1,{2**70},3\n2,0,{10**20}\n3,1,0\n"

    def test_auto_detection(self):
        assert parse_counts(counts_to_json(RECORD)) == RECORD
        assert parse_counts(counts_to_csv(RECORD)) == RECORD

    def test_json_errors_name_fields(self):
        with pytest.raises(InvalidInputError, match="axes"):
            parse_counts_json("{}")
        with pytest.raises(InvalidInputError, match=r"axes\[0\].n_plus"):
            parse_counts_json('{"axes": [{"axis": 1, "n_minus": 2}, {}, {}]}')
        with pytest.raises(InvalidInputError, match=r"axes\[1\].axis"):
            parse_counts_json(
                '{"axes": [{"axis": 1, "n_plus": 1, "n_minus": 1},'
                ' {"axis": 4, "n_plus": 1, "n_minus": 1},'
                ' {"axis": 3, "n_plus": 1, "n_minus": 1}]}'
            )
        with pytest.raises(InvalidInputError, match="duplicate"):
            parse_counts_json(
                '{"axes": [{"axis": 1, "n_plus": 1, "n_minus": 1},'
                ' {"axis": 1, "n_plus": 1, "n_minus": 1},'
                ' {"axis": 3, "n_plus": 1, "n_minus": 1}]}'
            )

    def test_empty_input(self):
        with pytest.raises(InvalidInputError, match="empty input"):
            parse_counts("  \n")

    def test_csv_errors(self):
        with pytest.raises(InvalidInputError, match="header"):
            parse_counts_csv("a,b,c\n1,2,3\n")
        with pytest.raises(InvalidInputError, match="n_plus"):
            parse_counts_csv("axis,n_plus,n_minus\n1,x,3\n2,1,1\n3,1,1\n")
        with pytest.raises(InvalidInputError, match="3 data rows"):
            parse_counts_csv("axis,n_plus,n_minus\n1,1,1\n2,1,1\n")

    @pytest.mark.parametrize("idx", [0, 1, 2])
    @pytest.mark.parametrize("key", ["axis", "n_plus", "n_minus"])
    @pytest.mark.parametrize("value", ["7", 1.5, True, None], ids=["str", "float", "bool", "null"])
    def test_json_field_messages(self, idx, key, value):
        axes = [{"axis": i + 1, "n_plus": 1, "n_minus": 1} for i in range(3)]
        axes[idx][key] = value
        with pytest.raises(InvalidInputError) as info:
            parse_counts_json(json.dumps({"axes": axes}))
        # CountRecord checks the counts, and names them by axis
        field = f"axes[{idx}].axis" if key == "axis" else f"axis {idx + 1} {key}"
        assert str(info.value) == f"{field}: expected an integer, got {value!r}"

    @pytest.mark.parametrize("row", [1, 2, 3])
    @pytest.mark.parametrize("column", ["axis", "n_plus", "n_minus"])
    def test_csv_field_messages(self, row, column):
        rows = [[str(axis), "1", "1"] for axis in (1, 2, 3)]
        rows[row - 1][bio.COUNTS_CSV_HEADER.index(column)] = " 1.5"
        text = "axis,n_plus,n_minus\n" + "".join(",".join(cells) + "\n" for cells in rows)
        with pytest.raises(InvalidInputError) as info:
            parse_counts_csv(text)
        assert str(info.value) == f"row {row} {column}: not an integer: ' 1.5'"

    def test_report_floats_roundtrip(self):
        report = build_estimate_report(CountRecord((90, 90, 90), (10, 10, 10)))
        parsed = json.loads(report_to_json(report))
        assert parsed["lambda_star"] == report["lambda_star"]
        assert parsed["xi_star"] == report["xi_star"]

    def test_deeply_nested_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"axes": ' + "[" * 100_000)
        assert main(["estimate", "--in", str(path)]) == 2
        assert "error: not valid JSON: arrays or objects nested too deeply" in capsys.readouterr().err


@pytest.fixture
def json_loads_calls(monkeypatch):
    """A list that gains one item per ``json.loads`` call from here on."""
    calls, loads = [], json.loads

    def counted(*args, **kwargs):
        calls.append(args)
        return loads(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    return calls


def one_line_json(counts: CountRecord) -> str:
    """The counts as ``json.dumps`` writes them without an indent: one line,
    which ``parse_counts`` reads through ``json.loads``."""
    axes = [{"axis": i + 1, "n_plus": counts.n_plus[i], "n_minus": counts.n_minus[i]} for i in range(3)]
    return json.dumps({"axes": axes})


LAYOUT = counts_to_json(RECORD)
AXIS_1, AXIS_2, AXIS_3 = (LAYOUT.index(f'    {{\n      "axis": {axis}') for axis in (1, 2, 3))
AXIS_1_AND_2_SWAPPED = LAYOUT[:AXIS_1] + LAYOUT[AXIS_2:AXIS_3] + LAYOUT[AXIS_1:AXIS_2] + LAYOUT[AXIS_3:]
# texts one edit away from the layout counts_to_json writes: a replacement
# in LAYOUT, and whether parse_counts reads the result without json.loads
NEAR_MISSES = {
    "leading_zero": (LAYOUT.replace('"n_plus": 80', '"n_plus": 080'), False),
    "plus_sign": (LAYOUT.replace('"n_plus": 80', '"n_plus": +80'), False),
    "minus_sign": (LAYOUT.replace('"n_plus": 80', '"n_plus": -80'), False),
    "18_digits": (LAYOUT.replace('"n_plus": 80', '"n_plus": ' + "9" * 18), True),
    "19_digits": (LAYOUT.replace('"n_plus": 80', '"n_plus": 1' + "0" * 18), False),
    "5000_digits": (LAYOUT.replace('"n_plus": 80', '"n_plus": ' + "1" * 5000), False),
    "crlf": (LAYOUT.replace("\n", "\r\n"), False),
    "no_final_newline": (LAYOUT[:-1], False),
    "byte_order_mark": ("\ufeff" + LAYOUT, True),
    "arabic_indic_digit": (LAYOUT.replace('"n_plus": 80', '"n_plus": \u0663'), False),
    "swapped_axes": (AXIS_1_AND_2_SWAPPED, False),
    "extra_space": (LAYOUT.replace('"n_plus": 80', '"n_plus":  80'), False),
    "axis_without_shots": (LAYOUT.replace('"n_plus": 50,\n      "n_minus": 50', '"n_plus": 0,\n      "n_minus": 0'), True),
}


class TestCountsLayout:
    """``parse_counts`` reads the text ``counts_to_json`` writes by one
    pattern built from its layout, and every other text by the general
    readers, to the same record or the same refusal."""

    @pytest.mark.parametrize("name", NEAR_MISSES)
    def test_near_miss_reads_as_json(self, name, json_loads_calls):
        text, matches_layout = NEAR_MISSES[name]
        try:
            got = parse_counts(text)
        except InvalidInputError as exc:
            got = str(exc)
        assert len(json_loads_calls) == (0 if matches_layout else 1)
        # parse_counts drops a byte-order mark before it reads anything,
        # and json.loads refuses one
        try:
            expected = parse_counts_json(text.removeprefix("\ufeff"))
        except InvalidInputError as exc:
            expected = str(exc)
        assert got == expected
        if name == "swapped_axes":
            assert got == RECORD
        if name == "axis_without_shots":
            assert got == "axis 2: no measurements recorded"

    def test_layout_read_without_json_loads(self, json_loads_calls):
        records = [RECORD, CountRecord((0, 10**18 - 1, 1), (1, 0, 10**17))]
        assert [parse_counts(counts_to_json(record)) for record in records] == records
        assert json_loads_calls == []
        assert parse_counts(one_line_json(RECORD)) == RECORD
        assert len(json_loads_calls) == 1


def as_json_dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def seeded_records(seed: int, n: int):
    # 1 to 2000 shots per axis; alternately near-pure states, most of them
    # outside the ball, and mixed states inside it.  Two records in four,
    # one of each kind, have the same shots on every axis, so equal weights
    rng = np.random.default_rng(seed)
    for i in range(n):
        shots = rng.integers(1, 2000, size=3)
        if i % 4 < 2:
            shots[1:] = shots[0]
        p_plus = rng.beta(0.3, 0.3, size=3) if i % 2 else rng.uniform(0.3, 0.7, size=3)
        n_plus = rng.binomial(shots, p_plus)
        yield CountRecord(tuple(int(k) for k in n_plus), tuple(int(k) for k in shots - n_plus))


# RECORD has equal totals and xi_hat = (0.6, 0.0, 0.3); the two records
# after component_at_1 are unprojected with only one of those: equal totals,
# then a 0.0
NAMED_RECORDS = {
    "interior": RECORD,
    "projected": CountRecord((90, 90, 90), (10, 10, 10)),
    "component_at_1": CountRecord((100, 65, 50), (0, 35, 50)),
    "interior_equal_totals": CountRecord((7, 2, 6), (3, 8, 4)),
    "interior_zero_component": CountRecord((30, 10, 45), (10, 10, 55)),
    # ROADMAP's Known defects, as counts: xi_hat = (0, 1, 1 - 2^-53) with
    # s = (1.49e-300, 2^-9, 1 - 2^-9), a near-kink component that takes 10
    # residual evaluations; and with s = (1.49e-300, 1.49e-300, 1), where
    # x_2 = 1.68e-285 is fixed only to rounding (the exact root is ~1.49e-8)
    "near_kink": CountRecord((1, 2**988, 511 * 2**988 - 511 * 2**934), (1, 0, 511 * 2**934)),
    "rounding": CountRecord((1, 2, 2**997 - 2**943), (1, 0, 2**943)),
    # the extreme records of test_report_with_oracle and test_counts_above_2_53:
    # lambda_star ~2.4e300 after 24 evaluations, and counts above 2^53
    "lambda_near_1e300": CountRecord((1, 1, 10**300), (0, 0, 10**300)),
    "counts_above_2_53": CountRecord((2**53 + 1, 3, 2**70), (1, 2**63, 5)),
}

# The report corpus: one line per record of NAMED_RECORDS, then of
# seeded_records(7, 400), each its six counts (n_plus, then n_minus) and the
# SHA-256 of its report, which has no oracle block.  The counts are stored,
# not drawn, so a change to numpy's random streams does not move the corpus.
REPORT_DIGESTS = Path(__file__).with_name("report_digests.txt")


def report_digest(report_text: str) -> str:
    return hashlib.sha256(report_text.encode()).hexdigest()


def write_report_digests():
    lines = []
    for record in [*NAMED_RECORDS.values(), *seeded_records(7, 400)]:
        report = report_to_json(build_estimate_report(record))
        lines.append(" ".join(map(str, record.n_plus + record.n_minus)) + " " + report_digest(report) + "\n")
    REPORT_DIGESTS.write_text("".join(lines))


class TestJsonWriter:
    """reports and counts files are byte-identical to json.dumps(indent=2)"""

    def test_seeded_reports(self):
        # every pairing of projected or not with equal weights or not, which
        # report_to_json writes each its own way
        kinds = collections.Counter()
        for record in seeded_records(7, 400):
            report = build_estimate_report(record)
            assert report_to_json(report) == as_json_dumps(report)
            s1, s2, s3 = report["s_hat"]
            kinds[report["was_projected"], s1 == s2 == s3] += 1
        assert len(kinds) == 4 and min(kinds.values()) > 50

    @pytest.mark.parametrize("record", NAMED_RECORDS.values(), ids=list(NAMED_RECORDS))
    def test_named_reports(self, record):
        report = build_estimate_report(record)
        assert report_to_json(report) == as_json_dumps(report)

    def test_report_digests(self, json_loads_calls):
        """Every report of the corpus in ``report_digests.txt`` has the
        bytes it had when the corpus was written, with its record read from
        text three ways: as ``counts_to_json`` writes it, which
        ``parse_counts`` reads without ``json.loads`` unless a count has
        more than 18 digits; as one-line JSON,
        which goes through ``json.loads``; and as CSV.  After a deliberate
        change to the report bytes, regenerate the file with
        ``PYTHONPATH=src python tests/test_cli.py``."""
        lines = REPORT_DIGESTS.read_text().splitlines()
        assert len(lines) == len(NAMED_RECORDS) + 400
        loads = 0
        for number, line in enumerate(lines, 1):
            *counts, digest = line.split()
            counts = [int(n) for n in counts]
            record = CountRecord(tuple(counts[:3]), tuple(counts[3:]))
            for write in counts_to_json, one_line_json, counts_to_csv:
                parsed = parse_counts(write(record))
                assert parsed == record, f"line {number}, {write.__name__}"
                report = report_to_json(build_estimate_report(parsed))
                assert report_digest(report) == digest, f"line {number}, {write.__name__}, {record}, report:\n{report}"
            # one-line JSON always goes through json.loads, and so does
            # counts_to_json's text with a count of more than 18 digits
            loads += 1 + (max(counts) >= 10**18)
        assert len(json_loads_calls) == loads

    def test_report_with_oracle(self):
        # RECORD is unprojected; the third record, xi_hat = (1, 1, 0) with
        # s_hat ~ (5e-301, 5e-301, 1), puts extreme magnitudes and exact
        # zeros in a real report: lambda_star ~2.4e300, a KL ~1.6e-301 and
        # 24 residual evaluations
        records = RECORD, CountRecord((90, 90, 90), (10, 10, 10)), CountRecord((1, 1, 10**300), (0, 0, 10**300))
        interior, _, extreme = reports = [build_estimate_report(record, with_oracle=True) for record in records]
        for report in reports:
            assert isinstance(report["oracle"], dict)
            assert report_to_json(report) == as_json_dumps(report)
        assert not interior["was_projected"]
        assert extreme["lambda_star"] > 1e300 and extreme["s_hat"][0] < 1e-300 and extreme["xi_star"][2] == 0.0

    def test_counts_above_2_53(self):
        record = CountRecord((2**53 + 1, 3, 2**70), (1, 2**63, 5))
        text = counts_to_json(record)
        assert text == as_json_dumps(json.loads(text))
        assert parse_counts_json(text) == record


class TestEstimateReport:
    def test_projected_pipeline(self):
        report = build_estimate_report(CountRecord((90, 90, 90), (10, 10, 10)))
        np.testing.assert_allclose(report["xi_hat"], [0.8, 0.8, 0.8])
        assert report["was_projected"]
        np.testing.assert_allclose(report["xi_star"], np.full(3, 1 / math.sqrt(3)), atol=1e-5)
        assert report["norm_residual"] < 1e-10
        assert max(report["equation_residuals"]) < 1e-10
        assert report["kl_empirical_to_mle"] > 0.0

    def test_interior_pipeline(self):
        report = build_estimate_report(RECORD)
        assert not report["was_projected"]
        assert report["xi_star"] == report["xi_hat"]
        assert "lambda_star" not in report
        assert report["kl_empirical_to_mle"] == 0.0

    def test_kl_summed_only_for_projected_records(self, monkeypatch):
        # inside the ball the report writes the KL's exact value, +0.0,
        # without the sum; a projected record sums it once
        original = bio.empirical_kl
        calls = []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bio, "empirical_kl", counted)
        projected = interior = 0
        for record in seeded_records(11, 200):
            before = len(calls)
            report = build_estimate_report(record)
            kl = report["kl_empirical_to_mle"]
            if report["was_projected"]:
                assert len(calls) == before + 1
                projected += 1
            else:
                assert len(calls) == before
                assert kl == 0.0 and math.copysign(1.0, kl) == 1.0
                assert repr(original(report["xi_hat"], report["s_hat"], report["xi_star"])) == repr(kl)
                interior += 1
        assert projected > 50 and interior > 50

    def test_solver_fields(self):
        # (1,10,9)/(25,16,17) lies on the sphere but rounds just outside, so
        # lambda_star is ~7e15, where unscaled residuals would read up to 0.13
        report = build_estimate_report(CountRecord((1, 10, 9), (25, 16, 17)))
        assert report["was_projected"] and "iterations" not in report
        assert report["residual_evaluations"] >= 1
        assert max(report["equation_residuals"]) < 1e-10
        assert build_estimate_report(RECORD)["residual_evaluations"] == 0

    def test_zero_component_preserved(self):
        report = build_estimate_report(CountRecord((100, 65, 50), (0, 35, 50)))
        assert report["was_projected"]
        assert report["xi_star"][2] == 0.0

    def test_oracle_section(self):
        report = build_estimate_report(CountRecord((90, 90, 90), (10, 10, 10)), with_oracle=True)
        assert report["oracle"]["max_discrepancy"] < 1e-4

    def test_oracle_looked_up_on_the_module(self, monkeypatch):
        # io loads the oracle lazily, yet a wrapper set on io.oracle_mle (as
        # the benchmark's spans set one) is what the report calls
        original = bio.oracle_mle
        calls = []

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(bio, "oracle_mle", wrapper)
        report = build_estimate_report(CountRecord((90, 90, 90), (10, 10, 10)), with_oracle=True)
        assert len(calls) == 1 and report["oracle"]["max_discrepancy"] < 1e-4
        with pytest.raises(AttributeError):
            bio.no_such_name  # noqa: B018


class TestCliEstimate:
    def test_estimate_json_file(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(CountRecord((90, 90, 90), (10, 10, 10))))
        assert main(["estimate", "--in", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["was_projected"]

    def test_estimate_csv_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(counts_to_csv(RECORD)))
        assert main(["estimate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert not report["was_projected"]

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"axes": [{"axis": 1, "n_plus": -3, "n_minus": 1}]}')
        assert main(["estimate", "--in", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        # one shot against 2 * 10**400: axis 1's share of the shots rounds
        # to 0.0, and the message names that, not the weights it would give
        path.write_text(counts_to_json(CountRecord((1, 10**400, 10**400), (0, 0, 0))))
        assert main(["estimate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: axis 1: its share of the shots, N_1/N, is below the smallest positive float\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("axis,n_plus,n_minus\n1,1,1\n2,1,1,1\n3,1,1\n", "row 2: expected 3 columns, got 4"),
            ("axis,n_plus,n_minus\n1,1,1\n1,1,1\n3,1,1\n", "row 2 axis: bad or duplicate axis '1'"),
            ("axis,n_plus,n_minus\n1,1,1\n4,1,1\n3,1,1\n", "row 2 axis: bad or duplicate axis '4'"),
            ('{"axes": [{"axis": 1, "n_plus": 1, "n_minus": 1}, 2, {"axis": 3, "n_plus": 1, "n_minus": 1}]}',
             "axes[1]: expected an object"),
        ],
        ids=["csv_four_cells", "csv_duplicate_axis", "csv_axis_out_of_range", "json_axis_not_an_object"],
    )
    def test_malformed_row_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["estimate", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_solver_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        def fail(xi_hat, s):
            raise SolverError("no bracket")

        monkeypatch.setattr(bio, "project_mle", fail)
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(RECORD))
        assert main(["estimate", "--in", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "solver failure: no bracket\n"

    @pytest.mark.parametrize(
        "residual, message",
        [
            # r jumps over 0 at lam = 1 with no slope: the log bisection
            # closes the bracket there without reaching tolerance
            (
                lambda lam: (-1.0 if lam < 1.0 else 1.0, 0.0),
                "multiplier bracket [0.9999999999999999, 1.0] closed at residual 1.0",
            ),
            # r > 0 everywhere, and each Newton step takes lam to 0.7 lam,
            # within the step rule, so the root is never bracketed
            (lambda lam: (1.0, 1.0 / (0.3 * lam)), "multiplier residual 1.0 above tolerance after 200 evaluations"),
        ],
        ids=["bracket_closes", "never_brackets"],
    )
    def test_solver_error_raised_exit_3(self, residual, message, tmp_path, capsys, monkeypatch):
        # the two SolverError raises of _solve_lambda, reached through a
        # residual that no cubic gives
        monkeypatch.setattr(projector, "_evaluate", lambda lam, s, xi_hat: (*residual(lam), 0.0, 0.0, [0.0] * 3))
        record = NAMED_RECORDS["projected"]
        with pytest.raises(SolverError) as caught:
            build_estimate_report(record)
        assert str(caught.value) == message
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(record))
        assert main(["estimate", "--in", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"solver failure: {message}\n"

    def test_count_over_4300_digits_exit_2(self, tmp_path, capsys):
        # json.loads refuses it with a ValueError that is no JSONDecodeError
        axes = [{"axis": i + 1, "n_plus": 1, "n_minus": 1} for i in range(3)]
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"axes": axes}).replace('"n_plus": 1', '"n_plus": ' + "9" * 5000, 1))
        assert main(["estimate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: not valid JSON: Exceeds the limit (4300 digits) for integer string conversion" in err

    def test_csv_count_over_4300_digits_exit_2(self, tmp_path, capsys):
        # it used to be "not an integer", echoing all 5,000 digits
        path = tmp_path / "big.csv"
        path.write_text("axis,n_plus,n_minus\n1," + "9" * 5000 + ",1\n2,1,1\n3,1,1\n")
        assert main(["estimate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 1 n_plus: Exceeds the limit (4300 digits) for integer string conversion")
        assert "9" * 4300 not in err

    @pytest.mark.parametrize("cell", ["-" + "1" * 5000, "+" + "1" * 5000, "1_" + "1" * 5000, " -" + "1" * 5000 + " "])
    def test_signed_or_grouped_csv_count_over_4300_digits_exit_2(self, tmp_path, capsys, cell):
        # these were "not an integer", echoing the whole cell
        path = tmp_path / "big.csv"
        path.write_text("axis,n_plus,n_minus\n1," + cell + ",1\n2,1,1\n3,1,1\n")
        assert main(["estimate", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: row 1 n_plus: Exceeds the limit (4300 digits) for integer string conversion")
        assert len(err) < 300

    def test_csv_field_over_size_limit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text("axis,n_plus,n_minus\n1," + "9" * 200_000 + ",1\n2,1,1\n3,1,1\n")
        assert main(["estimate", "--in", str(path)]) == 2
        assert "error: not valid CSV: field larger than field limit (131072)" in capsys.readouterr().err

    def test_no_format_option(self, capsys):
        # the format is read from the file's first non-blank character
        assert main(["estimate", "--format", "json"]) == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["estimate", "--in", str(tmp_path / "nope.json")]) == 2

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + counts_to_json(RECORD).encode("utf-16-le"))
        assert main(["estimate", "--in", str(path)]) == 2
        assert f"error: cannot read {path}: 'utf-8' codec" in capsys.readouterr().err

    def test_undecodable_stdin_exit_2(self, monkeypatch, capsys):
        # a strict UTF-8 stdin, as under PYTHONIOENCODING=utf-8
        data = b"\xff\xfe" + counts_to_json(RECORD).encode("utf-16-le")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert main(["estimate"]) == 2
        assert "error: cannot read standard input: 'utf-8' codec" in capsys.readouterr().err

    def test_surrogateescape_stdin_exit_2(self, monkeypatch, capsys):
        # the default stdin under a POSIX or C.UTF-8 locale, which passes the
        # bytes that are not UTF-8 through as lone surrogates
        data = b"\xff\xfe" + b'{"axes": 1}'
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["estimate"]) == 2
        err = capsys.readouterr().err
        assert "error: cannot read standard input: 'utf-8' codec can't decode byte 0xff" in err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        counts = tmp_path / "counts.json"
        counts.write_text(counts_to_json(RECORD))
        out = tmp_path / "missing" / "report.json"
        assert main(["estimate", "--in", str(counts), "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err

    def test_oracle_flag(self, tmp_path, capsys):
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(CountRecord((90, 90, 90), (10, 10, 10))))
        assert main(["estimate", "--in", str(path), "--oracle"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["max_discrepancy"] < 1e-4

    def test_oracle_disagreement_exit_3(self, tmp_path, capsys):
        # weights about (5e-301, 5e-301, 1): the direct search cannot leave
        # the origin along the two light axes, 0.707 from the projector's
        # answer (ROADMAP Known defects); this used to exit 0
        path = tmp_path / "counts.csv"
        path.write_text(counts_to_csv(CountRecord((1, 1, 10**300), (0, 0, 10**300))))
        assert main(["estimate", "--in", str(path), "--oracle"]) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["oracle"] == {"xi": [0.0, 0.0, 0.0], "max_discrepancy": 0.7071067811865474}
        assert captured.err == "methods disagree beyond 1e-4\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_oracle_flag_at_a_pole(self, tmp_path, capsys):
        # 2^60 plus-counts on axis 1 and none minus: the answer's x_1 rounds
        # to exactly 1.0, where the oracle's derivatives must drop the
        # minus term (p_hat = 0) instead of dividing by 1 - x_1 = 0
        path = tmp_path / "counts.csv"
        path.write_text(counts_to_csv(CountRecord((2**60, 3, 0), (0, 0, 2))))
        assert main(["estimate", "--in", str(path), "--oracle"]) == 0
        assert json.loads(capsys.readouterr().out)["oracle"]["max_discrepancy"] < 1e-12


BOM = "\ufeff"
WRITERS = {"json": counts_to_json, "csv": counts_to_csv}


@pytest.mark.parametrize("fmt", ["json", "csv"])
class TestByteOrderMark:
    """A counts file that starts with a UTF-8 byte-order mark, as Excel's
    "CSV UTF-8" and Notepad write it, reads like the same file without it."""

    RECORDS = (RECORD, CountRecord((90, 90, 90), (10, 10, 10)))

    def test_parse_counts(self, fmt):
        for record in self.RECORDS:
            assert parse_counts(BOM + WRITERS[fmt](record)) == record

    def test_estimate_file(self, fmt, tmp_path, capsys):
        for record in self.RECORDS:
            plain, marked = tmp_path / f"plain.{fmt}", tmp_path / f"marked.{fmt}"
            plain.write_text(WRITERS[fmt](record), encoding="utf-8")
            marked.write_text(BOM + WRITERS[fmt](record), encoding="utf-8")
            assert main(["estimate", "--in", str(plain)]) == 0
            expected = capsys.readouterr().out
            assert main(["estimate", "--in", str(marked)]) == 0
            assert capsys.readouterr().out == expected

    def test_estimate_stdin(self, fmt, monkeypatch, capsys):
        for record in self.RECORDS:
            data = WRITERS[fmt](record).encode("utf-8")
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            assert main(["estimate"]) == 0
            expected = capsys.readouterr().out
            marked = BOM.encode("utf-8") + data
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(marked), encoding="utf-8"))
            assert main(["estimate"]) == 0
            assert capsys.readouterr().out == expected


class TestCliSimulate:
    def test_pure_state_axis(self, capsys):
        assert main(["simulate", "--xi", "1,0,0", "--mode", "standard", "--N", "100", "--seed", "7"]) == 0
        doc = json.loads(capsys.readouterr().out)
        axis1 = next(rec for rec in doc["axes"] if rec["axis"] == 1)
        assert axis1["n_minus"] == 0

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--xi", "0.3,0.2,0.1", "--mode", "randomized", "--N", "500",
                "--s", "0.5,0.25,0.25", "--seed", "42"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_roundtrip_into_estimate(self, tmp_path, capsys):
        out = tmp_path / "counts.json"
        assert main(["simulate", "--xi", "0.6,0.5,0.4", "--mode", "standard", "--N", "200",
                     "--seed", "3", "--out", str(out)]) == 0
        assert main(["estimate", "--in", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "xi_star" in report

    def test_invalid_state_exit_2(self):
        assert main(["simulate", "--xi", "1,1,1", "--mode", "standard", "--N", "10"]) == 2

    @pytest.mark.parametrize("ratios, scaled", [("1e308,1e308,1", "1,1,1e-308"), ("1e308,1e308,1e308", "1,1,1")])
    def test_ratios_whose_sum_overflows(self, ratios, scaled, capsys):
        # the sum of the ratios is inf: they are scaled by the largest first,
        # where they used to be refused as non-positive weights [0.0, 0.0, 0.0].
        # A weight of 5e-309 draws no shot on axis 3 in 10, so the first pair
        # both exit 2 naming that axis
        def run(ratios):
            code = main(["simulate", "--xi", "0.1,0,0", "--mode", "randomized", "--N", "10", "--s", ratios])
            return code, *capsys.readouterr()

        assert run(ratios) == run(scaled)

    @pytest.mark.parametrize("ratios", ["1,1,5e-324", "1e308,1e308,1e-300"])
    def test_ratios_whose_weight_underflows_exit_2(self, ratios, capsys):
        # every ratio is positive: they used to be refused as non-positive
        # weights [0.5, 0.5, 0.0]
        assert main(["simulate", "--xi", "0.1,0,0", "--mode", "randomized", "--N", "10", "--s", ratios]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --s: a weight underflows to 0, below the smallest positive float, got {ratios!r}\n"

    def test_negative_seed_exit_2(self, capsys):
        assert main(["simulate", "--xi", "0.1,0,0", "--N", "10", "--seed", "-1"]) == 2
        assert "seed must be a 64-bit unsigned integer, got -1" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "counts.json"
        assert main(["simulate", "--xi", "0.1,0,0", "--N", "10", "--out", str(out)]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err

    def test_readme_examples_run(self, monkeypatch, capsys):
        # every ``blochmle simulate`` line of README's CLI block exits 0, and
        # a line piped into ``blochmle estimate`` yields a report
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("blochmle simulate")]
        assert len(lines) >= 3
        piped = 0
        for line in lines:
            stages = [shlex.split(stage, comments=True) for stage in line.split("|")]
            assert main(stages[0][1:]) == 0, line
            out = capsys.readouterr().out
            assert json.loads(out)["axes"]
            for stage in stages[1:]:
                assert stage[:2] == ["blochmle", "estimate"], line
                monkeypatch.setattr("sys.stdin", io.StringIO(out))
                assert main(stage[1:]) == 0, line
                assert "xi_star" in json.loads(capsys.readouterr().out)
                piped += 1
        assert piped >= 1

    def test_readme_experiments_run(self, monkeypatch, tmp_path):
        # every ``blochmle trajectories`` and ``blochmle sweep`` line of
        # README's Experiments block exits 0 and writes its table; the bench
        # line's 1000-trial battery already runs as acceptance criterion 8
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Experiments", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        headers = {"trajectories": "trajectory_id,sample_index,xi1,xi2,xi3", "sweep": "n_shots,rmse,median_error"}
        monkeypatch.chdir(tmp_path)
        ran = set()
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] != ["blochmle"] or argv[1] == "bench":
                continue
            assert main(argv[1:]) == 0, line
            table = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8")
            assert table.split("\n", 1)[0] == headers[argv[1]], line
            ran.add(argv[1])
        assert ran == {"trajectories", "sweep"}

    def test_ratio_weights_normalized(self, capsys):
        assert main(["simulate", "--xi", "0.1,0,0", "--mode", "randomized", "--N", "900",
                     "--s", "5,1,1", "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        totals = {rec["axis"]: rec["n_plus"] + rec["n_minus"] for rec in doc["axes"]}
        assert totals[1] > totals[2] and totals[1] > totals[3]

    @pytest.mark.parametrize("flag", ["--xi", "--s"])
    @pytest.mark.parametrize(
        "value, problem",
        [("0.1,0.2", "expected 3 comma-separated values, got '0.1,0.2'"), ("0.1,x,0.2", "not numeric: '0.1,x,0.2'")],
        ids=["two_values", "word"],
    )
    def test_malformed_triple_exit_2(self, flag, value, problem, capsys):
        args = {"--xi": "0.1,0,0", "--s": "1,1,1", flag: value}
        assert main(["simulate", "--mode", "randomized", "--N", "10", *itertools.chain(*args.items())]) == 2
        assert capsys.readouterr().err == f"error: {flag}: {problem}\n"

    def test_invalid_weights_exit_2(self):
        assert main(["simulate", "--xi", "0.1,0,0", "--mode", "randomized", "--N", "10",
                     "--s", "0.5,0.5,0"]) == 2
        assert main(["simulate", "--xi", "0.1,0,0", "--mode", "randomized", "--N", "10",
                     "--s", "0.5,-0.2,0.7"]) == 2


class TestCliBench:
    def test_single_trial_table(self, capsys):
        assert main(["bench", "--trials", "1", "--seed", "5"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["trial", "projection_ms", "oracle_ms", "discrepancy"]
        assert len(rows) == 2

    def test_discrepancy_column(self, capsys):
        assert main(["bench", "--trials", "10", "--seed", "5"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert all(float(r[3]) < 1e-4 for r in rows)

    def test_discrepancy_at_the_tolerance_exit_3(self, monkeypatch, capsys):
        # the methods agree only below DISCREPANCY_TOL; a gap of exactly 1e-4
        # used to pass
        trial = BenchTrial(0, 0.1, 20.0, 1e-4)
        result = BenchResult([trial], 0.1, 0.1, 20.0, 20.0, 1e-4)
        monkeypatch.setattr(checks, "run_benchmark", lambda trials, seed: result)
        assert main(["bench", "--trials", "1"]) == 3
        captured = capsys.readouterr()
        assert len(list(csv.reader(io.StringIO(captured.out)))) == 2
        assert captured.err.endswith("max discrepancy 1.000e-04\nmethods disagree beyond 1e-4\n")

    def test_nan_discrepancy_exit_3(self, monkeypatch, capsys):
        # a NaN answer on the second trial used to drop out of the maximum
        monkeypatch.setattr(checks, "oracle_mle", nan_on_second_call(checks.oracle_mle))
        assert main(["bench", "--trials", "3", "--seed", "5"]) == 3
        captured = capsys.readouterr()
        assert [row[3] for row in csv.reader(io.StringIO(captured.out))][2] == "nan"
        assert captured.err.endswith("max discrepancy nan\nmethods disagree beyond 1e-4\n")

    def test_bad_trials_exit_2(self):
        assert main(["bench", "--trials", "0"]) == 2

    def test_run_benchmark_refuses_zero_trials(self):
        # the one check behind ``bench --trials``; it was a bare ValueError
        with pytest.raises(InvalidInputError, match="^trials must be >= 1, got 0$"):
            run_benchmark(0)
        # a TypeError from range() used to escape
        with pytest.raises(InvalidInputError, match="^trials: expected an integer, got 2.5$"):
            run_benchmark(2.5)
        # a bool was read as 1 trial
        with pytest.raises(InvalidInputError, match="^trials: expected an integer, got True$"):
            run_benchmark(True)

    def test_negative_seed_exit_2(self, capsys):
        assert main(["bench", "--trials", "1", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err


class TestCliTrajectories:
    def _rows(self, capsys, *argv):
        assert main(["trajectories", *argv]) == 0
        return list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]

    def test_endpoints_on_unit_circle(self, capsys):
        rows = self._rows(capsys, "--grid", "5", "--samples", "8")
        last = {}
        for row in rows:
            last[row[0]] = [float(c) for c in row[2:]]
        assert last
        for point in last.values():
            assert abs(sum(c * c for c in point) - 1.0) < 1e-10

    def test_plane_component_zero(self, capsys):
        rows = self._rows(capsys, "--plane", "xi1xi2", "--grid", "4", "--samples", "5")
        assert all(float(row[4]) == 0.0 for row in rows)

    def test_other_plane(self, capsys):
        rows = self._rows(capsys, "--plane", "xi1xi3", "--grid", "4", "--samples", "5")
        assert all(float(row[3]) == 0.0 for row in rows)

    def test_weighted_axis_moves_less(self, capsys):
        # heavier sampling on axis 1 leaves xi1 closer to its start value
        def xi1_displacement(weights):
            rows = self._rows(capsys, "--grid", "3", "--samples", "4", "--s", weights)
            moves = {}
            for row in rows:
                tid, k = row[0], int(row[1])
                if k == 0:
                    continue
                moves.setdefault(tid, []).append([float(c) for c in row[2:]])
            # grid=3 lattice: exterior corners like (+-1, +-1, 0)
            first = moves["0"]
            return abs(first[-1][0] - (-1.0))

        assert xi1_displacement("5,1,1") < xi1_displacement("1,1,1")

    @pytest.mark.parametrize("grid", range(1, 14))
    def test_lattice_is_numpy_linspace(self, grid, monkeypatch, capsys):
        # the start points are the pairs (u, v) of numpy.linspace(-1, 1,
        # grid) that lie outside the ball; --grid 1 is the one point (-1, -1)
        starts = []
        monkeypatch.setattr("blochmle.cli.projection_trajectory", lambda start, s, n: starts.append(start) or ())
        assert self._rows(capsys, "--grid", str(grid)) == []
        lattice = np.linspace(-1, 1, grid).tolist()
        assert _linspace(-1.0, 1.0, grid) == lattice
        assert starts == [[u, v, 0.0] for u in lattice for v in lattice if u * u + v * v > 1.0]

    def test_unknown_plane_exit_2(self):
        assert main(["trajectories", "--plane", "bogus"]) == 2

    def test_bad_weights_exit_2(self):
        assert main(["trajectories", "--s", "1,0,1"]) == 2

    @pytest.mark.parametrize("ratios, scaled", [("1e308,1e308,1", "1,1,1e-308"), ("1e308,1e308,1e308", "1,1,1")])
    def test_ratios_whose_sum_overflows(self, ratios, scaled, capsys):
        assert self._rows(capsys, "--grid", "3", "--samples", "4", "--s", ratios) == self._rows(
            capsys, "--grid", "3", "--samples", "4", "--s", scaled
        )

    @pytest.mark.parametrize("ratios", ["1,1,5e-324", "1e308,1e308,1e-300"])
    def test_ratios_whose_weight_underflows_exit_2(self, ratios, capsys):
        assert main(["trajectories", "--s", ratios]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --s: a weight underflows to 0, below the smallest positive float, got {ratios!r}\n"

    def test_too_few_samples_exit_2(self, tmp_path, capsys):
        # projection_trajectory refuses it at the first start point
        out = tmp_path / "traj.csv"
        assert main(["trajectories", "--samples", "1", "--out", str(out)]) == 2
        assert "error: n_samples must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()


# every library entry point that takes a seed, by name: each battery of the
# gate table but the one with a fixed grid, then the three that callers use
SEED_TAKERS = {
    **{battery.__name__: battery for _, _, battery, _ in GATES if battery is not checks.cubic_grid_residuals},
    "run_benchmark": lambda seed: run_benchmark(1, seed=seed),
    "consistency_errors": lambda seed: checks.consistency_errors(base_seed=seed),
    "SimulationSpec": lambda seed: SimulationSpec(xi_true=(0.1, 0.0, 0.0), mode="standard", n_shots=10, seed=seed),
}


class TestCliCheck:
    def test_infogeo_suite_passes(self, capsys, check_calls):
        divergences = check_calls("kl_divergence")
        assert main(["check", "--suite", "infogeo", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # 2 per gibbs_defect pair, 1 per canonical_kl_defect pair for each of
        # 3 dimensions, 1 per marginal_decomposition_defect and 3 per
        # pythagorean_defect instance
        assert len(divergences) == 2 * 200 + 3 * 1000 + 100 + 3 * 100

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["check", "--suite", "bogus"]) == 2

    def test_negative_seed_exit_2(self, capsys):
        # numpy's ValueError used to escape as exit 1, the failed-invariant code
        assert main(["check", "--suite", "infogeo", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("suites", [("bogus",), ("infogeo", "bogus"), "projector"])
    def test_run_gates_refuses_unknown_suites(self, suites):
        # a typo used to run no gate and return []; a bare string is read
        # letter by letter, and "projector" used to run its rows by substring
        with pytest.raises(InvalidInputError, match="^unknown suite "):
            checks.run_gates(suites, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True, "3"], ids=repr)
    @pytest.mark.parametrize("name", SEED_TAKERS)
    def test_every_seed_is_read_by_the_seed_rule(self, name, seed):
        # the battery draws and run_benchmark's went to numpy's default_rng,
        # which raised a ValueError or TypeError, or took True and 2**64;
        # consistency_errors took a negative base seed and blamed 1.5 on seed
        param = "base_seed" if name == "consistency_errors" else "seed"
        with pytest.raises(InvalidInputError, match=f"^{param}(: expected an integer| must be a 64-bit unsigned integer), got "):
            SEED_TAKERS[name](seed)

    def test_every_suite_is_accepted(self):
        parser = build_parser()
        for name in SUITE_NAMES:
            assert parser.parse_args(["check", "--suite", name]).suite == name

    def test_gate_table_is_pinned(self):
        # every gate's suite, name and bound, in order: an edit to a bound
        # shows here
        assert [(suite, name, bound) for suite, name, _, bound in GATES] == [
            ("infogeo", "kl nonnegativity, zero only at equality", 1e-12),
            ("infogeo", "potential divergence equals outcome KL", 1e-10),
            ("infogeo", "per-axis decomposition of 6-outcome KL", 1e-12),
            ("infogeo", "divergence additivity across foliation", 1e-10),
            ("infogeo", "analytic vs expectation Fisher matrix", 1e-8),
            ("infogeo", "eta is the theta-gradient of psi", 1e-6),
            ("infogeo", "weight/state slices meet orthogonally", 1e-8),
            ("projector", "projection residuals on 1000 exterior points", 1e-10),
            ("projector", "componentwise shrinkage with preserved signs", None),
            ("projector", "correction step is metric-normal to sphere", 1e-8),
            ("projector", "no sphere point beats the estimate in KL", 1e-12),
            ("projector", "permutation and sign equivariance", 1e-12),
            ("projector", "cubic closed form back-substitution residuals", 1e-12),
            ("projector", "norm residual monotone in the multiplier", None),
            ("simulator", "identical specs give identical counts", None),
            ("simulator", "axis fractions within 5 sigma of weights", 1.0),
            ("simulator", "pure state never yields the forbidden outcome", None),
            # |slope + 1/2| <= 0.15 under the loop's single <
            ("simulator", "median error scales like 1/sqrt(N)", math.nextafter(0.15, math.inf)),
        ]
        # the parser names the suites itself, so that it need not import checks
        assert SUITE_NAMES == tuple(dict.fromkeys(suite for suite, _, _, _ in GATES))

    @pytest.mark.parametrize(
        "name, fake, line",
        [
            (
                "_fisher_rows",
                fisher_rows_set(FOLIATION_BLOCK, 1.0),
                "FAIL weight/state slices meet orthogonally (defect 1.000e+00)",
            ),
            (
                "consistency_errors",
                lambda real: lambda base_seed: {"median_slope": math.nan},
                "FAIL median error scales like 1/sqrt(N) (defect nan)",
            ),
            # the Fisher metric's gate makes the first 100 calls, so the
            # foliation's instances are calls 101 to 200: an even call is
            # one after its first
            (
                "_fisher_rows",
                fisher_rows_set(FOLIATION_BLOCK, math.nan, every=2),
                "FAIL weight/state slices meet orthogonally (defect nan)",
            ),
            (
                "_fisher_rows",
                fisher_rows_set(METRIC_BLOCK, math.nan),
                "FAIL analytic vs expectation Fisher matrix (defect nan)",
            ),
        ],
        ids=["over_bound", "nan", "nan_after_first", "metric_block_only"],
    )
    def test_a_failed_gate_exit_1(self, name, fake, line, monkeypatch, capsys):
        # the table holds the batteries themselves, so the fake (built from
        # the real function) replaces a function that a battery calls
        # through the checks module
        monkeypatch.setattr(checks, name, fake(getattr(checks, name)))
        assert main(["check", "--suite", "all", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [entry for entry in lines if not entry.startswith("PASS ")] == [line, "17/18 checks passed"]

    @pytest.mark.parametrize(
        "battery, name",
        [
            (checks.gibbs_defect, "kl_divergence"),
            (checks.canonical_kl_defect, "canonical_divergence"),
            (checks.marginal_decomposition_defect, "empirical_kl"),
            (checks.pythagorean_defect, "kl_divergence"),
            (checks.fisher_agreement_defect, "fisher_metric"),
            (checks.legendre_defect, "_log_partition"),
            # named by the block its fake corrupts
            pytest.param(checks.foliation_defect, "_fisher_rows", id="foliation_defect-foliation_block"),
            (checks.projection_residual_battery, "project_mle"),
            (checks.projection_orthogonality_defect, "fisher_metric"),
            (checks.projection_optimality_defect, "empirical_kl"),
            (checks.equivariance_defect, "project_mle"),
            (checks.cubic_grid_residuals, "cubic_solve"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_a_nan_after_the_first_instance_is_the_worst(self, battery, name, monkeypatch):
        # weight_lln_defect is left out: it sums integer counts, which
        # cannot be NaN
        # _fisher_rows feeds two gates, so its fake corrupts only the block
        # that this battery reads
        fake = fisher_rows_set(FOLIATION_BLOCK, math.nan, every=2) if name == "_fisher_rows" else nan_on_second_call
        monkeypatch.setattr(checks, name, fake(getattr(checks, name)))
        assert math.isnan(battery(1))


if __name__ == "__main__":
    write_report_digests()
