"""Counts-file parsing and the JSON estimate report.

Counts files come as JSON, ``{"axes": [{"axis": 1, "n_plus": ..,
"n_minus": ..}, x3]}``, or as CSV with header ``axis,n_plus,n_minus`` and
exactly three rows.  Floats in reports are serialized in Python's shortest
round-trip decimal form (up to 17 significant digits), so parsing a report
back recovers bit-identical doubles.

Reports and JSON counts files are written from fixed ``%``-layouts, each
filled by one format call: the report head (``xi_hat`` to
``residual_evaluations``), the projected tail (``lambda_star``,
``norm_residual``, ``equation_residuals``), the ``oracle`` block and the
counts file.  The text is byte-identical to ``json.dumps`` with a two-space
indent, which has no C path and costs more per record than the estimate
itself.  Every value in a report is a plain float, bool or int, so ``%r``
writes a float as ``float.__repr__`` does and ``%d`` an int as
``int.__repr__`` does.  A 3-vector's slots are ``%s``, which take a float
(its ``str`` is its ``repr``) or the text of its ``repr``.  Every float in
a report is finite for validated counts: |x_i| <= |xi_hat_i| keeps every
model probability positive wherever the empirical one is, so the KL is
finite; lambda never exceeds the solver's ``lam_max``; and the oracle's
answers are finite.  The layouts rely on that, since ``%r`` writes ``nan``
and ``inf`` where ``json.dumps`` writes ``NaN`` and ``Infinity``.
``csv_text`` writes every CSV.  ``_COUNTS_JSON`` is the one place the
counts layout is written: ``parse_counts`` reads text in that exact layout
with one regular expression built from it and hands every other text to the
general JSON and CSV readers.

``float.__repr__`` is most of what the writer costs, so ``report_to_json``
formats each distinct float of the head once and feeds its text to every
slot it fills:

- An unprojected report's ``xi_star`` holds the floats of ``xi_hat``, as
  ``build_estimate_report`` sets it, so the texts of ``xi_hat`` fill both
  blocks.  That rests on this contract, not on ``==``: 0.0 == -0.0, but
  their texts differ.
- Equal weights, which equal shots per axis give, share one text.  Weights
  are positive, and equal positive floats have the same ``repr``.

An unprojected report then formats 8 floats instead of 11, or 6 with equal
weights; a projected report with equal weights formats 14 instead of 16.

A report's ``kl_empirical_to_mle`` is exactly 0.0 when the estimate was
not projected, and ``empirical_kl`` is then not called: the MLE is the
empirical estimate itself, and every term of that KL is a log minus the
same log.

The direct-search oracle (and with it numpy) loads only when
``oracle_mle`` here is first called, which
``build_estimate_report(with_oracle=True)`` does.  The report calls it as a
module global, so a wrapper set on ``io.oracle_mle`` is what runs.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import re

from .core import CountRecord, InvalidInputError, _integer, empirical_kl, norm_squared, temporal_estimate
from .projector import project_mle

COUNTS_CSV_HEADER = ["axis", "n_plus", "n_minus"]
# the names of a JSON counts file's axis fields, built once and not per record
_AXIS_FIELDS = ("axes[0].axis", "axes[1].axis", "axes[2].axis")

# a 3-vector at the indent of a report's top-level keys
_VECTOR = "[\n    %s,\n    %s,\n    %s\n  ]"
_REPORT_HEAD = (
    '{\n  "xi_hat": ' + _VECTOR + ',\n  "s_hat": ' + _VECTOR + ',\n  "xi_hat_norm": %r,\n  "was_projected": %s,\n'
    '  "xi_star": ' + _VECTOR + ',\n  "kl_empirical_to_mle": %r,\n  "residual_evaluations": %d'
)
_PROJECTED_TAIL = ',\n  "lambda_star": %r,\n  "norm_residual": %r,\n  "equation_residuals": ' + _VECTOR
_ORACLE_BLOCK = ',\n  "oracle": {\n    "xi": [\n      %r,\n      %r,\n      %r\n    ],\n    "max_discrepancy": %r\n  }'
_COUNTS_AXIS = '    {\n      "axis": %d,\n      "n_plus": %%d,\n      "n_minus": %%d\n    }'
_COUNTS_JSON = '{\n  "axes": [\n' + ",\n".join(_COUNTS_AXIS % axis for axis in (1, 2, 3)) + "\n  ]\n}\n"
# the same layout read back: each count slot an ASCII decimal of at most 18
# digits with no sign and no leading zero (see parse_counts)
_COUNTS_JSON_TEXT = re.compile(re.escape(_COUNTS_JSON).replace("%d", "(0|[1-9][0-9]{0,17})"))


def oracle_mle(xi_hat, s):
    """``oracle.oracle_mle``, whose module and numpy load on the first call."""
    from .oracle import oracle_mle  # noqa: PLC0415 - see the module docstring

    return oracle_mle(xi_hat, s)


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        # int() reads a signed or grouped literal too, and refuses one with
        # more digits than its limit in a message that names the limit and
        # not the digits
        if str(exc).startswith("Exceeds the limit"):
            raise InvalidInputError(f"row {row} {column}: {exc}") from None
        raise InvalidInputError(f"row {row} {column}: not an integer: {text!r}") from None


def _record(by_axis: list) -> CountRecord:
    """CountRecord from [unused, (n_plus, n_minus) of axis 1, of axis 2, of
    axis 3]."""
    _, (p1, m1), (p2, m2), (p3, m3) = by_axis
    return CountRecord((p1, p2, p3), (m1, m2, m3))


def parse_counts_json(text: str) -> CountRecord:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int of more than 4,300 digits
        raise InvalidInputError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError("not valid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict) or "axes" not in doc:
        raise InvalidInputError("axes: missing top-level field")
    axes = doc["axes"]
    if not isinstance(axes, list) or len(axes) != 3:
        raise InvalidInputError("axes: expected a list of exactly 3 records")
    by_axis = [None, None, None, None]
    for idx, rec in enumerate(axes):
        if not isinstance(rec, dict):
            raise InvalidInputError(f"axes[{idx}]: expected an object")
        try:
            axis, n_plus, n_minus = rec["axis"], rec["n_plus"], rec["n_minus"]
        except KeyError as exc:  # the first of the three that is missing
            raise InvalidInputError(f"axes[{idx}].{exc.args[0]}: missing field") from None
        axis = _integer(axis, _AXIS_FIELDS[idx])
        if axis not in (1, 2, 3):
            raise InvalidInputError(f"axes[{idx}].axis: expected 1, 2, or 3, got {axis}")
        if by_axis[axis] is not None:
            raise InvalidInputError(f"axes[{idx}].axis: duplicate axis {axis}")
        # CountRecord checks the counts, naming them by axis
        by_axis[axis] = (n_plus, n_minus)
    return _record(by_axis)


def parse_counts_csv(text: str) -> CountRecord:
    try:
        rows = list(csv.reader(_io.StringIO(text)))
    except csv.Error as exc:  # a field longer than csv.field_size_limit(), say
        raise InvalidInputError(f"not valid CSV: {exc}") from None
    # drop the rows that are empty or all blanks
    rows = [r for r in rows if "".join(r).strip()]
    if not rows or [c.strip() for c in rows[0]] != COUNTS_CSV_HEADER:
        raise InvalidInputError(f"header: expected {','.join(COUNTS_CSV_HEADER)}")
    if len(rows) != 4:
        raise InvalidInputError(f"expected exactly 3 data rows, got {len(rows) - 1}")
    by_axis = [None, None, None, None]
    for row in 1, 2, 3:
        cells = rows[row]
        if len(cells) != 3:
            raise InvalidInputError(f"row {row}: expected 3 columns, got {len(cells)}")
        axis = _parse_int(cells[0], row, "axis")
        if axis not in (1, 2, 3) or by_axis[axis] is not None:
            raise InvalidInputError(f"row {row} axis: bad or duplicate axis {cells[0]!r}")
        by_axis[axis] = (_parse_int(cells[1], row, "n_plus"), _parse_int(cells[2], row, "n_minus"))
    return _record(by_axis)


def parse_counts(text: str) -> CountRecord:
    """A JSON counts file if the first non-blank character is ``{``, else a
    CSV one.

    Text in the exact layout ``counts_to_json`` writes, which is what
    ``blochmle simulate`` pipes into ``estimate``, is read by one
    ``fullmatch`` of a pattern built from that layout, without
    ``json.loads``: each count slot takes ``0`` or an ASCII decimal of 1 to
    18 digits without a leading zero.  Any other text (other whitespace or
    key order, CRLF line ends, a sign, a leading zero, a longer or
    non-ASCII number, and every CSV file) goes to ``parse_counts_json`` or
    ``parse_counts_csv``.  The pattern takes only texts that
    ``parse_counts_json`` reads to the same ``CountRecord`` or refuses with
    the same message, since ``CountRecord`` validates the six ints either
    way; 18 digits keep every count below 2**63 and far from ``int()``'s
    digit limit, whose refusal only ``json.loads`` words.  CSV text has no
    such path yet: it would speed the benchmark's CSV records enough that
    its per-record arrays, which grow with throughput, would carry its
    peak-memory figure past its bound (ROADMAP, Known defects), so it waits
    for ROADMAP direction 1.  Compiling the pattern costs about 1 ms per
    process, once, at import.
    """
    # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" and Notepad write it;
    # str.lstrip() keeps U+FEFF, so it would hide both the JSON brace and the
    # CSV header
    if text.startswith("\ufeff"):
        text = text[1:]
    match = _COUNTS_JSON_TEXT.fullmatch(text)
    if match is not None:
        p1, m1, p2, m2, p3, m3 = map(int, match.groups())
        return CountRecord((p1, p2, p3), (m1, m2, m3))
    head = text.lstrip()
    if not head:
        raise InvalidInputError("empty input (expected a JSON or CSV counts file)")
    if head.startswith("{"):
        return parse_counts_json(text)
    return parse_counts_csv(text)


def counts_to_json(counts: CountRecord) -> str:
    (p1, p2, p3), (m1, m2, m3) = counts
    return _COUNTS_JSON % (p1, m1, p2, m2, p3, m3)


def csv_text(header, rows) -> str:
    """The header, then a line of ``str``-ed cells per row, all ending in
    ``\\n``.  Nothing is quoted: no cell the package writes needs it."""
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def counts_to_csv(counts: CountRecord) -> str:
    return csv_text(COUNTS_CSV_HEADER, ([i + 1, counts.n_plus[i], counts.n_minus[i]] for i in range(3)))


def build_estimate_report(counts: CountRecord, with_oracle: bool = False) -> dict:
    """Run the full estimation pipeline and collect a reportable document."""
    xi_hat, s_hat = temporal_estimate(counts)
    result = project_mle(xi_hat, s_hat)
    report = {
        "xi_hat": list(xi_hat),
        "s_hat": list(s_hat),
        "xi_hat_norm": math.sqrt(norm_squared(xi_hat)),
        "was_projected": result.was_projected,
        "xi_star": list(result.xi_star),
        # inside the ball xi_star is xi_hat, and each of empirical_kl's terms
        # would be log p - log p of one float: the sum is exactly +0.0
        "kl_empirical_to_mle": empirical_kl(xi_hat, s_hat, result.xi_star) if result.was_projected else 0.0,
        "residual_evaluations": result.residual_evaluations,
    }
    if result.was_projected:
        report["lambda_star"] = result.lambda_star
        report["norm_residual"] = result.norm_residual
        report["equation_residuals"] = list(result.equation_residuals)
    if with_oracle:
        direct = oracle_mle(xi_hat, s_hat).tolist()
        report["oracle"] = {
            "xi": direct,
            "max_discrepancy": max(abs(d - x) for d, x in zip(direct, result.xi_star)),
        }
    return report


def report_to_json(report: dict) -> str:
    """The text of a report that ``build_estimate_report`` returned."""
    projected = report["was_projected"]
    x1, x2, x3 = report["xi_hat"]
    if projected:
        y1, y2, y3 = report["xi_star"]
    else:
        # xi_star is xi_hat (see the module docstring)
        x1 = y1 = repr(x1)
        x2 = y2 = repr(x2)
        x3 = y3 = repr(x3)
    s1, s2, s3 = report["s_hat"]
    if s1 == s2 == s3:
        s1 = s2 = s3 = repr(s1)
    text = _REPORT_HEAD % (
        x1, x2, x3,
        s1, s2, s3,
        report["xi_hat_norm"],
        "true" if projected else "false",
        y1, y2, y3,
        report["kl_empirical_to_mle"],
        report["residual_evaluations"],
    )
    if projected:
        text += _PROJECTED_TAIL % (report["lambda_star"], report["norm_residual"], *report["equation_residuals"])
    if "oracle" in report:
        oracle = report["oracle"]
        text += _ORACLE_BLOCK % (*oracle["xi"], oracle["max_discrepancy"])
    return text + "\n}\n"
