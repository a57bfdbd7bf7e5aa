"""Counts-file parsing and the JSON estimate report.

Counts files come as JSON, ``{"axes": [{"axis": 1, "n_plus": ..,
"n_minus": ..}, x3]}``, or as CSV with header ``axis,n_plus,n_minus`` and
exactly three rows.  Floats in reports are serialized in Python's shortest
round-trip decimal form (up to 17 significant digits), so parsing a report
back recovers bit-identical doubles.

Reports and counts files are written by ``_json_text``, whose output matches
``json.dumps`` with a two-space indent byte for byte.  It exists because
``json`` has no C path once ``indent`` is set: its pure-Python indenting
encoder cost more per record than the estimate itself.

The direct-search oracle (and with it numpy) loads only when
``build_estimate_report(with_oracle=True)`` or the module attribute
``io.oracle_mle`` first asks for it (PEP 562).
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

from .core import CountRecord, InvalidInputError, empirical_kl, norm_squared, temporal_estimate
from .projector import project_mle

COUNTS_CSV_HEADER = ["axis", "n_plus", "n_minus"]

# float.__repr__ of the non-finite floats -> what json writes for them
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def __getattr__(name):
    if name != "oracle_mle":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle  # noqa: PLC0415 - see the module docstring

    value = globals()[name] = getattr(oracle, name)
    return value


def _json_text(value, pad: str) -> str:
    """What ``json.dumps`` with a two-space indent returns, for dicts with
    str keys, lists, tuples, floats, ints, bools and None; any other type
    raises TypeError.  ``pad`` is the indent of the line that ``value``
    starts on.  The containers write their float items in place, without
    a call per leaf: a report is mostly floats."""
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if isinstance(item, float):
                text = float.__repr__(item)
                items.append(f"{encode_basestring_ascii(key)}: {_NON_FINITE.get(text, text)}")
            else:
                items.append(f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}")
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for item in value:
            if isinstance(item, float):
                text = float.__repr__(item)
                items.append(_NON_FINITE.get(text, text))
            else:
                items.append(_json_text(item, inner))
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _require_int(value, idx: int, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"axes[{idx}].{key}: expected an integer, got {value!r}")
    return value


def _parse_int(text: str, row: int, column: str) -> int:
    try:
        return int(text)
    except ValueError:
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
        axis = _require_int(axis, idx, "axis")
        if axis not in (1, 2, 3):
            raise InvalidInputError(f"axes[{idx}].axis: expected 1, 2, or 3, got {axis}")
        if by_axis[axis] is not None:
            raise InvalidInputError(f"axes[{idx}].axis: duplicate axis {axis}")
        by_axis[axis] = (_require_int(n_plus, idx, "n_plus"), _require_int(n_minus, idx, "n_minus"))
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
    CSV one."""
    # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" and Notepad write it;
    # str.lstrip() keeps U+FEFF, so it would hide both the JSON brace and the
    # CSV header
    if text.startswith("\ufeff"):
        text = text[1:]
    head = text.lstrip()
    if not head:
        raise InvalidInputError("empty input (expected a JSON or CSV counts file)")
    if head.startswith("{"):
        return parse_counts_json(text)
    return parse_counts_csv(text)


def counts_to_json(counts: CountRecord) -> str:
    doc = {
        "axes": [
            {"axis": i + 1, "n_plus": counts.n_plus[i], "n_minus": counts.n_minus[i]}
            for i in range(3)
        ]
    }
    return _json_text(doc, "") + "\n"


def counts_to_csv(counts: CountRecord) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COUNTS_CSV_HEADER)
    for i in range(3):
        writer.writerow([i + 1, counts.n_plus[i], counts.n_minus[i]])
    return buf.getvalue()


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
        "kl_empirical_to_mle": empirical_kl(xi_hat, s_hat, result.xi_star),
        "residual_evaluations": result.residual_evaluations,
    }
    if result.was_projected:
        report["lambda_star"] = result.lambda_star
        report["norm_residual"] = result.norm_residual
        report["equation_residuals"] = list(result.equation_residuals)
    if with_oracle:
        # looked up as a module attribute, so a wrapper set on io.oracle_mle runs
        direct = sys.modules[__name__].oracle_mle(xi_hat, s_hat).tolist()
        report["oracle"] = {
            "xi": direct,
            "max_discrepancy": max(abs(d - x) for d, x in zip(direct, result.xi_star)),
        }
    return report


def report_to_json(report: dict) -> str:
    return _json_text(report, "") + "\n"
