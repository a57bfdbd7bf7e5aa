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
    starts on."""
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
            items.append(f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}")
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json_text(item, inner) for item in value]
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _require_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{field}: expected an integer, got {value!r}")
    return value


def _parse_int(text: str, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{field}: not an integer: {text!r}") from None


def _record(by_axis: dict) -> CountRecord:
    """CountRecord from {axis: (n_plus, n_minus)} naming axes 1, 2 and 3."""
    (p1, m1), (p2, m2), (p3, m3) = by_axis[1], by_axis[2], by_axis[3]
    return CountRecord((p1, p2, p3), (m1, m2, m3))


def parse_counts_json(text: str) -> CountRecord:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InvalidInputError("not valid JSON: arrays or objects nested too deeply") from None
    if not isinstance(doc, dict) or "axes" not in doc:
        raise InvalidInputError("axes: missing top-level field")
    axes = doc["axes"]
    if not isinstance(axes, list) or len(axes) != 3:
        raise InvalidInputError("axes: expected a list of exactly 3 records")
    by_axis = {}
    for idx, rec in enumerate(axes):
        if not isinstance(rec, dict):
            raise InvalidInputError(f"axes[{idx}]: expected an object")
        for key in ("axis", "n_plus", "n_minus"):
            if key not in rec:
                raise InvalidInputError(f"axes[{idx}].{key}: missing field")
        axis = _require_int(rec["axis"], f"axes[{idx}].axis")
        if axis not in (1, 2, 3):
            raise InvalidInputError(f"axes[{idx}].axis: expected 1, 2, or 3, got {axis}")
        if axis in by_axis:
            raise InvalidInputError(f"axes[{idx}].axis: duplicate axis {axis}")
        by_axis[axis] = (
            _require_int(rec["n_plus"], f"axes[{idx}].n_plus"),
            _require_int(rec["n_minus"], f"axes[{idx}].n_minus"),
        )
    return _record(by_axis)


def parse_counts_csv(text: str) -> CountRecord:
    rows = list(csv.reader(_io.StringIO(text)))
    rows = [r for r in rows if r and any(cell.strip() for cell in r)]
    if not rows or [c.strip() for c in rows[0]] != COUNTS_CSV_HEADER:
        raise InvalidInputError(f"header: expected {','.join(COUNTS_CSV_HEADER)}")
    if len(rows) != 4:
        raise InvalidInputError(f"expected exactly 3 data rows, got {len(rows) - 1}")
    by_axis = {}
    for idx, row in enumerate(rows[1:]):
        if len(row) != 3:
            raise InvalidInputError(f"row {idx + 1}: expected 3 columns, got {len(row)}")
        axis = _parse_int(row[0], f"row {idx + 1} axis")
        if axis not in (1, 2, 3) or axis in by_axis:
            raise InvalidInputError(f"row {idx + 1} axis: bad or duplicate axis {row[0]!r}")
        by_axis[axis] = (_parse_int(row[1], f"row {idx + 1} n_plus"), _parse_int(row[2], f"row {idx + 1} n_minus"))
    return _record(by_axis)


def parse_counts(text: str, fmt: str = "auto") -> CountRecord:
    if not text.strip():
        raise InvalidInputError("empty input (expected a JSON or CSV counts file)")
    if fmt == "json":
        return parse_counts_json(text)
    if fmt == "csv":
        return parse_counts_csv(text)
    if text.lstrip().startswith("{"):
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
