"""Machine-readable verification reports.

A report is a flat list of check records plus a summary of fitted constants
and slopes.  A record's verdict is a function of its own serialized fields:
``COMPARISONS`` maps each ``comparison`` kind to one formula in the
expected value e, the observed value o and the tolerance t, so a reader of
the CSV or JSON can recompute every ``pass``.

Serialization is deterministic: floats are written with 17 significant
digits (lossless for doubles), field order is fixed, and the wall clock
runtime is kept out of the emitted bytes (it is a process diagnostic, kept
on ``Report`` and printed in the stderr summary only), so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

PROVENANCE_TAGS = ("closed-form", "expansion", "fit")

COMPARISONS: dict[str, Callable[[float, float, float], bool]] = {
    "abs": lambda e, o, t: abs(o - e) <= t,
    "rel": lambda e, o, t: abs(o - e) <= t * abs(e),
    "upper": lambda e, o, t: o <= e + t,
    "lower": lambda e, o, t: o >= e - t,
    "envelope": lambda e, o, t: o <= e * (1.0 + t),
    "below": lambda e, o, t: o < e,
    "above": lambda e, o, t: o > e,
    "info": lambda e, o, t: True,  # reported only, never asserted
}

CSV_COLUMNS = (
    "check_id",
    "m",
    "kappa",
    "gauss",
    "sector",
    "expected",
    "observed",
    "abs_error",
    "rel_error",
    "tolerance",
    "comparison",
    "pass",
)


@dataclass(frozen=True)
class CheckRecord:
    """One verification check: inputs, expected vs observed, and the rule
    (``comparison`` with ``tolerance``) that turns them into a verdict."""

    check_id: str
    comparison: str
    expected: float
    observed: float
    tolerance: float
    provenance: str
    m: float | None = None
    kappa: float | None = None
    gauss: float | None = None
    sector: str = ""
    asserted: bool = True

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCE_TAGS:
            raise ValueError(f"provenance must be one of {PROVENANCE_TAGS}")
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {tuple(COMPARISONS)}")
        if self.comparison == "info" and self.asserted:
            raise ValueError("an 'info' record always passes, so it cannot be asserted")

    @property
    def passed(self) -> bool:
        return bool(COMPARISONS[self.comparison](self.expected, self.observed, self.tolerance))

    @property
    def abs_error(self) -> float | None:
        """|observed - expected|; None (an empty cell) where it is not a
        finite number, as for an infinite bound or a NaN observation."""
        error = abs(self.observed - self.expected)
        return error if math.isfinite(error) else None

    @property
    def rel_error(self) -> float | None:
        """abs_error / |expected|; None where that is undefined (expected 0,
        or no finite abs_error)."""
        error = self.abs_error
        if error is None or self.expected == 0.0:
            return None
        relative = error / abs(self.expected)
        return relative if math.isfinite(relative) else None


@dataclass(frozen=True)
class Report:
    """Ordered check records plus a deterministic summary block."""

    records: tuple[CheckRecord, ...]
    summary: tuple[tuple[str, Any], ...]
    runtime_s: float = field(default=0.0, compare=False)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records if r.asserted)

    def pass_counts(self) -> tuple[int, int]:
        asserted = [r for r in self.records if r.asserted]
        return sum(r.passed for r in asserted), len(asserted)


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _json_scalar(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value) or math.isinf(value):
            return f'"{_fmt(value)}"'
        return format(value, ".17g")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"unsupported scalar {value!r}")


def _json_value(value: Any) -> str:
    if isinstance(value, dict):
        inner = ",".join(f"{_json_scalar(str(k))}:{_json_value(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json_value(v) for v in value) + "]"
    return _json_scalar(value)


def _record_dict(r: CheckRecord) -> dict[str, Any]:
    return {
        "check_id": r.check_id,
        "m": r.m,
        "kappa": r.kappa,
        "gauss": r.gauss,
        "sector": r.sector,
        "expected": r.expected,
        "observed": r.observed,
        "abs_error": r.abs_error,
        "rel_error": r.rel_error,
        "tolerance": r.tolerance,
        "comparison": r.comparison,
        "pass": r.passed,
        "provenance": r.provenance,
        "asserted": r.asserted,
    }


def emit_table(report: Report, fmt: str) -> bytes:
    """Serialize a report: CSV with the fixed column set, or JSON mirroring it."""
    if fmt == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for r in report.records:
            row = _record_dict(r)
            lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        body = {
            "records": [_record_dict(r) for r in report.records],
            "summary": {k: v for k, v in report.summary},
        }
        return (_json_value(body) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def parse_report_json(data: bytes) -> Report:
    """Rebuild a Report from its JSON serialization (round-trip inverse).

    Raises ValueError if a row's ``pass`` disagrees with its comparison.
    """
    import json

    body = json.loads(data.decode())
    records = []
    for row in body["records"]:
        records.append(
            CheckRecord(
                check_id=row["check_id"],
                comparison=row["comparison"],
                expected=float(row["expected"]),
                observed=float(row["observed"]),
                tolerance=float(row["tolerance"]),
                provenance=row["provenance"],
                m=None if row["m"] is None else float(row["m"]),
                kappa=None if row["kappa"] is None else float(row["kappa"]),
                gauss=None if row["gauss"] is None else float(row["gauss"]),
                sector=row["sector"],
                asserted=bool(row["asserted"]),
            )
        )
        if records[-1].passed != row["pass"]:
            raise ValueError(f"row {row['check_id']!r}: pass flag disagrees with its comparison")
    summary = tuple((k, v) for k, v in body["summary"].items())
    return Report(records=tuple(records), summary=summary)


def write_report_atomic(path: str, data: bytes) -> None:
    """Write the report bytes via a temp file and atomic rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        # mkstemp creates the file 0600; give it the mode a plain open would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
