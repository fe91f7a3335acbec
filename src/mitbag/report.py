"""Machine-readable verification reports.

A report is a flat list of check records plus a summary of functionals,
solver tolerances and effort counters.  A record's verdict is a function of its own serialized fields:
``COMPARISONS`` maps each ``comparison`` kind to one formula in the
expected value e, the observed value o and the tolerance t, so a reader of
the CSV or JSON can recompute every ``pass``.  ``check`` builds each row
with the comparison, provenance and asserted flag of its id in ``CHECKS``.

Serialization is deterministic: floats are written with 17 significant
digits (lossless for doubles), field order is fixed, and the wall clock
runtime is kept out of the emitted bytes (it is a process diagnostic, kept
on ``Report`` and printed in the stderr summary only), so identical
configurations produce byte-identical artifacts.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

PROVENANCE_TAGS = ("closed-form", "expansion")

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
        if self.expected == 0.0:
            return None
        relative = abs(self.observed - self.expected) / abs(self.expected)
        return relative if math.isfinite(relative) else None


class CheckKind(NamedTuple):
    """A check id's comparison kind, provenance, and whether it is asserted."""

    comparison: str
    provenance: str
    asserted: bool = True


# Every check id the suites emit, with the kind of all its rows; README
# "Checks" says what each one checks.
CHECKS: dict[str, CheckKind] = {
    "transverse.flat.lambda.m4": CheckKind("abs", "closed-form"),
    "transverse.flat.mass.m4": CheckKind("abs", "closed-form"),
    "transverse.flat.limit.m1e4": CheckKind("abs", "closed-form"),
    "transverse.series.lambda": CheckKind("abs", "expansion"),
    "transverse.series.mass": CheckKind("abs", "expansion"),
    "transverse.sphere.cancellation": CheckKind("abs", "expansion"),
    "transverse.minimality.seeded": CheckKind("lower", "closed-form"),
    "transverse.pythagoras.seeded": CheckKind("upper", "closed-form"),
    "transverse.residual.order": CheckKind("abs", "expansion"),
    "transverse.residual.flat": CheckKind("rel", "closed-form"),
    "exterior.dtn.l0": CheckKind("rel", "closed-form"),
    "exterior.dtn.l1": CheckKind("rel", "closed-form"),
    "exterior.mass.l0": CheckKind("rel", "closed-form"),
    "exterior.effective.rate.sphere": CheckKind("abs", "expansion"),
    "exterior.effective.rate.flat": CheckKind("abs", "expansion"),
    "exterior.sandwich": CheckKind("abs", "expansion"),
    "exterior.sandwich.sign": CheckKind("upper", "expansion"),
    "exterior.mass_estimate.l0": CheckKind("upper", "closed-form"),
    "exterior.mass_estimate.sphere": CheckKind("abs", "expansion"),
    "exterior.mass_estimate.flat": CheckKind("abs", "expansion"),
    "exterior.additivity": CheckKind("rel", "closed-form"),
    "exterior.monotonic": CheckKind("above", "closed-form"),
    "exterior.agmon": CheckKind("rel", "closed-form"),
    "exterior.agmon.gamma0": CheckKind("rel", "closed-form"),
    "dirac.mit.ground": CheckKind("abs", "closed-form"),
    "dirac.mit.scaling": CheckKind("rel", "closed-form"),
    "dirac.hm.symmetry": CheckKind("upper", "closed-form"),
    "dirac.convergence": CheckKind("envelope", "closed-form"),
    "dirac.convergence.final": CheckKind("upper", "closed-form"),
    "dirac.expansion.eta": CheckKind("rel", "expansion"),
    "dirac.series.level": CheckKind("abs", "expansion"),
    "dirac.nu.degenerate": CheckKind("abs", "closed-form"),
    "robin.upper_bound": CheckKind("upper", "closed-form"),
    "robin.expansion.mu": CheckKind("rel", "expansion"),
    "robin.series.level": CheckKind("abs", "expansion"),
    "robin.cross_solver": CheckKind("rel", "closed-form"),
    "robin.identity": CheckKind("upper", "closed-form"),
    "robin.identity.tol_study": CheckKind("below", "closed-form"),
}


# The characters of a check id or sector label: no space, quote, backslash
# or control character, so a label is never escaped in JSON.
LABEL_CHARS = re.compile(r"[A-Za-z0-9_.=;,<>+-]+")

_unplain = [check_id for check_id in CHECKS if not LABEL_CHARS.fullmatch(check_id)]
if _unplain:
    raise ValueError(f"check ids {_unplain} hold characters outside {LABEL_CHARS.pattern}")


def check(check_id: str, expected: float, observed: float, tolerance: float, *, m: float | None = None,
          kappa: float | None = None, gauss: float | None = None, sector: str = "") -> CheckRecord:
    """The row of ``check_id``, of the kind its ``CHECKS`` entry gives."""
    kind = CHECKS[check_id]
    return CheckRecord(check_id, kind.comparison, expected, observed, tolerance, kind.provenance,
                       m, kappa, gauss, sector, kind.asserted)


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
    # emit_table writes finite float cells itself, with these digits.
    if isinstance(value, float):
        if math.isfinite(value):
            return format(value, ".17g")
        if math.isnan(value):
            return "nan"
        return "inf" if value > 0 else "-inf"
    if type(value) is str:
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# JSON string escapes: the quote, the backslash and every control character
# below U+0020 (newline and tab in short form).
_JSON_ESCAPES = {code: f"\\u{code:04x}" for code in range(0x20)}
_JSON_ESCAPES.update({ord("\n"): "\\n", ord("\t"): "\\t", ord('"'): '\\"', ord("\\"): "\\\\"})


def _json_scalar(value: Any) -> str:
    # A finite float or a string (almost every summary value) is tested first.
    if isinstance(value, float):
        if math.isfinite(value):
            return format(value, ".17g")
        return f'"{_fmt(value)}"'
    if isinstance(value, str):
        if value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'  # every label the suites write
        return f'"{value.translate(_JSON_ESCAPES)}"'
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"unsupported scalar {value!r}")


# One JSON object per record: the CSV columns, then provenance and asserted.
_JSON_RECORD = "{" + ",".join(f'"{name}":%s' for name in (*CSV_COLUMNS, "provenance", "asserted")) + "}"


def emit_table(report: Report, fmt: str) -> bytes:
    """Serialize a report: CSV with the fixed column set, or JSON mirroring it."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    csv = fmt == "csv"
    other = _fmt if csv else _json_scalar
    rows = []
    for r in report.records:
        # Each row's errors and verdict are read once and its cells formatted
        # in one pass: a finite float with 17 significant digits, every other
        # value by _fmt or _json_scalar.
        values = (r.check_id, r.m, r.kappa, r.gauss, r.sector, r.expected, r.observed, r.abs_error,
                  r.rel_error, r.tolerance, r.comparison, r.passed, r.provenance, r.asserted)
        rows.append(["%.17g" % v if type(v) is float and v - v == 0.0 else other(v)
                     for v in (values[:len(CSV_COLUMNS)] if csv else values)])
    if csv:
        return ("\n".join([",".join(CSV_COLUMNS), *map(",".join, rows)]) + "\n").encode()
    records = ",".join(_JSON_RECORD % tuple(row) for row in rows)
    summary = ",".join(f"{_json_scalar(str(k))}:{_json_scalar(v)}" for k, v in dict(report.summary).items())
    return ('{"records":[' + records + '],"summary":{' + summary + "}}\n").encode()


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
    """Write the report bytes via a temp file and atomic rename.

    The temp file is created 0666 under a fresh name beside the target, so the
    kernel applies the umask, as it does for a plain open.  The bytes go out
    by ``os.write`` calls, each taking up where a short one stopped.
    """
    tmp = os.path.join(os.path.dirname(path), f".report-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        try:
            rest = memoryview(data)
            while rest:
                rest = rest[os.write(fd, rest):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
