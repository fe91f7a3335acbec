"""The pinned reports, byte for byte (characterization tests).

``tests/golden`` holds the ``suite=all``, seed 0 report on the ball of radius
0.5, 1, 1.7 and 3, in CSV and in JSON, as ``verify`` writes them from the config
files beside them.  Floats are written losslessly, so a change that moves any
value by one ulp fails here; the failure names each moved row and its
relative change.  A change that moves values on purpose regenerates the files
(README, "Golden reports"), and their diff shows what moved.
"""

import ast
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from mitbag.cli import main
from mitbag.report import CHECKS, LABEL_CHARS

GOLDEN = Path(__file__).resolve().parent / "golden"
RADII = ("0.5", "1", "1.7", "3")
ROW_KEY = ("check_id", "m", "kappa", "gauss", "sector")


def _rows(data: bytes, fmt: str) -> dict[tuple, dict]:
    """Report rows by (check_id, m, kappa, gauss, sector, occurrence); in
    JSON, each summary entry is one more row keyed by its name."""
    if fmt == "csv":
        records, summary = list(csv.DictReader(io.StringIO(data.decode()))), {}
    else:
        body = json.loads(data.decode())
        records, summary = body["records"], body["summary"]
    rows: dict[tuple, dict] = {}
    seen: Counter = Counter()
    for record in records:
        key = tuple(record[k] for k in ROW_KEY)
        rows[(*key, seen[key])] = record
        seen[key] += 1
    for name, value in summary.items():
        rows[("summary", name)] = {"value": value}
    return rows


def _row_name(key: tuple) -> str:
    if key[0] == "summary":
        return f"summary {key[1]}"
    fields = [f"{k}={v}" for k, v in zip(ROW_KEY[1:], key[1:-1]) if v not in (None, "")]
    return " ".join([key[0], *fields, *([f"#{key[-1] + 1}"] if key[-1] else [])])


def _relative_change(old, new) -> str:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return "not numeric"
    if a == b or (math.isnan(a) and math.isnan(b)):
        return "0"
    return f"{abs(b - a) / abs(a):.3g}" if a != 0.0 and math.isfinite(a) else f"from {a!r}"


def describe_moves(expected: bytes, actual: bytes, fmt: str) -> str:
    """One line per row that moved, appeared or vanished between two reports."""
    old, new = _rows(expected, fmt), _rows(actual, fmt)
    lines = []
    for key in [*old, *(k for k in new if k not in old)]:
        name = _row_name(key)
        if key not in new:
            lines.append(f"{name}: removed")
        elif key not in old:
            lines.append(f"{name}: added")
        else:
            moved = [
                f"{field} {old[key][field]!r} -> {new[key][field]!r} "
                f"(relative change {_relative_change(old[key][field], new[key][field])})"
                for field in old[key]
                if old[key][field] != new[key].get(field)
            ]
            if moved:
                lines.append(f"{name}: " + "; ".join(moved))
    return "\n".join(lines) or "the bytes differ but no row moved"


# The asserted rows that read exactly 0, or exactly their expected value, in
# some golden report, and why such a row still checks something.
EXACT_ROWS = {
    "transverse.sphere.cancellation": "K = kappa^2/4 cancels the m^-2 term in exact arithmetic; dyadic kappa rounds to 0",
    "transverse.flat.limit.m1e4": "Lambda = coth 100 = 1 + 3e-87 rounds to 1, and the series solve's flux gets it",
    "transverse.series.lambda": "on the flat pair Lambda = coth sqrt(m) = 1 + 8.5e-18 at m = 400 rounds to the series' 1",
    "exterior.dtn.l0": "e^x k_0 is one term, so the DtN value rounds to the closed form m + 1/R at some masses",
    "exterior.dtn.l1": "e^x k_1 is two terms, so the DtN value rounds to its closed form at some masses",
    "exterior.effective.rate.sphere": "the m = 1e2 row anchors the envelope: its bound is its own value",
    "exterior.effective.rate.flat": "the m = 1e2 row anchors the envelope: its bound is its own value",
    "exterior.sandwich": "at l = 0 the gap DtN - (m + 1/R) is 0 when the DtN value rounds to m + 1/R",
    "exterior.sandwich.sign": "at l = 0 the gap DtN - (m + 1/R) is 0 when the DtN value rounds to m + 1/R",
    "exterior.mass.l0": "the l = 0 tail mass is the double nearest 1/(2m); the row rounds onto 4 pi/(2m) at m = 1e4",
    "exterior.mass_estimate.l0": "the l = 0 tail mass is the double nearest ||v||^2/(2m), so the estimate is 0",
    "exterior.mass_estimate.sphere": "the envelope's bound is its first mass's value, the largest when the rate falls",
    "exterior.mass_estimate.flat": "the envelope's bound is its first mass's value, the largest when the rate falls",
    "exterior.additivity": "the ratio recurrence agrees with the Bessel polynomials to rounding, at R = 1 bit for bit",
    "dirac.mit.scaling": "doubling R halves every scan point exactly, so the root can halve bit for bit",
    "dirac.mit.symmetry": "at m0 = 0 sector kj's determinant at -E is minus sector -kj's at E; exact by construction",
    "dirac.nu.degenerate": "the kj=+1 copy of the ground level has the eta value of the kj=-1 pair bit for bit",
}


def test_exact_rows_are_the_allowed_ones():
    exact = set()
    for radius in RADII:
        body = json.loads((GOLDEN / f"report_R{radius}.json").read_bytes())
        exact |= {
            row["check_id"]
            for row in body["records"]
            if row["asserted"] and (row["observed"] == 0 or row["observed"] == row["expected"])
        }
    assert exact == set(EXACT_ROWS)


def test_every_golden_row_has_its_catalogued_kind():
    ids = set()
    for radius in RADII:
        for row in json.loads((GOLDEN / f"report_R{radius}.json").read_bytes())["records"]:
            ids.add(row["check_id"])
            kind = CHECKS[row["check_id"]]
            assert (row["comparison"], row["provenance"], row["asserted"]) == tuple(kind), row["check_id"]
    assert ids == set(CHECKS)


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("radius", RADII)
def test_golden_ids_and_sectors_are_plain_labels(radius, fmt):
    labels = set()
    for key in _rows((GOLDEN / f"report_R{radius}.{fmt}").read_bytes(), fmt):
        if key[0] != "summary":
            labels |= {key[0], *([key[4]] if key[4] else [])}
    assert any(";" in label for label in labels)  # the sector labels are in the set
    assert [label for label in sorted(labels) if not LABEL_CHARS.fullmatch(label)] == []


def test_label_chars_reject_what_a_writer_would_escape():
    assert all(LABEL_CHARS.fullmatch(check_id) for check_id in CHECKS)
    for label in ("", "kj=-1 k=1", 'a"b', "a\\b", "a\nb", "a\x00b", "\u00e9"):
        assert not LABEL_CHARS.fullmatch(label)


def _readme_checks() -> dict[str, tuple[str, str, bool]]:
    """(comparison, provenance, asserted) of each id in README's "Checks" tables."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Checks\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip().strip("`") for cell in re.split(r"(?<!\\)\|", line)[1:5]]
            assert cells[0] not in rows, f"{cells[0]} is listed twice"
            rows[cells[0]] = (cells[1], cells[2], {"yes": True, "no": False}[cells[3]])
    return rows


def test_readme_lists_every_check_with_its_kind():
    rows = _readme_checks()
    assert set(rows) == set(CHECKS)
    assert rows == {check_id: tuple(kind) for check_id, kind in CHECKS.items()}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("radius", RADII)
def test_report_is_the_golden_one(tmp_path, capsys, radius, fmt):
    out = tmp_path / f"report.{fmt}"
    assert main([str(GOLDEN / f"config_R{radius}.json"), "--format", fmt, "--out", str(out)]) == 0
    capsys.readouterr()  # the per-row verdict lines; the failure names the moved rows
    expected = (GOLDEN / f"report_R{radius}.{fmt}").read_bytes()
    actual = out.read_bytes()
    if actual != expected:
        pytest.fail(f"R={radius} {fmt} report moved:\n" + describe_moves(expected, actual, fmt), pytrace=False)


@pytest.mark.parametrize("fmt", ("csv", "json"))
def test_mismatch_names_each_moved_row(fmt):
    # Move one observed value by one ulp in the golden bytes.
    golden = (GOLDEN / f"report_R1.{fmt}").read_bytes()
    row = next(r for k, r in _rows(golden, fmt).items() if k[0] == "robin.upper_bound" and k[4] == "kj=-2;k=1")
    old = format(float(row["observed"]), ".17g")
    new = format(math.nextafter(float(old), math.inf), ".17g")
    assert golden.count(old.encode()) == 1
    message = describe_moves(golden, golden.replace(old.encode(), new.encode()), fmt)
    assert len(message.splitlines()) == 1
    assert message.startswith("robin.upper_bound m=50")
    assert f" sector=kj=-2;k=1: observed {row['observed']!r} -> " in message
    assert f"(relative change {_relative_change(old, new)})" in message
    assert 1e-16 < float(_relative_change(old, new)) < 3e-16
    assert describe_moves(golden, golden, fmt) == "the bytes differ but no row moved"


# The BLAS kernel and numpy's SIMD dispatch, as environment variables read
# by the child process only; the default environment is the reference.
KERNEL_VARIANTS = (
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
)


@pytest.mark.parametrize("suite", ("dirac", "robin"))
def test_spectral_reports_do_not_move_with_the_cpu_kernel(tmp_path, suite):
    """The dirac and robin reports are the same bytes under every BLAS kernel
    and SIMD dispatch tried as in the default environment: no value on their
    paths goes through BLAS.  The whole report, the transverse suite with it,
    is held to the golden bytes by test_report_does_not_move_with_the_cpu_kernel.
    The program pins no variable; the children set them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for i, variant in enumerate(({}, *KERNEL_VARIANTS)):
        out = tmp_path / f"{suite}-{i}.json"
        env = dict(os.environ, PYTHONPATH=src, **variant)
        command = [sys.executable, "-m", "mitbag", str(GOLDEN / "config_R0.5.json"), "--suite", suite,
                   "--format", "json", "--out", str(out)]
        runs.append((variant, out, subprocess.Popen(command, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL)))
    assert [proc.wait() for _, _, proc in runs] == [0] * len(runs)
    reference = runs[0][1].read_bytes()
    for variant, out, _ in runs[1:]:
        actual = out.read_bytes()
        assert actual == reference, f"{variant} moved:\n" + describe_moves(reference, actual, "json")


def _cpu_has_avx512() -> bool:
    try:
        return "avx512f" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


def test_report_does_not_move_with_the_cpu_kernel(tmp_path):
    """verify writes the golden bytes under every BLAS kernel and SIMD
    dispatch tried (SkylakeX where the CPU has AVX-512): no value of the
    report goes through BLAS, LAPACK or numpy's dispatched exp, log, sin and
    cos.  The program pins no variable; the children set them."""
    variants = [*KERNEL_VARIANTS, *([{"OPENBLAS_CORETYPE": "SkylakeX"}] if _cpu_has_avx512() else [])]
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for i, variant in enumerate(variants):
        out = tmp_path / f"report-{i}.json"
        env = dict(os.environ, PYTHONPATH=src, **variant)
        command = [sys.executable, "-m", "mitbag", str(GOLDEN / "config_R0.5.json"), "--format", "json",
                   "--out", str(out)]
        runs.append((variant, out, subprocess.Popen(command, env=env, cwd=tmp_path, stdout=subprocess.DEVNULL)))
    assert [proc.wait() for _, _, proc in runs] == [0] * len(runs)
    expected = (GOLDEN / "report_R0.5.json").read_bytes()
    for variant, out, _ in runs:
        actual = out.read_bytes()
        assert actual == expected, f"{variant} moved:\n" + describe_moves(expected, actual, "json")


# numpy's ufuncs whose SIMD loops differ in their last bits between the CPU
# features numpy dispatches to.
DISPATCHED_UFUNCS = {"exp", "expm1", "log", "log1p", "sin", "cos", "tan", "arctan", "power"}


def test_no_numpy_transcendental_ufunc_in_the_package():
    """No module of the package reads numpy's dispatched transcendental
    ufuncs (``np.sin``, ``numpy.exp``, ``from numpy import log``, ...): its
    transcendentals are the C library's (``numerics.libm``), the static half
    of the CPU-kernel guards above."""
    package = Path(__file__).resolve().parents[1] / "src" / "mitbag"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for a in node.names if a.name == "numpy"}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in DISPATCHED_UFUNCS
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                found.extend(f"{path.name}:{node.lineno} from numpy import {a.name}"
                             for a in node.names if a.name in DISPATCHED_UFUNCS)
    assert found == []
