"""Every serialized verdict can be recomputed from its own row.

The formulas below are written out independently of ``report.COMPARISONS``:
a row's ``pass`` must follow from its ``expected``, ``observed``,
``tolerance`` and ``comparison`` fields alone, in the CSV and in the JSON.
"""

import csv
import io
import json
import math

import pytest

import mitbag.cli as cli
from mitbag.cli import config_from_dict, run_suite
from mitbag.numerics import ToleranceConfig
from mitbag.report import CheckRecord, emit_table

VERDICT = {
    "abs": lambda e, o, t: abs(o - e) <= t,
    "rel": lambda e, o, t: abs(o - e) <= t * abs(e),
    "upper": lambda e, o, t: o <= e + t,
    "lower": lambda e, o, t: o >= e - t,
    "envelope": lambda e, o, t: o <= e * (1.0 + t),
    "below": lambda e, o, t: o < e,
    "above": lambda e, o, t: o > e,
    "info": lambda e, o, t: True,
}

_PAIR = [("transverse.expansion.pair.slope", "upper", False), ("transverse.mass.envelope", "envelope", True)]
_COHORT = [("transverse.expansion.slope", "upper", True), ("transverse.expansion.envelope", "envelope", True)]
_DTN = [("exterior.dtn.l0", "rel", True), ("exterior.dtn.l1", "rel", True), ("exterior.mass.l0", "rel", True)]
_SANDWICH = [("exterior.sandwich", "upper", True), ("exterior.sandwich.sign", "upper", True)]
_LEVEL = [("dirac.convergence", "envelope", True)] * 5 + [("dirac.convergence.final", "upper", True)]

# Ordered (check_id, comparison, asserted) of the pinned run: suite "all",
# unit ball, seed 0, default grids.
GOLDEN = (
    [
        ("transverse.flat.lambda.m4", "abs", True),
        ("transverse.flat.mass.m4", "abs", True),
        ("transverse.flat.limit.m1e4", "abs", True),
    ]
    + _PAIR * 20
    + _COHORT * 2
    + [
        ("transverse.sphere.cancellation", "abs", True),
        ("transverse.minimality.seeded", "lower", True),
        ("transverse.pythagoras.seeded", "upper", True),
        ("transverse.residual.order", "envelope", True),
        ("transverse.residual.flat", "upper", True),
    ]
    + _DTN * 3
    + [("exterior.effective.rate.sphere", "envelope", True)] * 3
    + [("exterior.effective.rate.sphere.decreasing", "below", True)]
    + [("exterior.effective.rate.flat", "envelope", True)] * 3
    + [("exterior.effective.rate.flat.decreasing", "below", True)]
    + _SANDWICH * 4
    + [
        ("exterior.mass_estimate.l0", "upper", True),
        ("exterior.mass_estimate.sphere", "envelope", True),
        ("exterior.mass_estimate.flat", "envelope", True),
        ("exterior.additivity", "rel", True),
    ]
    + [("exterior.monotonic", "above", True)] * 2
    + [("exterior.agmon", "envelope", True)] * 9
    + [
        ("exterior.agmon.gamma0", "abs", True),
        ("dirac.mit.ground", "abs", True),
        ("dirac.mit.scaling", "rel", True),
        ("dirac.mit.symmetry", "upper", True),
        ("dirac.hm.symmetry", "upper", True),
    ]
    + _LEVEL * 2
    + [
        ("dirac.slope.limit", "rel", True),
        ("dirac.slope.eta", "rel", True),
        ("dirac.slope.eta.drift", "upper", True),
        ("dirac.nu.degenerate", "abs", True),
    ]
    + [("dirac.slope.higher", "info", False)] * 2
    + [("robin.upper_bound", "upper", True)] * 9
    + [
        ("robin.slope.mu", "rel", True),
        ("robin.slope.limit", "rel", True),
        ("robin.cross_solver", "rel", True),
    ]
    + [("robin.identity", "upper", True)] * 2
    + [("robin.identity.tol_study", "below", True)]
)


def _config(tmp_path, R):
    return config_from_dict(
        {
            "suite": "all",
            "geometry": {"variant": "ball_interior", "R": R},
            "output_path": str(tmp_path / "report.json"),
            "format": "json",
            "seed": 0,
        }
    )


@pytest.fixture(scope="module", params=(1.0, 0.5, 3.0), ids=lambda R: f"R={R:g}")
def serialized(request, tmp_path_factory):
    """JSON as written by run_suite, and the CSV of the same report."""
    config = _config(tmp_path_factory.mktemp("verdicts"), request.param)
    report = run_suite(config)
    with open(config.output_path, "rb") as handle:
        json_bytes = handle.read()
    return report, json_bytes, emit_table(report, "csv")


def _rederive(rows):
    """(check_id, stored pass, recomputed pass) for each row of dicts."""
    out = []
    for row in rows:
        e, o, t = (float(row[k]) for k in ("expected", "observed", "tolerance"))
        out.append((row["check_id"], row["pass"], VERDICT[row["comparison"]](e, o, t)))
    return out


def test_json_pass_rederived_from_row(serialized):
    _, json_bytes, _ = serialized
    rows = json.loads(json_bytes)["records"]
    assert rows
    for check_id, stored, recomputed in _rederive(rows):
        assert stored is recomputed, check_id


def test_csv_pass_rederived_from_row(serialized):
    report, _, csv_bytes = serialized
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    assert len(rows) == len(report.records)
    for check_id, stored, recomputed in _rederive(rows):
        assert stored == ("true" if recomputed else "false"), check_id


def test_every_asserted_check_passes(serialized):
    report, _, _ = serialized
    assert report.passed
    assert report.pass_counts() == (108, 108)


def test_golden_check_list(tmp_path):
    report = run_suite(_config(tmp_path, 1.0))
    assert [(r.check_id, r.comparison, r.asserted) for r in report.records] == GOLDEN


class TestComparisons:
    def test_strict_inequalities_stay_strict(self):
        assert not CheckRecord("x", "below", 1.0, 1.0, 0.0, "fit").passed
        assert not CheckRecord("x", "above", 1.0, 1.0, 0.0, "fit").passed
        assert CheckRecord("x", "upper", 1.0, 1.0, 0.0, "fit").passed

    def test_vacuous_envelope_passes(self):
        assert CheckRecord("x", "envelope", math.inf, 3.0, 1e-9, "fit").passed
        assert not CheckRecord("x", "envelope", math.inf, math.nan, 1e-9, "fit").passed

    def test_unknown_comparison_rejected(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "approx", 1.0, 1.0, 0.0, "fit")

    def test_info_cannot_be_asserted(self):
        with pytest.raises(ValueError):
            CheckRecord("x", "info", 1.0, 2.0, 0.0, "fit")
        assert CheckRecord("x", "info", 1.0, 2.0, 0.0, "fit", asserted=False).passed


def test_configured_tolerance_reaches_every_dirac_solve(monkeypatch):
    tol = ToleranceConfig(abs_tol=0.0, rel_tol=1e-13, max_iter=300)
    seen: dict[str, list] = {}
    solvers = ("mit_eigenvalues", "largemass_eigenvalues", "mit_spectrum_signed", "largemass_spectrum_signed")
    for name in solvers:
        solver = getattr(cli, name)

        def spy(*args, _solver=solver, _name=name, **kwargs):
            seen.setdefault(_name, []).append(kwargs.get("tol"))
            return _solver(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    records, _ = cli.run_dirac_suite(cli.SuiteConfig(suite="dirac", tolerances=tol))
    assert records
    # Ground, scaling and convergence; the ground symmetry and the two
    # signed higher levels (whose magnitudes are the higher-level values);
    # the large-mass symmetry.
    assert len(seen["mit_eigenvalues"]) == 3
    assert len(seen["mit_spectrum_signed"]) == 3
    assert len(seen["largemass_spectrum_signed"]) == 1
    assert len(seen["largemass_eigenvalues"]) == 5 + 3 * 6
    for name, tols in seen.items():
        assert all(t is tol for t in tols), name


def test_nan_sandwich_gap_fails_its_rows(monkeypatch):
    # A NaN gap at a finer mass is the row recorded, so the check fails
    # instead of reporting a finite mass where the condition holds.
    dtn = cli.ball_exterior_dtn
    last = cli.EXTERIOR_M_GRID[-1]

    def nan_at_last_mass(m, R, ell):
        return math.nan if (ell == 2 and m == last) else dtn(m, R, ell)

    monkeypatch.setattr(cli, "ball_exterior_dtn", nan_at_last_mass)
    records, _ = cli.run_exterior_suite(cli.SuiteConfig(suite="exterior"))
    rows = {(r.check_id, r.sector): r for r in records if r.check_id.startswith("exterior.sandwich")}
    for check_id in ("exterior.sandwich", "exterior.sandwich.sign"):
        assert rows[(check_id, "ell=2")].m == last
        assert not rows[(check_id, "ell=2")].passed
        assert rows[(check_id, "ell=1")].passed
