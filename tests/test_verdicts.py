"""Every serialized verdict can be recomputed from its own row.

The formulas below are written out independently of ``report.COMPARISONS``:
a row's ``pass`` must follow from its ``expected``, ``observed``,
``tolerance`` and ``comparison`` fields alone, in the CSV and in the JSON.
"""

import csv
import io
import json
import math

import numpy as np
import pytest

import mitbag.cli as cli
import mitbag.dirac_ball as dirac_ball
import mitbag.suites as suites
from mitbag.cli import config_from_dict, run_suite
from mitbag.numerics import ToleranceConfig, run_memo
from mitbag.report import CheckRecord, emit_table
from test_transverse import kept_segments

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

_PAIR = [("transverse.series.lambda", "abs", True), ("transverse.series.mass", "abs", True)]
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
    + [("exterior.agmon", "rel", True)] * 9
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
    + [("dirac.slope.higher", "info", False)]
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


def test_every_error_cell_is_finite_or_empty(serialized):
    # An undefined error (expected 0 or inf) is an empty cell / null, never
    # a division by a floor value or an inf/nan.
    report, json_bytes, csv_bytes = serialized
    json_rows = json.loads(json_bytes)["records"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
    for json_row, csv_row in zip(json_rows, csv_rows, strict=True):
        e = float(json_row["expected"])
        for column in ("abs_error", "rel_error"):
            value = json_row[column]
            assert value is None or (type(value) in (int, float) and math.isfinite(value)), json_row
            assert csv_row[column] == ("" if value is None else format(value, ".17g")), csv_row
        if e == 0.0 or math.isinf(e):
            assert json_row["rel_error"] is None, json_row
        else:
            assert json_row["rel_error"] == pytest.approx(abs(float(json_row["observed"]) - e) / abs(e))


def test_every_asserted_check_passes(serialized):
    report, _, _ = serialized
    assert report.passed
    assert report.pass_counts() == (124, 124)


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
    solvers = ("mit_eigenvalues", "mit_spectrum_signed", "largemass_spectrum_signed", "largemass_eigenvalues")
    for name in solvers:
        solver = getattr(suites, name)

        def spy(*args, _solver=solver, _name=name, **kwargs):
            seen.setdefault(_name, []).append((args[0], kwargs.get("tol")))
            return _solver(*args, **kwargs)

        monkeypatch.setattr(suites, name, spy)
    scan = dirac_ball._scan_roots
    scan_tols = []

    def scanning(kernels, grid, lo, hi, step, count, tol, pooled=False):
        scan_tols.append(tol)
        return scan(kernels, grid, lo, hi, step, count, tol, pooled)

    monkeypatch.setattr(dirac_ball, "_scan_roots", scanning)
    with run_memo():
        records, _ = cli.run_dirac_suite(cli.SuiteConfig(suite="dirac", tolerances=tol))
    assert records
    # Ground (its two levels also feed the convergence rows) and scaling;
    # the ground symmetry (whose kj=+1 and kj=-1 levels also give the
    # degenerate copy and the higher level); the large-mass symmetry.  The
    # two lowest ground-sector levels are asked for once per mass, at the
    # five convergence masses and the six of the slope grid (ground and
    # kj=-1 level 2), which share m = 100.
    assert len(seen["mit_eigenvalues"]) == 2
    assert len(seen["mit_spectrum_signed"]) == 1
    assert len(seen["largemass_spectrum_signed"]) == 1
    assert len({p for p, _ in seen["largemass_eigenvalues"]}) == len(seen["largemass_eigenvalues"]) == 5 + 6 - 1
    for name, calls in seen.items():
        assert all(t is tol for _, t in calls), name
    # One walk per solve that the records do not answer: the two bag sectors
    # kj=-2, -1 of the symmetry solve (kj=+2, +1 are their charge
    # conjugates) and the ground sector at radius 2R; the large-mass
    # symmetry's four sectors, and the ground sector at the nine other masses.
    assert len(scan_tols) == 2 + 1 + 4 + 9
    assert all(t is tol for t in scan_tols)


def test_nan_sandwich_gap_fails_its_rows(monkeypatch):
    # A NaN gap at a finer mass is the row recorded, so the check fails
    # instead of reporting a finite mass where the condition holds.
    dtn = suites.ball_exterior_dtn
    last = suites.EXTERIOR_M_GRID[-1]

    def nan_at_last_mass(m, R, ell):
        return math.nan if (ell == 2 and m == last) else dtn(m, R, ell)

    monkeypatch.setattr(suites, "ball_exterior_dtn", nan_at_last_mass)
    records, _ = cli.run_exterior_suite(cli.SuiteConfig(suite="exterior"))
    rows = {(r.check_id, r.sector): r for r in records if r.check_id.startswith("exterior.sandwich")}
    for check_id in ("exterior.sandwich", "exterior.sandwich.sign"):
        assert rows[(check_id, "ell=2")].m == last
        assert not rows[(check_id, "ell=2")].passed
        assert rows[(check_id, "ell=1")].passed


def test_agmon_rows_fail_a_ratio_below_their_limit(monkeypatch):
    # The rows compare the ratio with 1/(1-gamma) on both sides, so a ratio
    # of 1.0 (no weighted growth at all) fails every one of them.
    monkeypatch.setattr(suites, "agmon_decay_check", lambda m, R, ell, gamma: 1.0)
    records, _ = cli.run_exterior_suite(cli.SuiteConfig(suite="exterior"))
    rows = [r for r in records if r.check_id == "exterior.agmon"]
    assert len(rows) == 9
    assert not any(r.passed for r in rows)


def test_nu_degenerate_compares_two_copies_of_the_level(monkeypatch):
    # An eta that depends on the sector tells the kj=-1 and kj=+1 copies of
    # the ground level apart, so the row must fail.
    eta = suites.eta_functional

    def sector_dependent_eta(u, lam, p):
        return eta(u, lam, p) + 1e-9 * u.sector.kappa_j

    monkeypatch.setattr(suites, "eta_functional", sector_dependent_eta)
    monkeypatch.setattr(dirac_ball, "eta_functional", sector_dependent_eta)
    records, _ = cli.run_dirac_suite(cli.SuiteConfig(suite="dirac"))
    (row,) = [r for r in records if r.check_id == "dirac.nu.degenerate"]
    assert not row.passed


@pytest.mark.parametrize(
    "runner, solver",
    [(cli.run_exterior_suite, "exterior_energy"), (cli.run_transverse_suite, "solve_transverse")],
)
def test_suite_solves_each_problem_once(monkeypatch, runner, solver):
    # solve_transverse takes a list of problems: they are flattened across calls.
    solve = getattr(suites, solver)
    problems = []

    def spy(*args):
        problems.extend(args[0] if solver == "solve_transverse" else [args])
        return solve(*args)

    monkeypatch.setattr(suites, solver, spy)
    runner(cli.SuiteConfig(suite="all"))
    assert problems and len(problems) == len(set(problems))


def test_transverse_effort_counts_the_solved_elements(monkeypatch):
    solve = suites.solve_transverse
    problems = []

    def spy(probs):
        problems.extend(probs)
        return solve(probs)

    monkeypatch.setattr(suites, "solve_transverse", spy)
    _, summary = cli.run_transverse_suite(cli.SuiteConfig(suite="transverse"))
    # Each collar keeps the segments of its uncut layout that start before
    # TAU_CUT.
    n_el = [kept_segments(p)[0] for p in problems]
    assert len(problems) == 65 and "transverse_dofs" not in summary
    assert summary["transverse_elements"] == sum(n_el) == 352


def test_transverse_suite_is_one_stacked_solve(monkeypatch):
    # All 65 problems (4 flat, 60 of the curvature sweep, the seeded one) go
    # to one solve_transverse call, which makes no LAPACK solve; the flat
    # mass's decay order is the one line fit, and it calls no lstsq.
    stacks, interior_solves, fits, lstsqs = [], [], [], []
    solve, lapack_solve, fit, lstsq = suites.solve_transverse, np.linalg.solve, suites.fit_line, np.linalg.lstsq

    def spy(probs):
        stacks.append(list(probs))
        return solve(probs)

    def lapack_spy(*args):
        interior_solves.append(args)
        return lapack_solve(*args)

    monkeypatch.setattr(suites, "solve_transverse", spy)
    monkeypatch.setattr(np.linalg, "solve", lapack_spy)
    monkeypatch.setattr(suites, "fit_line", lambda *args: fits.append(args) or fit(*args))
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: lstsqs.append(args) or lstsq(*args, **kw))
    cli.run_transverse_suite(cli.SuiteConfig(suite="transverse"))
    assert [len(stack) for stack in stacks] == [65]
    assert len(interior_solves) == 0
    assert len(fits) == 1
    assert len(lstsqs) == 0
    assert all(np.ndim(y) == 1 for _, y in fits)


def test_higher_levels_are_not_the_ground_level(serialized):
    # A "higher" level equal to the ground level (its charge-conjugate copy)
    # would report the ground slope twice.
    _, json_bytes, _ = serialized
    summary = json.loads(json_bytes)["summary"]
    eta = summary["dirac.eta_ground"]
    higher = [value for key, value in summary.items() if key.startswith("dirac.higher_eta[")]
    assert higher
    assert all(abs(value - eta) > 1e-9 * abs(eta) for value in higher)
