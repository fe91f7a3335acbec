"""Configuration handling, report serialization, determinism, exit codes."""

import json
import math
import os
import stat
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mitbag.cli as cli
import mitbag.dirac_ball as dirac_ball
import mitbag.special as special
import mitbag.suites as suites
from mitbag.cli import BallInterior, ConfigError, SuiteConfig, config_from_dict, load_config, main, run_suite
from mitbag.dirac_ball import DiracParams
from mitbag.numerics import NumericsError, ToleranceConfig
from mitbag.report import (
    CSV_COLUMNS,
    CheckRecord,
    Report,
    _fmt,
    emit_table,
    parse_report_json,
    write_report_atomic,
)
from mitbag.transverse import CurvatureData, TransverseProblem


# Geometry blocks the suites would not read: other variants, extra or
# missing keys, a bad radius, and blocks that are not JSON objects.
REFUSED_GEOMETRIES = (
    {"variant": "ball_exterior", "R": 2.0},
    {"variant": "flat_torus_halfspace", "period": 3.0},
    {"variant": "ball_interior", "R": 1.0, "period": 3.0},
    {"variant": "ball_interior"},
    {"variant": "ball_interior", "R": 0.0},
    {"variant": "ball_interior", "R": "one"},
    {"variant": "cube", "R": 1.0},
    3,
    [1.0],
    None,
)


def write_config(tmp_path, **overrides):
    document = {
        "suite": "exterior",
        "output_path": str(tmp_path / "report.csv"),
        "format": "csv",
        "seed": 0,
    }
    document.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    return str(path)


class TestConfig:
    def test_defaults(self):
        config = config_from_dict({})
        assert config.suite == "all"
        assert config.format == "csv"
        # One default solver tolerance, whether the block is absent or empty.
        assert config.tolerances == ToleranceConfig(abs_tol=0.0, rel_tol=1e-14, max_iter=300)
        assert config_from_dict({"tolerances": {}}).tolerances == ToleranceConfig()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sweep": [1, 2]})

    def test_bad_suite_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"suite": "everything"})

    def test_empty_m_grid_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"m_grid": []})

    def test_unsorted_m_grid_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"m_grid": [100.0, 50.0]})

    @pytest.mark.parametrize("suite", ("transverse", "all"))
    def test_mass_past_collar_cap_rejected(self, suite):
        # The cut collar has no width cap (sqrt(4e5) = 632.5 was past the old
        # one); the masses are capped where the collar weight's m**2, or the
        # expansion envelopes' m**3, overflows.
        assert SuiteConfig(suite=suite, m_grid=(25.0, 100.0, 400.0, 4e5, 1e100)).m_grid[-1] == 1e100
        with pytest.raises(ConfigError, match=r"m=1e\+110 is too large: the expansion envelopes' m\*\*3 overflows"):
            SuiteConfig(suite=suite, m_grid=(25.0, 100.0, 400.0, 1e110))
        with pytest.raises(ConfigError, match=r"m=1e\+155 is too large: m\*\*2 in the collar weight overflows"):
            SuiteConfig(suite=suite, m_grid=(25.0, 100.0, 400.0, 1e155))

    def test_validity_floor_is_the_problems(self):
        # sqrt(m) = 3 + sqrt(13) is the floor of (kappa, K) = (-3, -2); the
        # weight there rounds to 0.4999999999999999, and the suite keeps the
        # mass exactly when a TransverseProblem accepts it.
        curv, m = CurvatureData(-3.0, -2.0), 43.633307652783934
        assert TransverseProblem(m=m, curv=curv).m == m
        config = SuiteConfig(suite="transverse", m_grid=(25.0, m, 100.0, 400.0), curvature_grid=((-3.0, -2.0),))
        ((pair, probs),) = config.transverse_sweep
        assert pair == (-3.0, -2.0) and [prob.m for prob in probs] == [m, 100.0, 400.0]

    def test_config_builds_each_sweep_problem_once(self, monkeypatch, tmp_path):
        # The config builds the 92 problems of the curvature sweep, whose
        # construction judges the grid; the run solves those very objects and
        # builds only its own 13 (4 flat, 1 seeded, 3 sphere, 5 residual).
        built, stacks = [], []
        post_init, solve = TransverseProblem.__post_init__, suites.solve_transverse

        def counting(prob):
            built.append(prob)
            post_init(prob)

        def spy(probs):
            stacks.append(list(probs))
            return solve(probs)

        monkeypatch.setattr(TransverseProblem, "__post_init__", counting)
        monkeypatch.setattr(suites, "solve_transverse", spy)
        config = SuiteConfig(output_path=str(tmp_path / "report.csv"))
        sweep = [prob for _, probs in config.transverse_sweep for prob in probs]
        assert len(built) == len(sweep) == 92
        assert {id(prob) for prob in built} == {id(prob) for prob in sweep}
        assert config.transverse_sweep is config.transverse_sweep
        built.clear()
        run_suite(config)
        assert len(built) == 13 and [len(stack) for stack in stacks] == [97]
        assert all(a is b for a, b in zip(stacks[0][4:-1], sweep, strict=True))
        # Suites that do not solve the sweep never build it.
        built.clear()
        for suite in ("exterior", "dirac", "robin"):
            SuiteConfig(suite=suite)
        assert built == []

    def test_geometry_variants(self):
        # The suites read only the ball radius, so the one accepted geometry
        # block names it; every other block is refused, naming that one.
        config = config_from_dict({"geometry": {"variant": "ball_interior", "R": 2.0}})
        assert config.geometry == BallInterior(2.0)
        for suite in cli.SUITES:
            for geometry in REFUSED_GEOMETRIES:
                with pytest.raises(ConfigError, match=r'\{"variant": "ball_interior", "R": r\}'):
                    config_from_dict({"suite": suite, "geometry": geometry})

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_load_config_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))


def _sample_report():
    records = (
        CheckRecord(
            check_id="demo.alpha",
            comparison="rel",
            expected=1.0,
            observed=1.0 + 1e-13,
            tolerance=1e-9,
            provenance="closed-form",
            m=100.0,
            kappa=2.0,
            gauss=1.0,
            sector="ell=1",
        ),
        CheckRecord(
            check_id="demo.beta",
            comparison="abs",
            expected=-4.0,
            observed=-4.2,
            tolerance=0.05,
            provenance="fit",
            asserted=False,
        ),
        CheckRecord(
            check_id="demo.gamma",
            comparison="envelope",
            expected=math.inf,
            observed=0.5,
            tolerance=1e-9,
            provenance="fit",
        ),
    )
    summary = (("suite", "demo"), ("seed", 0), ("slope", -3.000000000000001))
    return Report(records=records, summary=summary, runtime_s=1.23)


class TestReport:
    def test_csv_shape(self):
        data = emit_table(_sample_report(), "csv").decode()
        lines = data.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 4  # header + one row per record

    def test_csv_field_count_stable_for_real_suite(self, tmp_path):
        # Sector labels must stay comma-free or the fixed column set breaks.
        config = SuiteConfig(suite="exterior", output_path=str(tmp_path / "r.csv"))
        run_suite(config)
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert all(len(line.split(",")) == len(CSV_COLUMNS) for line in lines)

    def test_json_round_trip(self):
        report = _sample_report()
        data = emit_table(report, "json")
        parsed = parse_report_json(data)
        assert parsed == report
        assert [r.comparison for r in parsed.records] == ["rel", "abs", "envelope"]
        assert [r.passed for r in parsed.records] == [True, False, True]

    def test_undefined_errors_are_empty_cells(self):
        # demo.gamma has expected = inf: neither error is a number.
        csv_data = emit_table(_sample_report(), "csv").decode()
        gamma = csv_data.strip().split("\n")[3].split(",")
        assert gamma[CSV_COLUMNS.index("abs_error")] == ""
        assert gamma[CSV_COLUMNS.index("rel_error")] == ""
        rows = json.loads(emit_table(_sample_report(), "json"))["records"]
        assert rows[2]["abs_error"] is None and rows[2]["rel_error"] is None
        zero = CheckRecord("demo.zero", "upper", expected=0.0, observed=1e-9, tolerance=1e-6, provenance="fit")
        assert (zero.abs_error, zero.rel_error) == (1e-9, None)

    def test_json_round_trip_keeps_the_bytes(self):
        data = emit_table(_sample_report(), "json")
        assert b'"abs_error":null' in data
        assert emit_table(parse_report_json(data), "json") == data

    def test_quotes_backslashes_and_non_finite_cells(self):
        # No golden row has a quote or a backslash in a text field, or a NaN,
        # an infinity or an empty cell in every numeric column.
        records = (
            CheckRecord('demo."quoted"\\id', "abs", expected=math.nan, observed=math.inf, tolerance=1.0,
                        provenance="fit", sector='kj="-1"\\k=1'),
            CheckRecord("demo.inf", "lower", expected=-math.inf, observed=2.0, tolerance=math.inf,
                        provenance="closed-form", m=math.nan, kappa=math.inf, gauss=-math.inf),
        )
        summary = (('name"q', math.nan), ("inf", -math.inf), ("none", None), ("path\\x", 'a"b\\'))
        report = Report(records=records, summary=summary)
        data = emit_table(report, "json")
        body = json.loads(data)
        assert [row["check_id"] for row in body["records"]] == ['demo."quoted"\\id', "demo.inf"]
        assert body["records"][0]["sector"] == 'kj="-1"\\k=1'
        assert body["records"][1]["m"] == "nan" and body["records"][0]["m"] is None
        assert body["summary"] == {'name"q': "nan", "inf": "-inf", "none": None, "path\\x": 'a"b\\'}
        assert emit_table(parse_report_json(data), "json") == data
        lines = emit_table(report, "csv").decode().splitlines()
        for line, r in zip(lines[1:], records, strict=True):
            fields = [getattr(r, "passed" if column == "pass" else column) for column in CSV_COLUMNS]
            assert line.split(",") == [_fmt(v) for v in fields]

    def test_control_characters_are_escaped(self):
        # A tab in a sector, a newline in a check_id and other control
        # characters in a summary key and value give JSON that reads back.
        records = (CheckRecord("demo.line\nbreak", "abs", expected=1.0, observed=1.0, tolerance=0.0,
                               provenance="fit", sector="a\tb"),)
        summary = (("key\x01\x1f\r", "value\x00"),)
        report = Report(records=records, summary=summary)
        data = emit_table(report, "json")
        assert b'"check_id":"demo.line\\nbreak"' in data and b'"sector":"a\\tb"' in data
        assert b'"key\\u0001\\u001f\\u000d":"value\\u0000"' in data
        body = json.loads(data)
        assert body["records"][0]["check_id"] == "demo.line\nbreak"
        assert body["records"][0]["sector"] == "a\tb"
        assert body["summary"] == {"key\x01\x1f\r": "value\x00"}
        assert parse_report_json(data) == report
        assert emit_table(parse_report_json(data), "json") == data

    def test_edge_cells_keep_their_bytes(self):
        # Signed zeros, NaN, infinities, empty cells, an integer in a float
        # field, labels that need escapes and a label of a str subclass: the
        # bytes are pinned, since _fmt and _json_scalar test the common
        # finite-float and plain-string cells first.
        class Label(str):
            pass

        records = (
            CheckRecord("demo.zero", "abs", expected=-0.0, observed=0.0, tolerance=-0.0, provenance="fit",
                        m=-0.0, kappa=0.0, gauss=None, sector=""),
            CheckRecord('demo."q"\\', "upper", expected=math.nan, observed=-math.inf, tolerance=math.inf,
                        provenance="closed-form", m=math.nan, kappa=-math.inf, gauss=math.inf, sector="a\tb\x00"),
            CheckRecord(Label("demo.int"), "rel", expected=3, observed=10**20, tolerance=5e-324,
                        provenance="expansion", m=7, kappa=1e308, gauss=-2.5e-310, sector=Label("é;k=1"),
                        asserted=False),
        )
        report = Report(records=records, summary=(("a", -0.0), ("b", math.nan), ("c", None), ("d", 3)))
        assert emit_table(report, "csv") == (
            b"check_id,m,kappa,gauss,sector,expected,observed,abs_error,rel_error,tolerance,comparison,pass\n"
            b"demo.zero,-0,0,,,-0,0,0,,-0,abs,true\n"
            b'demo."q"\\,nan,-inf,inf,a\tb\x00,nan,-inf,,,inf,upper,false\n'
            b"demo.int,7,1e+308,-2.5000000000000171e-310,\xc3\xa9;k=1,3,100000000000000000000,"
            b"99999999999999999997,3.3333333333333332e+19,4.9406564584124654e-324,rel,false\n"
        )
        assert emit_table(report, "json") == (
            b'{"records":[{"check_id":"demo.zero","m":-0,"kappa":0,"gauss":null,"sector":"","expected":-0,'
            b'"observed":0,"abs_error":0,"rel_error":null,"tolerance":-0,"comparison":"abs","pass":true,'
            b'"provenance":"fit","asserted":true},'
            b'{"check_id":"demo.\\"q\\"\\\\","m":"nan","kappa":"-inf","gauss":"inf","sector":"a\\tb\\u0000",'
            b'"expected":"nan","observed":"-inf","abs_error":null,"rel_error":null,"tolerance":"inf",'
            b'"comparison":"upper","pass":false,"provenance":"closed-form","asserted":true},'
            b'{"check_id":"demo.int","m":7,"kappa":1e+308,"gauss":-2.5000000000000171e-310,'
            b'"sector":"\xc3\xa9;k=1","expected":3,"observed":100000000000000000000,'
            b'"abs_error":99999999999999999997,"rel_error":3.3333333333333332e+19,'
            b'"tolerance":4.9406564584124654e-324,"comparison":"rel","pass":false,"provenance":"expansion",'
            b'"asserted":false}],"summary":{"a":-0,"b":"nan","c":null,"d":3}}\n'
        )

    def test_json_pass_flag_must_match_comparison(self):
        data = emit_table(_sample_report(), "json").decode()
        tampered = data.replace('"pass":false', '"pass":true', 1)
        assert tampered != data
        with pytest.raises(ValueError):
            parse_report_json(tampered.encode())

    def test_runtime_not_serialized(self):
        report = _sample_report()
        data = emit_table(report, "json").decode()
        assert "runtime" not in data
        assert "1.23" not in data

    def test_seventeen_digit_floats(self):
        data = emit_table(_sample_report(), "json").decode()
        assert "-3.0000000000000009" in data
        csv_data = emit_table(_sample_report(), "csv").decode()
        assert "1.0000000000000999" in csv_data  # observed value round-trips

    def test_pass_semantics(self):
        report = _sample_report()
        # The failing record is unasserted, so the report passes overall.
        assert report.passed
        passed, total = report.pass_counts()
        assert (passed, total) == (2, 2)

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(_sample_report(), "xml")

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.csv"
        write_report_atomic(str(target), b"payload\n")
        assert target.read_bytes() == b"payload\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".report-")]
        assert leftovers == []

    def test_atomic_write_mode_follows_umask(self, tmp_path):
        # Like a plain open: 0666 less the umask, not the 0600 of a temp file.
        target = tmp_path / "out.csv"
        previous = os.umask(0o022)
        try:
            write_report_atomic(str(target), b"payload\n")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(target.stat().st_mode) == 0o644

    def test_atomic_write_leaves_the_umask_alone(self, tmp_path, monkeypatch):
        # Setting the umask, even to read it, changes it for every thread of
        # the process for a moment; the kernel applies it at creation instead.
        def umask(mask):
            raise AssertionError("os.umask called")

        target = tmp_path / "out.csv"
        previous = os.umask(0o022)
        try:
            monkeypatch.setattr(os, "umask", umask)
            write_report_atomic(str(target), b"payload\n")
        finally:
            monkeypatch.undo()
            os.umask(previous)
        assert target.read_bytes() == b"payload\n"
        assert stat.S_IMODE(target.stat().st_mode) == 0o644


class TestRunSuite:
    def test_exterior_suite_passes(self, tmp_path):
        config = SuiteConfig(suite="exterior", output_path=str(tmp_path / "r.csv"))
        report = run_suite(config)
        assert report.passed
        assert (tmp_path / "r.csv").exists()
        keys = dict(report.summary)
        assert keys["seed"] == 0

    def test_determinism_across_runs(self, tmp_path):
        out = tmp_path / "r.csv"
        config = SuiteConfig(suite="all", output_path=str(out))
        run_suite(config)
        first = out.read_bytes()
        run_suite(config)
        assert out.read_bytes() == first


@pytest.mark.parametrize("R", (0.5, 1.0, 3.0))
def test_additivity_row_fails_when_a_bessel_coefficient_moves(monkeypatch, R):
    # One Bessel polynomial coefficient of e^x k_4 off by one moves the summed
    # exterior energy; the row's expected value, from the ratio recurrence,
    # does not move with it.
    exact = special._k_poly_coeffs

    def mutated(ell):
        coeffs = exact(ell)
        return coeffs[:3] + (coeffs[3] + 1.0,) + coeffs[4:] if ell == 4 else coeffs

    monkeypatch.setattr(special, "_k_poly_coeffs", mutated)
    records, _ = cli.run_exterior_suite(SuiteConfig(suite="exterior", geometry=BallInterior(R)))
    (row,) = [r for r in records if r.check_id == "exterior.additivity"]
    assert not row.passed


@pytest.mark.parametrize("suite", ("dirac", "robin", "all"))
def test_interior_rules_are_built_once_per_run(tmp_path, monkeypatch, suite):
    # The eigenpairs of a run ask for the same (R, panel count) quadrature
    # rules again and again; each is built once per run, and a second run
    # builds them all again.
    requests, built = [], []
    samples, rule = dirac_ball._interior_samples, dirac_ball._interior_rule

    def requested(*args):
        requests.append(args)
        return samples(*args)

    def building(*args):
        built.append(args)
        return rule(*args)

    monkeypatch.setattr(dirac_ball, "_interior_samples", requested)
    monkeypatch.setattr(dirac_ball, "_interior_rule", building)
    config = SuiteConfig(suite=suite, output_path=str(tmp_path / "r.csv"))
    run_suite(config)
    first = list(built)
    assert len(first) == len(set(first)) < len(requests)
    built.clear()
    run_suite(config)
    assert built == first


def _spy_scans(monkeypatch):
    """Record every scan as (kernel factory, p, sector, tol), one lockstep
    scan of all the sector's branches, and every interior sampling of an
    eigenfunction by its arguments."""
    scans, sampled, bound_kernels = [], [], []
    for name in ("_mit_kernels", "_largemass_kernels", "_robin_kernels"):
        original = getattr(dirac_ball, name)

        def factory(p, sector, _original=original, _name=name):
            bound_kernels.append((_name, p, sector))
            return _original(p, sector)

        monkeypatch.setattr(dirac_ball, name, factory)
    scan, samples = dirac_ball._scan_roots, dirac_ball._interior_samples

    def scanning(kernels, lo, hi, step, count, tol, *pooled):
        # Each scan binds its kernels just before it starts.
        scans.append((*bound_kernels.pop(), tol))
        return scan(kernels, lo, hi, step, count, tol, *pooled)

    def sampling(*args):
        sampled.append(args)
        return samples(*args)

    monkeypatch.setattr(dirac_ball, "_scan_roots", scanning)
    monkeypatch.setattr(dirac_ball, "_interior_samples", sampling)
    return scans, sampled


def test_suite_all_solves_the_bag_ground_once(tmp_path, monkeypatch):
    # The run memo holds every branch scan of a run: under suite=all no
    # (kernel, p, sector, tol) is scanned twice, the bag ground sector is
    # scanned once, both branches in lockstep, and serves its charge
    # conjugate, no eigenpair is built twice, and no eigenfunction is
    # sampled twice on one grid.  A second run scans everything again.
    scans, sampled = _spy_scans(monkeypatch)
    pairs = []
    for name in ("mit_eigenpair", "robin_eigenpair"):
        original = getattr(suites, name)

        def spy(p, sector, energy, _original=original, _name=name):
            pairs.append((_name, p, sector, energy))
            return _original(p, sector, energy)

        monkeypatch.setattr(suites, name, spy)
    config = SuiteConfig(suite="all", output_path=str(tmp_path / "r.csv"))
    report = run_suite(config)
    assert report.passed
    assert pairs and len(set(pairs)) == len(pairs)
    assert sampled and len(set(sampled)) == len(sampled)
    assert len(set(scans)) == len(scans)
    p, tol = DiracParams(R=1.0), config.tolerances
    # The kj=+1 branches are the charge conjugates of the kj=-1 ones.
    ground = [scan for scan in scans if scan[:2] == ("_mit_kernels", p) and abs(scan[2].kappa_j) == 1]
    assert ground == [("_mit_kernels", p, suites.GROUND_SECTOR, tol)]
    # Bag: kj=-2 and kj=-1 at R (the symmetry solve), the ground sector at
    # 2R; large-mass: the four symmetry sectors at m = 100, the ground sector
    # at the nine other masses; Robin: one branch per solve.
    assert Counter(name for name, *_ in scans) == {
        "_mit_kernels": 3,
        "_largemass_kernels": 13,
        "_robin_kernels": 15,
    }
    first, first_sampled = list(scans), list(sampled)
    scans.clear()
    sampled.clear()
    run_suite(config)
    assert scans == first and sampled == first_sampled


# Imports mitbag.cli and runs the pinned verify in a fresh interpreter, then
# prints the scipy modules loaded and the modules run_suite imported.
START_UP_PROBE = """
import json, sys
import numpy
from mitbag.cli import config_from_dict, run_suite
config = config_from_dict({
    "suite": "all", "geometry": {"variant": "ball_interior", "R": 1.0},
    "output_path": sys.argv[1], "seed": 0,
})
loaded = set(sys.modules)
report = run_suite(config)
print(json.dumps({
    "passed": report.passed,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy.random": "numpy.random" in sys.modules,
    "new": sorted(set(sys.modules) - loaded),
}))
"""


def test_verify_starts_without_scipy(tmp_path):
    # Each benchmarked verify runs in a fresh process: scipy would cost most
    # of its start-up, and a module first imported inside run_suite would be
    # paid in every run rather than once at start-up.  The seeded draws use
    # the standard library's generator: importing numpy.random (and the
    # OpenSSL library it pulls in) raises a verify process's peak RSS by
    # about 6 MiB, for 23 numbers.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", START_UP_PROBE, str(tmp_path / "report.csv")],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(out.stdout)
    assert probe == {"passed": True, "scipy": [], "numpy.random": False, "new": []}


def test_import_loads_no_numpy_polynomial(tmp_path):
    # The Gauss rules are tabulated: no process imports numpy.polynomial or
    # solves the eigenproblem behind leggauss.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    probe = "import sys, mitbag.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, cwd=tmp_path, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


class TestMainExitCodes:
    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.json")]) == 2

    def test_invalid_m_grid_flag(self, tmp_path):
        path = write_config(tmp_path)
        assert main([path, "--m-grid", "10,abc"]) == 2

    def test_empty_m_grid_in_file(self, tmp_path):
        path = write_config(tmp_path, m_grid=[])
        assert main([path]) == 2

    def test_exterior_suite_exit_zero(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "asserted checks passed" in out

    def test_check_failure_exit_one(self, tmp_path, monkeypatch):
        def failing_suite(config):
            record = CheckRecord("demo.fail", "abs", 0.0, 1.0, 0.0, "closed-form")
            return [record], {}

        monkeypatch.setitem(cli._SUITE_RUNNERS, "exterior", failing_suite)
        path = write_config(tmp_path)
        assert main([path]) == 1

    def test_numeric_error_exit_three(self, tmp_path, monkeypatch):
        def broken_suite(config):
            raise NumericsError("synthetic failure")

        monkeypatch.setitem(cli._SUITE_RUNNERS, "exterior", broken_suite)
        path = write_config(tmp_path)
        assert main([path]) == 3

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({}, ["--m-grid", "1e153,1e154,1e155"]),  # OverflowError in the flat closed-form gap
            ({}, ["--m-grid", "1e-302,1e-301,1e-300"]),  # special.BesselOverflowError
            ({"geometry": {"variant": "ball_interior", "R": 1e-100}}, []),  # special.BesselOverflowError
        ],
    )
    def test_overflow_is_numeric_error(self, tmp_path, capsys, overrides, flags):
        assert main([write_config(tmp_path, **overrides), *flags]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric error:") and "Traceback" not in err

    @pytest.mark.parametrize("suite", ("all", "transverse"))
    def test_mass_whose_square_underflows_is_config_error(self, tmp_path, capsys, suite):
        # The collar-weight bound that validates the transverse grid divides
        # by m * m, which is 0 at these masses.
        path = write_config(tmp_path, suite=suite)
        assert main([path, "--m-grid", "1e-300,1e-299,1e-298,1e-297"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_transverse_interval_cap_is_config_error(self, tmp_path, capsys):
        # A mass whose cube (the expansion envelopes) or square (the collar
        # weight) overflows: the config is refused before any suite runs.
        path = write_config(tmp_path)
        for top in ("1e110", "1e155"):
            assert main([path, "--suite", "transverse", "--m-grid", f"25,100,400,1600,{top}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "overflows" in err and "Traceback" not in err
            assert not (tmp_path / "report.csv").exists()

    def test_non_finite_curvature_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, suite="transverse", curvature_grid=[[math.inf, 0.0]])
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: curvature_grid entries must be finite") and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_curvature_pair_below_three_valid_masses_is_config_error(self, tmp_path, capsys):
        # kappa = 100 leaves the collar weight below 1/2 at every mass of
        # the default grid, so the pair would have no row to check it.
        path = write_config(tmp_path, suite="transverse", curvature_grid=[[1.0, 0.0], [100.0, 0.0]])
        assert main([path]) == 2
        err = capsys.readouterr().err
        assert "curvature pair [100.0, 0.0] is valid only at the masses []" in err and "Traceback" not in err
        # One valid mass short of the fit: kappa = 3, K = -2 is valid from m = 100 on.
        path = write_config(tmp_path, suite="all", curvature_grid=[[3.0, -2.0]])
        assert main([path, "--m-grid", "25,100,400"]) == 2
        assert "curvature pair [3.0, -2.0] is valid only at the masses [100.0, 400.0]" in capsys.readouterr().err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("suite", ("dirac", "robin", "all"))
    def test_three_masses_for_the_slope_fits_is_config_error(self, tmp_path, capsys, suite):
        path = write_config(tmp_path, suite=suite)
        assert main([path, "--m-grid", "100,1000,10000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: m_grid has 3 masses") and "at least 4" in err
        assert not (tmp_path / "report.csv").exists()

    def test_exterior_needs_three_masses(self, tmp_path, capsys):
        # With one mass the rate rows compare a value with itself and can
        # only fail; with two the sandwich bound is fitted on every mass it
        # checks and cannot fail.
        path = write_config(tmp_path)
        for grid in ("100", "100,1000"):
            assert main([path, "--m-grid", grid]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: m_grid has") and "at least 3" in err and "Traceback" not in err
            assert not (tmp_path / "report.csv").exists()
        assert main([path, "--m-grid", "100,1000,10000"]) == 0

    @pytest.mark.parametrize("suite", ("exterior", "transverse"))
    def test_three_masses_suffice_without_slope_fits(self, tmp_path, suite):
        path = write_config(tmp_path, suite=suite)
        assert main([path, "--m-grid", "100,1000,10000"]) == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"seed": -1},
            {"seed": 1.7},
            {"seed": True},
            {"tolerances": {"max_iter": 2.5}},
            {"tolerances": {"max_iter": 1e400}},
            {"tolerances": {"bogus": 1}},
        ],
        ids=["seed=-1", "seed=1.7", "seed=true", "max_iter=2.5", "max_iter=1e400", "tolerances-unknown-key"],
    )
    def test_config_integers_and_tolerance_keys(self, tmp_path, capsys, overrides):
        assert main([write_config(tmp_path, **overrides)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"tolerances": {"rel_tol": True}},
            {"tolerances": {"rel_tol": "1e-10"}},
            {"geometry": {"variant": "ball_interior", "R": True}},
            {"geometry": {"variant": "ball_interior", "R": "2"}},
            {"geometry": {"variant": "ball_interior", "R": 10**400}},
            {"curvature_grid": [[True, 0]]},
            {"output_path": 5},
            {"m_grid": [True, 2, 3, 4]},
            {"m_grid": "1234"},
        ],
        ids=["rel_tol=true", "rel_tol=str", "R=true", "R=str", "R=huge-int", "curvature=true", "output_path=5",
             "m_grid=true", "m_grid=str"],
    )
    def test_wrongly_typed_field_is_config_error(self, tmp_path, capsys, monkeypatch, overrides):
        # A bool is not a number and a number is not a string, though Python
        # would convert either; a string is not a list of masses.
        monkeypatch.chdir(tmp_path)
        document = {"suite": "exterior", "output_path": "report.csv", **overrides}
        (tmp_path / "config.json").write_text(json.dumps(document))
        assert main(["config.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "override.json"
        path = write_config(tmp_path)
        assert main([path, "--format", "json", "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["records"]

    @pytest.mark.parametrize(
        "flags, overrides",
        [(["--tol", tol], {}) for tol in ("-1", "0", "nan", "inf")]
        + [([], {"tolerances": {"rel_tol": math.inf}})],
        ids=["tol=-1", "tol=0", "tol=nan", "tol=inf", "file-rel_tol=Infinity"],
    )
    def test_invalid_tolerance_is_config_error(self, tmp_path, flags, overrides):
        assert main([write_config(tmp_path, **overrides), *flags]) == 2

    def test_tol_flag_keeps_max_iter_and_zeroes_abs_tol(self, tmp_path):
        out = tmp_path / "tol.json"
        path = write_config(tmp_path, tolerances={"abs_tol": 1e-3, "rel_tol": 1e-10, "max_iter": 77})
        assert main([path, "--tol", "1e-13", "--format", "json", "--out", str(out)]) == 0
        summary = dict(parse_report_json(out.read_bytes()).summary)
        assert (summary["solver_abs_tol"], summary["solver_rel_tol"], summary["solver_max_iter"]) == (0.0, 1e-13, 77)

    def test_loose_solver_tolerance_is_in_the_summary(self, tmp_path):
        # At rel_tol 1e-6 the Robin eigen-solves are too coarse for the exact
        # boundary identity; the summary shows the tolerance behind it.
        out = tmp_path / "loose.json"
        path = write_config(tmp_path)
        assert main([path, "--suite", "robin", "--tol", "1e-6", "--format", "json", "--out", str(out)]) == 1
        report = parse_report_json(out.read_bytes())
        assert dict(report.summary)["solver_rel_tol"] == 1e-6
        failing = [r.check_id for r in report.records if r.asserted and not r.passed]
        assert failing == ["robin.identity", "robin.identity"]

    @pytest.mark.parametrize("suite", ("exterior", "dirac", "robin", "all"))
    def test_ball_suite_on_flat_geometry_is_config_error(self, tmp_path, capsys, suite):
        # The flat geometry, and every other block the suites would not
        # read, is refused under each suite, the transverse one included.
        for geometry in (
            {"variant": "flat_torus_halfspace", "period": 3.0},
            {"variant": "ball_exterior", "R": 2.0},
            {"variant": "ball_interior", "R": 1.0, "extra": 1},
            3,
        ):
            for config_suite, flags in ((suite, []), ("transverse", []), ("transverse", ["--suite", suite])):
                path = write_config(tmp_path, suite=config_suite, geometry=geometry)
                assert main([path, *flags]) == 2
                err = capsys.readouterr().err
                assert err.startswith("config error: geometry must be {") and "Traceback" not in err
        assert not (tmp_path / "report.csv").exists()

    def test_unwritable_output(self, tmp_path):
        path = write_config(tmp_path, output_path=str(tmp_path / "nodir" / "r.csv"))
        assert main([path]) == 2
