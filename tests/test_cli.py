"""Configuration handling, report serialization, determinism, exit codes."""

import json
import math

import pytest

import mitbag.cli as cli
from mitbag.cli import ConfigError, SuiteConfig, config_from_dict, load_config, main, run_suite
from mitbag.numerics import NumericsError
from mitbag.report import (
    CSV_COLUMNS,
    CheckRecord,
    Report,
    emit_table,
    parse_report_json,
    write_report_atomic,
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

    def test_geometry_variants(self):
        config = config_from_dict({"geometry": {"variant": "ball_exterior", "R": 2.0}})
        assert config.geometry.R == 2.0
        flat = {"variant": "flat_torus_halfspace", "period": 3.0}
        config = config_from_dict({"suite": "transverse", "geometry": flat})
        assert config.geometry.period == 3.0
        # The exterior, dirac and robin suites run on a ball only.
        with pytest.raises(ConfigError):
            config_from_dict({"geometry": flat})
        with pytest.raises(ConfigError):
            config_from_dict({"geometry": {"variant": "cube", "R": 1.0}})

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

    def test_transverse_interval_cap_exit_three(self, tmp_path):
        # sqrt(400000) = 632.5 exceeds the supported collar length of 600.
        path = write_config(tmp_path)
        assert main([path, "--suite", "transverse", "--m-grid", "25,100,400,1600,400000"]) == 3

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "override.json"
        path = write_config(tmp_path)
        assert main([path, "--format", "json", "--out", str(out)]) == 0
        parsed = json.loads(out.read_text())
        assert parsed["records"]

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
    def test_ball_suite_on_flat_geometry_is_config_error(self, tmp_path, suite):
        geometry = {"variant": "flat_torus_halfspace", "period": 3.0}
        path = write_config(tmp_path, suite=suite, geometry=geometry)
        assert main([path]) == 2
        path = write_config(tmp_path, suite="transverse", geometry=geometry)
        assert main([path, "--suite", suite]) == 2

    def test_unwritable_output(self, tmp_path):
        path = write_config(tmp_path, output_path=str(tmp_path / "nodir" / "r.csv"))
        assert main([path]) == 2
