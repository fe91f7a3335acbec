"""The benchmark tracer (perfbench/tracer.py) wraps mitbag functions by name.

Installing it here makes a renamed or removed traced function fail the unit
tests, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import mitbag.cli as cli
import mitbag.dirac_ball as dirac_ball
import mitbag.suites as suites
from mitbag.cli import config_from_dict, run_suite

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def _bindings():
    """Every module-level binding of every loaded mitbag module."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "mitbag" or name.startswith("mitbag.")
        for attr, value in vars(module).items()
    }


def test_tracer_installs_and_uninstalls():
    tracer_module = _tracer_module()
    before = _bindings()
    original = dirac_ball.mit_eigenvalues
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert suites.mit_eigenvalues is not original
        assert dirac_ball.mit_eigenvalues is suites.mit_eigenvalues
    finally:
        tracer.uninstall()
        assert suites.mit_eigenvalues is dirac_ball.mit_eigenvalues is original
        assert cli._SUITE_RUNNERS["dirac"] is cli.run_dirac_suite
        assert _bindings() == before


def test_traced_suite_all_counts_every_suite_layer(tmp_path):
    # The suites live in mitbag.suites and cli re-imports them; the tracer
    # rebinds every alias, so each suite, the four sweeps of _pmap (35 items)
    # and the one stacked transverse solve are counted.  A suite that called
    # a captured alias (a default argument, a closure) would read 0 here.
    config = config_from_dict(
        {
            "suite": "all",
            "geometry": {"variant": "ball_interior", "R": 1.0},
            "output_path": str(tmp_path / "report.csv"),
        }
    )
    before = _bindings()
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        run_suite(config)
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    assert {suite: totals[f"cli.suite.{suite}.calls"] for suite in ("transverse", "exterior", "dirac", "robin")} == {
        "transverse": 1,
        "exterior": 1,
        "dirac": 1,
        "robin": 1,
    }
    assert totals["cli.pmap.calls"] == 4
    assert totals["cli.pmap.items"] == 35
    assert totals["transverse.solve.calls"] == 1
    assert _bindings() == before
