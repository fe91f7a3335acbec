"""The benchmark tracer (perfbench/tracer.py) wraps mitbag functions by name.

Installing it here makes a renamed or removed traced function fail the unit
tests, not only a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import mitbag.cli as cli
import mitbag.dirac_ball as dirac_ball

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _bindings():
    """Every module-level binding of every loaded mitbag module."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "mitbag" or name.startswith("mitbag.")
        for attr, value in vars(module).items()
    }


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = _bindings()
    original = dirac_ball.mit_eigenvalues
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert cli.mit_eigenvalues is not original
        assert dirac_ball.mit_eigenvalues is cli.mit_eigenvalues
    finally:
        tracer.uninstall()
        assert cli.mit_eigenvalues is dirac_ball.mit_eigenvalues is original
        assert cli._SUITE_RUNNERS["dirac"] is cli.run_dirac_suite
        assert _bindings() == before
