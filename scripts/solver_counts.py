"""Print deterministic solver counts of the seeded ``spectra`` passes.

Usage:

    PYTHONPATH=src python scripts/solver_counts.py

The passes are the first 16 of each ``spectra`` benchmark seed that
``report_digests.py`` builds (ball radius and config seed); each pass runs
the exterior, dirac and robin suites, one ``run_suite`` each.  For every
pass and eigen-solver (bag, large-mass, Robin) the script counts:

* ``walks``: calls of the scan driver ``dirac_ball._scan_roots``, one per
  solve that walks (a solve the run's records answer walks nothing);
* ``grid``: Bessel-pair evaluations at scan points, each one call of a
  sector's pair kernel.  The walks of one sector in a run share its scan
  grid, so each pair is counted once, credited to the operator whose walk
  first needs it;
* ``polishes``: Newton polishes (``find_root_bracketed`` calls);
* ``slopes``: value-and-slope evaluations, each one Newton step.

The counts depend only on the code path, not on timing, so two checkouts
can be compared from one run each: a change that does less work prints
smaller numbers.  The spies wrap the kernel factories, the scan driver and
the root finder by name, and read the kernels as ``(at, values,
value_slopes)``, whose ``at`` evaluates the Bessel pair at a scan point.
This script counts another checkout's package with

    PYTHONPATH=path/to/other/src python scripts/solver_counts.py
"""

from __future__ import annotations

import sys
import tempfile
from collections import Counter
from pathlib import Path

import mitbag.dirac_ball as dirac_ball
from mitbag.cli import config_from_dict, run_suite

sys.path.insert(0, str(Path(__file__).resolve().parent))
from report_digests import PASSES, SEEDS, SUITES, seeded_passes  # noqa: E402

OPERATORS = {"_mit_kernels": "mit", "_largemass_kernels": "largemass", "_robin_kernels": "robin"}
FIELDS = ("walks", "grid", "polishes", "slopes")


def install(counts: Counter) -> None:
    """Wrap the kernel factories, the scan driver and the root finder of
    ``dirac_ball`` so that every call adds to ``counts[(operator, field)]``."""
    for name, operator in OPERATORS.items():
        factory = getattr(dirac_ball, name)

        def counted_factory(*args, _factory=factory, _operator=operator):
            at, values, value_slopes = _factory(*args)

            def counted_at(x):
                counts[_operator, "grid"] += 1
                return at(x)

            def counting(value_slope):
                def counted_value_slope(x):
                    counts[_operator, "slopes"] += 1
                    return value_slope(x)

                counted_value_slope.operator = _operator
                return counted_value_slope

            counted_at.operator = _operator
            return counted_at, values, tuple(counting(vs) for vs in value_slopes)

        setattr(dirac_ball, name, counted_factory)

    scan = dirac_ball._scan_roots

    def counted_scan(kernels, *args, **kwargs):
        counts[kernels[0].operator, "walks"] += 1
        return scan(kernels, *args, **kwargs)

    polish = dirac_ball.find_root_bracketed

    def counted_polish(f, *args, **kwargs):
        counts[f.operator, "polishes"] += 1
        return polish(f, *args, **kwargs)

    dirac_ball._scan_roots = counted_scan
    dirac_ball.find_root_bracketed = counted_polish


def line(label: str, counts: Counter) -> str:
    return label + "  " + "  ".join(
        f"{operator} " + " ".join(f"{field}={counts[operator, field]}" for field in FIELDS)
        for operator in OPERATORS.values()
    )


def main() -> int:
    counts: Counter = Counter()
    install(counts)
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "report.json")
        for seed in SEEDS:
            total: Counter = Counter()
            for index, (radius, config_seed) in enumerate(seeded_passes(seed, PASSES)):
                counts.clear()
                for suite in SUITES:
                    run_suite(config_from_dict({
                        "suite": suite,
                        "geometry": {"variant": "ball_interior", "R": radius},
                        "seed": config_seed,
                        "format": "json",
                        "output_path": out,
                    }))
                print(line(f"seed {seed} pass {index:2d} R={radius!r}", counts))
                total.update(counts)
            print(line(f"seed {seed} total of {PASSES} passes", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
