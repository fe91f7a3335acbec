"""Time two source trees against each other: seeded ``spectra`` passes in
one process, and fresh-process ``verify --suite all`` runs, alternating
between the trees.

Usage:

    python scripts/ab_spectra.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  Each
tree's package is imported under its own name (its modules import each other
relatively), and the base tree a second time under a third name, for an A/A
control.  A pass runs the exterior, dirac and robin suites on one ball
radius with one config seed, JSON reports to a temporary directory, as the
``spectra`` benchmark workload does; the passes are those of the
benchmark's seed 901, drawn by ``report_digests.seeded_passes``.  Each of
the 600 pairs runs one pass on all three sides, in an order that rotates
with the pair, after one warm-up pass each.

The second arm times one ``run_suite`` of suite ``all`` on the unit ball
(CSV, config seed 0), as the ``verify_all`` benchmark workload does, each in
a fresh Python process that imports the package from BASE_SRC, from
HEAD_SRC or from a copy of BASE_SRC in a temporary directory (the A/A
control).  Each of the 60 rounds runs all three, in an order that rotates
with the round, after one warm-up run each; the time is taken in the child
around ``run_suite`` alone, so the interpreter start and the imports are
not in it.

For each arm the script prints each side's median time, the median over the
pairs of head time over base time and the share of pairs in which head was
faster, and the same for the A/A control (the copy of base against base),
whose ratio shows how far the setting alone moves a pair.  Timing two trees
in one process side by side cancels the slow drift of a shared machine's
speed, which moves fresh-process runs by several percent; the fresh-process
arm alternates its runs for the same reason, and its A/A ratio reads how
much of that drift is left.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from report_digests import SUITES, seeded_passes

PAIRS = 600
SEED = 901
ROUNDS = 60

# One timed run_suite of the verify_all workload's config in a fresh process;
# argv[1] is the report path.  Prints the seconds.
VERIFY_ALL = """
import sys, time
from mitbag.cli import config_from_dict, run_suite
config = config_from_dict({"suite": "all", "geometry": {"variant": "ball_interior", "R": 1.0},
                           "format": "csv", "seed": 0, "output_path": sys.argv[1]})
start = time.perf_counter()
run_suite(config)
print(time.perf_counter() - start)
"""


def load_cli(src: Path, name: str):
    """The ``cli`` module of the package ``src/mitbag``, imported as the
    package ``name``."""
    init = src / "mitbag" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no package at {init}")
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, radius: float, seed: int, out: str) -> float:
    """Seconds spent in the three ``run_suite`` calls of one pass."""
    configs = [cli.config_from_dict({
        "suite": suite,
        "geometry": {"variant": "ball_interior", "R": radius},
        "seed": seed,
        "format": "json",
        "output_path": out,
    }) for suite in SUITES]
    seconds = 0.0
    for config in configs:
        start = time.perf_counter()
        cli.run_suite(config)
        seconds += time.perf_counter() - start
    return seconds


def run_verify_all(src: Path, out: str) -> float:
    """Seconds of one ``run_suite`` of suite ``all`` in a fresh process that
    imports the package from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-c", VERIFY_ALL, out], env=env, capture_output=True, text=True,
                           check=True)
    return float(child.stdout)


def summary(label: str, times: list[float], base: list[float]) -> str:
    ratios = [t / b for t, b in zip(times, base)]
    wins = sum(r < 1.0 for r in ratios)
    return (f"{label}: median pairwise ratio {statistics.median(ratios):.4f}, "
            f"faster in {wins} of {len(ratios)} pairs ({wins / len(ratios):.1%})")


def report(arm: str, names: list[str], times: dict[str, list[float]], unit: str) -> None:
    for name in names:
        print(f"{name}: median {statistics.median(times[name]) * 1e3:.3f} ms per {unit}")
    print(summary(f"{arm} head/base", times["head"], times["base"]))
    print(summary(f"{arm} A/A, base copy/base", times["base copy"], times["base"]))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path)
    parser.add_argument("head_src", type=Path)
    args = parser.parse_args()
    sides = {
        "base": load_cli(args.base_src, "mitbag_ab_base"),
        "head": load_cli(args.head_src, "mitbag_ab_head"),
        "base copy": load_cli(args.base_src, "mitbag_ab_base_copy"),
    }
    names = list(sides)
    passes = seeded_passes(SEED, PAIRS + 1)
    times: dict[str, list[float]] = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        outs = {name: str(Path(tmp) / f"{index}.json") for index, name in enumerate(names)}
        for name in names:
            run_pass(sides[name], *passes[0], outs[name])
        for i in range(PAIRS):
            radius, seed = passes[1 + i]
            for name in names[i % 3:] + names[:i % 3]:
                times[name].append(run_pass(sides[name], radius, seed, outs[name]))
    print(f"{PAIRS} pairs of spectra passes (seed {SEED}), base {args.base_src}, head {args.head_src}")
    report("spectra", names, times, "pass")

    times = {name: [] for name in names}
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "base-copy-src"
        shutil.copytree(args.base_src, copy, ignore=shutil.ignore_patterns("__pycache__"))
        trees = {"base": args.base_src.resolve(), "head": args.head_src.resolve(), "base copy": copy}
        outs = {name: str(Path(tmp) / f"{index}.csv") for index, name in enumerate(names)}
        for name in names:
            run_verify_all(trees[name], outs[name])
        for i in range(ROUNDS):
            for name in names[i % 3:] + names[:i % 3]:
                times[name].append(run_verify_all(trees[name], outs[name]))
    print(f"{ROUNDS} rounds of fresh-process verify --suite all runs (R = 1), base {args.base_src}, "
          f"head {args.head_src}")
    report("verify_all", names, times, "run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
