"""Benchmark of the mitbag ``verify`` product, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record of each run (machine, inputs, samples, report digests) is written to
``.perfbench/runs/`` and spans of traced runs to ``.perfbench/traces/``.
Workloads, metrics and predictions are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Ball radii of the spectra workload: 1024 fixed values in [0.5, 3], on each
# of which every asserted exterior/dirac/robin check passes.
RADII = tuple(0.5 + 2.5 * k / 1023 for k in range(1024))

SETUP_PROBES = 5  # set-up-only processes per untraced run, besides the workload's own
MIN_VERIFY_ITERATIONS = 3
MIN_SPECTRA_PASSES = 20
TRACED_SPECTRA_PASSES = 8  # one traced spectra unit; fixed so counters repeat
# Every worker is stopped RUN_MARGIN_S after the measuring time ends: time
# for the unit that began just before the end, on the slower CPU state.
RUN_MARGIN_S = 60.0

# Times are scaled to a CPU on which the worker's calibration kernel takes
# CAL_REF_S (its time on an unloaded 2-core Xeon VM).  A shared 2-core Xeon
# VM switches between two speeds ~1.7x apart for minutes at a time, which
# moved unscaled medians by up to half their value from run to run; the
# kernel, timed next to each unit of work, follows those switches.  Unscaled
# times are kept in the run record.
CAL_REF_S = 0.0035
CAL_INTERVAL_S = 0.5


@dataclass(frozen=True)
class Workload:
    mode: str  # "verify": one run_suite per fresh process; "spectra": passes in one process
    threads: int  # VERIFY_THREADS for the program
    min_checks: int  # asserted checks per unit (iteration or pass) at least


# verify_all_threads is not in BENCHMARK.json: on a shared 2-core host its
# run-to-run spread exceeded the largest allowed bound (see README.md).  It
# stays runnable by hand and in selfcheck.py.
WORKLOADS = {
    "verify_all": Workload("verify", 1, 104),
    "verify_all_threads": Workload("verify", 2, 104),
    "spectra": Workload("spectra", 1, 72),
}

END_TO_END = {
    "setup_s": "s",
    "iter_s": "s",
    "peak_rss_mib": "MiB",
    "check_pass_ratio": "ratio",
    "checks_asserted": "count",
}

# Per-layer metric -> unit.  Values are per unit of work: one run_suite
# iteration for verify_*, one three-suite pass for spectra.
PER_LAYER = {
    "transverse.solve.calls": "count",
    "transverse.solve.self_s": "s",
    "numerics.shooting.calls": "count",
    "numerics.shooting.self_s": "s",
    "numerics.ode.calls": "count",
    "numerics.ode.self_s": "s",
    "numerics.ode.rhs_evals": "count",
    "numerics.ode.steps": "count",
    "transverse.form.self_s": "s",
    "transverse.residual.self_s": "s",
    "special.j.calls": "count",
    "special.j.self_s": "s",
    "special.k.calls": "count",
    "special.k.self_s": "s",
    "numerics.brent.calls": "count",
    "numerics.brent.self_s": "s",
    "numerics.brent.f_evals": "count",
    "numerics.brent.f_evals_per_root": "ratio",
    "numerics.quad.nodes": "count",
    "dirac_ball.mit.calls": "count",
    "dirac_ball.mit.self_s": "s",
    "dirac_ball.largemass.calls": "count",
    "dirac_ball.largemass.self_s": "s",
    "dirac_ball.robin.calls": "count",
    "dirac_ball.robin.self_s": "s",
    "dirac_ball.eigenpair.self_s": "s",
    "dirac_ball.solve.distinct_ratio": "ratio",
    "exterior.energy.calls": "count",
    "exterior.energy.self_s": "s",
    "exterior.agmon.calls": "count",
    "exterior.agmon.self_s": "s",
    "cli.suite.transverse_s": "s",
    "cli.suite.exterior_s": "s",
    "cli.suite.dirac_s": "s",
    "cli.suite.robin_s": "s",
    "cli.pmap.calls": "count",
    "cli.pmap.items": "count",
    "report.emit.self_s": "s",
    "report.write.self_s": "s",
    "report.bytes": "bytes",
    "trace.iter_s": "s",
    "trace.overhead_s": "s",
    "wall.iter_s": "s",
    "wall.setup_s": "s",
    "cpu.slowdown": "ratio",
}

# Tracer totals summed per unit of work, by per-layer metric name.
_PER_UNIT_TOTALS = {
    "cli.suite.transverse_s": "cli.suite.transverse.total_s",
    "cli.suite.exterior_s": "cli.suite.exterior.total_s",
    "cli.suite.dirac_s": "cli.suite.dirac.total_s",
    "cli.suite.robin_s": "cli.suite.robin.total_s",
}


class WorkerError(RuntimeError):
    """A benchmark process exited without a result."""


def _run_worker(job: dict, threads: int, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its result and spawn time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["VERIFY_THREADS"] = str(threads)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{job['mode']} worker exceeded the run time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{job['mode']} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1]), spawned


def _jobs(workload: Workload, seed: int, workdir: Path) -> tuple[dict, list]:
    """The workload's inputs, generated from the seed only."""
    if workload.mode == "verify":
        config = {
            "suite": "all",
            "geometry": {"variant": "ball_interior", "R": 1.0},
            "output_path": str(workdir / "report.csv"),
            "format": "csv",
            "seed": seed % 2**32,
        }
        return config, []
    rng = random.Random(seed)
    passes = [[RADII[k], rng.randrange(2**32)] for k in rng.sample(range(len(RADII)), len(RADII))]
    config = {
        "suite": "exterior",
        "geometry": {"variant": "ball_interior", "R": passes[0][0]},
        "output_path": str(workdir / "report.json"),
        "format": "json",
        "seed": passes[0][1],
    }
    return config, passes


@dataclass
class Samples:
    setup_s: list[float] = field(default_factory=list)  # scaled to CAL_REF_S
    setup_wall_s: list[float] = field(default_factory=list)
    units: list[dict] = field(default_factory=list)  # worker results: seconds, calibration, passed, ...
    rss_kib: list[int] = field(default_factory=list)
    traced_units: list[dict] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    spans: int = 0


def _scaled(unit: dict) -> float:
    """Seconds of a unit of work at the reference CPU speed."""
    return unit["seconds"] * CAL_REF_S / unit["calibration"]


def _measure(name: str, workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Samples:
    start = time.monotonic()
    deadline = start + seconds
    limit = deadline + RUN_MARGIN_S
    config, passes = _jobs(workload, seed, workdir)
    base = {
        "config": config,
        "trace": False,
        "passes": passes[1:],
        "warmup": passes[0] if passes else None,
        # Calibrate every second inside a unit, except while pool threads
        # would hold the interpreter lock against the probe.
        "sample_s": CAL_INTERVAL_S if workload.threads == 1 else None,
    }
    samples = Samples()

    def worker(job: dict) -> dict:
        result, spawned = _run_worker({**base, **job}, workload.threads, limit)
        samples.setup_wall_s.append(result["ready"] - spawned)
        samples.setup_s.append((result["ready"] - spawned) * CAL_REF_S / result["setup_calibration"])
        return result

    # The first process of a fresh checkout also compiles bytecode: not a sample.
    _run_worker({**base, "mode": "setup"}, workload.threads, limit)
    if not trace:
        for _ in range(SETUP_PROBES):
            worker({"mode": "setup"})
        if workload.mode == "verify":
            while len(samples.units) < MIN_VERIFY_ITERATIONS or time.monotonic() < deadline:
                result = worker({"mode": "verify"})
                samples.units += result["units"]
                samples.rss_kib.append(result["peak_rss_kib"])
        else:
            result = worker({"mode": "spectra", "deadline": deadline, "min_passes": MIN_SPECTRA_PASSES})
            samples.units += result["units"]
            samples.rss_kib.append(result["peak_rss_kib"])
        return samples

    # Traced run: pairs of an untraced and a traced unit, each in a fresh
    # process, so the overhead compares like with like.  Another pair starts
    # only if one more is expected to end before the deadline.
    traces_dir = OUT / "traces"
    traces_dir.mkdir(parents=True, exist_ok=True)
    unit_job = {"mode": workload.mode, "deadline": None, "min_passes": TRACED_SPECTRA_PASSES}
    pair_s = 0.0
    while not samples.traced_units or time.monotonic() + pair_s < deadline:
        pair_start = time.monotonic()
        samples.units += worker(unit_job)["units"]
        # Spans of the first traced unit only: later pairs repeat the same work.
        trace_path = None if samples.traces else str(traces_dir / f"{name}-seed{seed}.csv.gz")
        result = worker({**unit_job, "trace": True, "trace_path": trace_path})
        samples.traced_units += result["units"]
        calibrations = [u["calibration"] for u in result["units"]]
        scale = CAL_REF_S * sum(1.0 / c for c in calibrations) / len(calibrations)
        samples.traces.append({k: v * scale if k.endswith("_s") else v for k, v in result["trace"].items()})
        samples.spans += result["spans"]
        pair_s = time.monotonic() - pair_start
    return samples


def _verdict(workload: Workload, units: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over asserted checks of every unit.

    A unit that raised counts all its checks as failed; a unit that asserts
    fewer checks than the workload has counts the missing ones as failed.
    Any failed check is a problem, so it makes the run incorrect.
    """
    attempted = failed = 0
    problems: list[str] = []
    for i, unit in enumerate(units):
        if "error" in unit:
            attempted += workload.min_checks
            failed += workload.min_checks
            problems.append(f"unit {i}: {unit['error']}")
            continue
        expected = max(unit["asserted"], workload.min_checks)
        attempted += expected
        failed += expected - unit["passed"]
        if unit["asserted"] < workload.min_checks:
            problems.append(f"unit {i}: {unit['asserted']} asserted checks, expected {workload.min_checks}")
        if unit["passed"] < unit["asserted"]:
            problems.append(
                f"unit {i}: {unit['asserted'] - unit['passed']} of {unit['asserted']} asserted checks failed:"
                f" {', '.join(unit['failing'])}"
            )
        problems += [f"unit {i}: {p}" for p in unit["problems"]]
    return attempted, failed, problems


def _end_to_end(samples: Samples, attempted: int, failed: int) -> dict[str, float]:
    ok = [u for u in samples.units if "error" not in u]
    return {
        "setup_s": statistics.median(samples.setup_s),
        "iter_s": statistics.median(_scaled(u) for u in samples.units),
        "peak_rss_mib": statistics.median(samples.rss_kib) / 1024.0,
        "check_pass_ratio": 1.0 - failed / attempted,
        "checks_asserted": float(statistics.median(u["asserted"] for u in ok)) if ok else 0.0,
    }


def _per_layer(samples: Samples) -> dict[str, float]:
    units = len(samples.traced_units)
    totals: dict[str, float] = {}
    for trace in samples.traces:
        for key, value in trace.items():
            totals[key] = totals.get(key, 0) + value
    out = {}
    for name in PER_LAYER:
        key = _PER_UNIT_TOTALS.get(name, name)
        if key in totals:
            out[name] = totals[key] / units
    brent_calls = totals.get("numerics.brent.calls", 0)
    out["numerics.brent.f_evals_per_root"] = totals.get("numerics.brent.f_evals", 0) / brent_calls if brent_calls else 0.0
    solve_calls = totals.get("dirac_ball.solve.calls", 0)
    out["dirac_ball.solve.distinct_ratio"] = totals.get("dirac_ball.solve.distinct", 0) / solve_calls if solve_calls else 0.0
    traced = statistics.median(_scaled(u) for u in samples.traced_units)
    out["trace.iter_s"] = traced
    out["trace.overhead_s"] = traced - statistics.median(_scaled(u) for u in samples.units)
    out.update(_unscaled(samples))
    return {name: float(out.get(name, 0.0)) for name in PER_LAYER}


def _unscaled(samples: Samples) -> dict[str, float]:
    """Medians of the untraced units and set-ups as measured, and the CPU
    state they ran in: kernel time over CAL_REF_S (about 1 on the faster
    state, 1.7 to 2 on the slower)."""
    return {
        "wall.iter_s": statistics.median(u["seconds"] for u in samples.units),
        "wall.setup_s": statistics.median(samples.setup_wall_s),
        "cpu.slowdown": statistics.median(u["calibration"] for u in samples.units) / CAL_REF_S,
    }


def _tracking_slope(units: list[dict]) -> float | None:
    """Slope of log wall time on log kernel time over the units: 1 when the
    kernel slows by the same factor as the workload, lower when the workload
    slows less.  None when the CPU state did not vary enough to fit it."""
    x = [math.log(u["calibration"]) for u in units]
    y = [math.log(u["seconds"]) for u in units]
    if len(x) < 3 or statistics.pstdev(x) < 0.05:
        return None
    return statistics.linear_regression(x, y).slope


def _machine() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "mitbag" / "cli.py").is_file():
        print(f"perfbench: no mitbag sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        samples = _measure(args.workload, workload, args.seed, args.seconds, bool(args.trace), workdir)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_units = samples.units + samples.traced_units
    attempted, failed, problems = _verdict(workload, all_units)
    correct = not problems
    if args.trace:
        values, units = _per_layer(samples), PER_LAYER
    else:
        values, units = _end_to_end(samples, attempted, failed), END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "verify_threads": workload.threads,
        "machine": _machine(),
        "sample_counts": {
            "units": len(samples.units),
            "traced_units": len(samples.traced_units),
            "setup": len(samples.setup_s),
            "processes_rss": len(samples.rss_kib),
            "spans": samples.spans,
        },
        "cal_ref_s": CAL_REF_S,
        "unscaled": {**_unscaled(samples), "tracking_slope": _tracking_slope(samples.units)},
        "samples": {
            "iter_s": [_scaled(u) for u in samples.units],
            "iter_wall_s": [u["seconds"] for u in samples.units],
            "iter_calibration_s": [u["calibration"] for u in samples.units],
            "traced_iter_s": [_scaled(u) for u in samples.traced_units],
            "traced_iter_wall_s": [u["seconds"] for u in samples.traced_units],
            "setup_s": samples.setup_s,
            "setup_wall_s": samples.setup_wall_s,
            "peak_rss_kib": samples.rss_kib,
        },
        "report_sha256": sorted({u["sha256"] for u in all_units if "sha256" in u}),
        "report_bytes": sorted({u["bytes"] for u in all_units if "bytes" in u}),
        "problems": problems,
        "metrics": metrics,
    }
    runs = OUT / "runs"
    runs.mkdir(exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for problem in problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed={args.seed} units={len(samples.units)}"
        f" traced={len(samples.traced_units)} setups={len(samples.setup_s)}",
        file=sys.stderr,
    )
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    unscaled = record["unscaled"]
    print(
        f"  unscaled: iter median {unscaled['wall.iter_s']:.6g} s, setup median {unscaled['wall.setup_s']:.6g} s,"
        f" cpu slowdown {unscaled['cpu.slowdown']:.3g}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
