"""One benchmark process: set up mitbag, run a unit of work, report as JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
reads its job as JSON on stdin and prints one JSON line.  Set-up (imports and
config load) is timed against the parent's spawn time through the shared
monotonic clock, so it counts interpreter start too.  A calibration kernel
that does not touch mitbag is timed right after set-up and before, during and
after every unit of work, so ``run.py`` can scale times to one CPU speed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import resource
import signal
import sys
import time

import numpy as np

from mitbag.cli import config_from_dict, run_suite

SPECTRA_SUITES = ("exterior", "dirac", "robin")


def _bag_root() -> float:
    """Lowest massless bag root of j_0 = j_1, by plain bisection on
    (x - 1) sin x + x cos x over (1.6, 2.5)."""
    a, b = 1.6, 2.5
    for _ in range(200):
        mid = 0.5 * (a + b)
        if ((mid - 1.0) * math.sin(mid) + mid * math.cos(mid)) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


BAG_ROOT = _bag_root()


def _kernel() -> float:
    """Fixed work in the mix mitbag spends its time in: interpreted float
    arithmetic and calls, and small numpy operations."""
    total = 0.0
    for i in range(1, 12001):
        x = 0.01 * i
        total += math.sin(x) / x - math.cos(x) / (x + 1.0)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(900):
        a = np.sqrt(a * a + 1.0) - 1.0
    return total + float(a.sum())


def _calibrate() -> float:
    """Seconds the kernel takes now: the best of three, so an interrupt does
    not count but a slower CPU does."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class _Speed:
    """Calibrations over one unit of work.

    The caller adds one before and one after the unit; with ``interval`` set,
    a SIGALRM handler in the main thread adds one every ``interval`` seconds
    while ``run_suite`` runs, so a switch of CPU speed inside a long unit is
    seen.  ``paused`` is the time those samples took, which the unit's time
    leaves out.
    """

    def __init__(self, interval: float | None, before: float) -> None:
        self.interval = interval
        self.samples = [before]
        self.paused = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(_calibrate())
        self.paused += time.perf_counter() - start

    def __enter__(self) -> "_Speed":
        if self.interval:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibration(self) -> float:
        """Kernel time matching the average CPU speed: the harmonic mean."""
        return len(self.samples) / sum(1.0 / c for c in self.samples)


def _anchor_problems(check_id: str, m: str, observed: str, R: float) -> list[str]:
    """Closed forms recomputed here, independent of the package's verdicts.

    Tolerances are the ones the package asserts for the same rows.
    """
    obs = float(observed)
    if check_id == "transverse.flat.lambda.m4" and not abs(obs - 1.0 / math.tanh(2.0)) <= 1e-9:
        return [f"{check_id}: {obs!r} is not coth 2"]
    if check_id == "exterior.dtn.l0":
        expected = float(m) + 1.0 / R
        if not abs(obs - expected) <= 1e-10 * expected:
            return [f"{check_id} m={m}: {obs!r} is not m + 1/R = {expected!r}"]
    if check_id == "dirac.mit.ground" and not abs(obs - BAG_ROOT / R) <= 1e-5:
        return [f"{check_id}: {obs!r} is not the bag root / R = {BAG_ROOT / R!r}"]
    return []


def _check_csv(data: bytes, report, R: float) -> list[str]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    problems = []
    if len(body) != len(report.records):
        problems.append(f"{len(body)} CSV rows for {len(report.records)} records")
    col = {name: i for i, name in enumerate(header)}
    for row, record in zip(body, report.records):
        if row[col["check_id"]] != record.check_id:
            problems.append(f"row {row[col['check_id']]} out of order")
        if row[col["pass"]] != ("true" if record.passed else "false"):
            problems.append(f"row {record.check_id}: pass column disagrees with the record")
        problems += _anchor_problems(record.check_id, row[col["m"]], row[col["observed"]], R)
    return problems


def _check_json(data: bytes, report, R: float) -> list[str]:
    body = json.loads(data)
    rows = body["records"]
    problems = []
    if len(rows) != len(report.records):
        problems.append(f"{len(rows)} JSON records for {len(report.records)} records")
    asserted = [row for row in rows if row["asserted"]]
    passed = sum(1 for row in asserted if row["pass"] is True)
    if (passed, len(asserted)) != report.pass_counts():
        problems.append(f"JSON pass counts {passed}/{len(asserted)} disagree with the report")
    summary = body["summary"]
    if (summary.get("checks_passed"), summary.get("checks_asserted")) != (passed, len(asserted)):
        problems.append("summary checks_passed/checks_asserted disagree with the records")
    for row in rows:
        m = "" if row["m"] is None else repr(row["m"])
        problems += _anchor_problems(row["check_id"], m, row["observed"], R)
    return problems


def _run_checked(config, R: float, speed: _Speed) -> dict:
    """One run_suite with its report read back and checked; timed without the
    check and without the calibrations taken while it ran."""
    paused = speed.paused
    start = time.perf_counter()
    try:
        with speed:
            report = run_suite(config)
    except Exception as exc:  # an iteration that raises fails all its checks
        seconds = time.perf_counter() - start - (speed.paused - paused)
        return {"seconds": seconds, "error": f"{type(exc).__name__}: {exc}"}
    seconds = time.perf_counter() - start - (speed.paused - paused)
    with open(config.output_path, "rb") as handle:
        data = handle.read()
    check = _check_csv if config.format == "csv" else _check_json
    passed, asserted = report.pass_counts()
    return {
        "seconds": seconds,
        "passed": passed,
        "asserted": asserted,
        "failing": [r.check_id for r in report.records if r.asserted and not r.passed],
        "problems": check(data, report, R),
        "sha256": hashlib.sha256(data).hexdigest(),
        "bytes": len(data),
    }


def _merge(parts: list[dict]) -> dict:
    """One spectra pass from its three suite runs."""
    errors = [p["error"] for p in parts if "error" in p]
    if errors:
        return {"seconds": sum(p["seconds"] for p in parts), "error": "; ".join(errors)}
    return {
        "seconds": sum(p["seconds"] for p in parts),
        "passed": sum(p["passed"] for p in parts),
        "asserted": sum(p["asserted"] for p in parts),
        "failing": [c for p in parts for c in p["failing"]],
        "problems": [q for p in parts for q in p["problems"]],
        "sha256": hashlib.sha256("".join(p["sha256"] for p in parts).encode()).hexdigest(),
        "bytes": sum(p["bytes"] for p in parts),
    }


def _spectra_pass(radius: float, seed: int, output_path: str, speed: _Speed) -> dict:
    configs = [
        config_from_dict(
            {
                "suite": suite,
                "geometry": {"variant": "ball_interior", "R": radius},
                "output_path": output_path,
                "format": "json",
                "seed": seed,
            }
        )
        for suite in SPECTRA_SUITES
    ]
    return _merge([_run_checked(c, radius, speed) for c in configs])


def _more_units(job: dict, done: int) -> bool:
    if job["mode"] == "verify":
        return done < 1
    if job["mode"] == "spectra":
        return done < job["min_passes"] or (job["deadline"] is not None and time.monotonic() < job["deadline"])
    return False


def main() -> None:
    job = json.load(sys.stdin)
    config = config_from_dict(job["config"])
    ready = time.monotonic()
    setup_calibration = _calibrate()
    mode = job["mode"]
    output_path = job["config"]["output_path"]
    tracer = None
    units: list[dict] = []
    if mode == "spectra":
        _spectra_pass(*job["warmup"], output_path, _Speed(None, 1.0))
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    before = _calibrate() if mode != "setup" else 0.0
    while _more_units(job, len(units)):
        if tracer is not None:
            tracer.request = len(units)
        speed = _Speed(job["sample_s"], before)
        if mode == "verify":
            unit = _run_checked(config, config.geometry.R, speed)
        else:
            unit = _spectra_pass(*job["passes"][len(units) % len(job["passes"])], output_path, speed)
        before = _calibrate()
        speed.samples.append(before)
        unit["calibration"] = speed.calibration()
        units.append(unit)
    result = {
        "ready": ready,
        "setup_calibration": setup_calibration,
        "units": units,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.totals()
        result["spans"] = tracer.write_spans(job["trace_path"]) if job["trace_path"] else 0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
