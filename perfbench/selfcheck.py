"""Self-check of the benchmark: deterministic counters repeat exactly.

    python3 perfbench/selfcheck.py [--seed N]

Runs the traced benchmark twice on ``verify_all``, once on
``verify_all_threads`` and twice on ``spectra``, all on one seed, and checks:

* the deterministic counters (ODE right-hand-side evaluations and steps,
  Brent function evaluations, Bessel calls, quadrature nodes, report bytes)
  are identical across the two runs of a workload and across
  ``VERIFY_THREADS`` 1 and 2;
* the report digest is identical across thread counts;
* the traced ``verify_all`` run puts at least 90% of the iteration in the
  transverse suite, and the ``spectra`` run makes no transverse solve;
* ``BENCHMARK.json`` names exactly the metrics and units ``run.py`` prints,
  and only workloads ``run.py`` has.

Exits 0 when every check holds.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run

COUNTERS = (
    "numerics.ode.rhs_evals",
    "numerics.ode.steps",
    "numerics.brent.f_evals",
    "special.j.calls",
    "special.k.calls",
    "numerics.quad.nodes",
    "report.bytes",
)


def traced(workload: str, seed: int) -> tuple[dict[str, float], dict]:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=run.ROOT,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: outputs not correct:\n{proc.stderr}")
    record = json.loads((run.OUT / "runs" / f"{workload}-seed{seed}-trace1.json").read_text())
    return {name: m["value"] for name, m in result["metrics"].items()}, record


def main() -> int:
    parser = argparse.ArgumentParser(description="Check that the benchmark's counters repeat exactly.")
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    failures: list[str] = []

    def expect(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER, "BENCHMARK.json per_layer matches run.py")
    expect({w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS), "BENCHMARK.json workloads exist in run.py")

    verify_a, record_a = traced("verify_all", seed)
    verify_b, _ = traced("verify_all", seed)
    threads, record_t = traced("verify_all_threads", seed)
    spectra_a, _ = traced("spectra", seed)
    spectra_b, _ = traced("spectra", seed)
    for name in COUNTERS:
        expect(verify_a[name] == verify_b[name], f"verify_all {name} repeats: {verify_a[name]} vs {verify_b[name]}")
        expect(verify_a[name] == threads[name], f"{name} equal across VERIFY_THREADS 1/2: {verify_a[name]} vs {threads[name]}")
        expect(spectra_a[name] == spectra_b[name], f"spectra {name} repeats: {spectra_a[name]} vs {spectra_b[name]}")
    expect(record_a["report_sha256"] == record_t["report_sha256"], "report sha256 equal across VERIFY_THREADS 1/2")
    share = verify_a["cli.suite.transverse_s"] / verify_a["trace.iter_s"]
    expect(share >= 0.9, f"traced verify_all spends {share:.1%} of the iteration in the transverse suite (>= 90%)")
    expect(spectra_a["transverse.solve.calls"] == 0, "traced spectra makes no transverse solve")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
