"""Configuration and driver of the ``verify`` command.

Usage:

    verify config.json [--suite S] [--m-grid a,b,c] [--out PATH]
                       [--format csv|json] [--tol X]

The config file is a single JSON document; flags override individual fields,
and ``SuiteConfig`` validates the run before any suite (``mitbag.suites``)
starts.  Exit codes: 0 all asserted checks pass, 1 at least one fails, 2
invalid configuration, 3 internal numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Sequence

from .numerics import ToleranceConfig, run_memo
from .report import CheckRecord, Report, emit_table, write_report_atomic
from .suites import DEFAULT_CURVATURE_GRID, TRANSVERSE_M_GRID, _SUITE_RUNNERS

# The benchmark tracer (perfbench/tracer.py) finds the runners and ``_pmap``
# here by name until ROADMAP item 1 points it at ``suites``.
from .suites import _pmap, run_dirac_suite, run_exterior_suite, run_robin_suite, run_transverse_suite  # noqa: F401
from .transverse import SERIES_FLOOR, CurvatureData, TransverseProblem, collar_is_valid

SUITES = ("transverse", "exterior", "dirac", "robin", "all")
GEOMETRY_BLOCK = '{"variant": "ball_interior", "R": r} with r > 0'


class ConfigError(ValueError):
    """Invalid suite configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class BallInterior:
    """The ball of radius R, domain of the bag and Robin interior operators."""

    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")


@dataclass(frozen=True)
class SuiteConfig:
    """One reproducible verification run, fully captured in a JSON document."""

    suite: str = "all"
    m_grid: tuple[float, ...] | None = None
    curvature_grid: tuple[tuple[float, float], ...] = DEFAULT_CURVATURE_GRID
    geometry: BallInterior = BallInterior(R=1.0)
    tolerances: ToleranceConfig = ToleranceConfig()
    output_path: str = "report.csv"
    format: str = "csv"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"suite must be one of {SUITES}, got {self.suite!r}")
        if self.m_grid is not None:
            if len(self.m_grid) == 0:
                raise ConfigError("m_grid must be nonempty")
            grid = list(self.m_grid)
            if any(not (math.isfinite(m) and m > 0) for m in grid):
                raise ConfigError("m_grid entries must be positive and finite")
            if sorted(grid) != grid or len(set(grid)) != len(grid):
                raise ConfigError("m_grid must be strictly ascending")
        if len(self.curvature_grid) == 0:
            raise ConfigError("curvature_grid must be nonempty")
        if not all(math.isfinite(k) and math.isfinite(K) for k, K in self.curvature_grid):
            raise ConfigError("curvature_grid entries must be finite")
        if self.suite in ("transverse", "all"):
            self.transverse_sweep  # the grid is refused where the suite's problems cannot be built
        if self.suite == "exterior" and self.m_grid is not None and len(self.m_grid) < 3:
            raise ConfigError(
                f"m_grid has {len(self.m_grid)} masses; the exterior suite needs at least 3: its rate rows compare "
                "the first mass with the last, and its sandwich bound is fitted on the first 2"
            )
        if self.suite in ("dirac", "robin", "all") and self.m_grid is not None and len(self.m_grid) < 4:
            raise ConfigError(
                f"m_grid has {len(self.m_grid)} masses; the dirac and robin slope fits and their drift "
                "need at least 4"
            )
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")

    @cached_property
    def transverse_sweep(self) -> tuple[tuple[tuple[float, float], tuple[TransverseProblem, ...]], ...]:
        """Each curvature pair with its problems at the grid's masses from
        ``SERIES_FLOOR`` on where its collar is valid, as the transverse suite
        solves them.  A pair with no such mass would have no row, and a mass
        whose square overflows could not be solved: built largest first, the
        problems name the largest mass in a refusal."""
        masses = [m for m in self.m_grid or TRANSVERSE_M_GRID if m >= SERIES_FLOOR]
        sweep = []
        for pair in self.curvature_grid:
            curv = CurvatureData(*pair)
            valid = [m for m in masses if collar_is_valid(curv, m)]
            if not valid:
                raise ConfigError(
                    f"curvature pair {list(pair)} is valid at none of the masses {masses} of the grid from "
                    f"{SERIES_FLOOR:g} on; its series rows need one"
                )
            try:
                problems = [TransverseProblem(m=m, curv=curv) for m in reversed(valid)]  # refuses m**2 overflow
            except ValueError as exc:
                raise ConfigError(f"m_grid: {exc}") from exc
            sweep.append((pair, tuple(problems[::-1])))
        return tuple(sweep)


def _typed(value: Any, kind: type, name: str) -> Any:
    """The config value ``value`` of field ``name`` if it has the JSON type
    ``kind``: for ``float`` a number (an int or float, not a bool), returned
    as a float; for ``str`` a string.  Anything else is a ``ConfigError``."""
    if kind is str and isinstance(value, str):
        return value
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{name} must be a {'string' if kind is str else 'number'}, got {value!r}")


def _geometry_from_dict(d: Any) -> BallInterior:
    """The ball of the geometry block, the only one the suites read."""
    if not (isinstance(d, dict) and set(d) == {"variant", "R"} and d["variant"] == "ball_interior"):
        raise ConfigError(f"geometry must be {GEOMETRY_BLOCK}, got {d!r}")
    try:
        return BallInterior(R=_typed(d["R"], float, "R"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry must be {GEOMETRY_BLOCK}, got {d!r}") from exc


def config_from_dict(d: dict[str, Any]) -> SuiteConfig:
    if not isinstance(d, dict):
        raise ConfigError("config document must be a JSON object")
    known = {"suite", "m_grid", "curvature_grid", "geometry", "tolerances", "output_path", "format", "seed"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    if "suite" in d:
        kwargs["suite"] = d["suite"]
    if "m_grid" in d and d["m_grid"] is not None:
        try:
            kwargs["m_grid"] = tuple(_typed(x, float, "m_grid entry") for x in d["m_grid"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("m_grid must be a list of numbers") from exc
    if "curvature_grid" in d:
        try:
            kwargs["curvature_grid"] = tuple(
                (_typed(k, float, "kappa"), _typed(K, float, "K")) for k, K in d["curvature_grid"]
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("curvature_grid must be a list of [kappa, K] pairs") from exc
    if "geometry" in d:
        kwargs["geometry"] = _geometry_from_dict(d["geometry"])
    if "tolerances" in d:
        t, default = d["tolerances"], ToleranceConfig()
        try:
            unknown = set(t) - {"abs_tol", "rel_tol", "max_iter"}
            if unknown:
                raise ValueError(f"unknown fields {sorted(unknown)}")
            kwargs["tolerances"] = ToleranceConfig(
                abs_tol=_typed(t.get("abs_tol", default.abs_tol), float, "abs_tol"),
                rel_tol=_typed(t.get("rel_tol", default.rel_tol), float, "rel_tol"),
                max_iter=t.get("max_iter", default.max_iter),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid tolerances block {t!r}: {exc}") from exc
    if "output_path" in d:
        kwargs["output_path"] = _typed(d["output_path"], str, "output_path")
    if "format" in d:
        kwargs["format"] = _typed(d["format"], str, "format")
    if "seed" in d:
        kwargs["seed"] = d["seed"]
    return SuiteConfig(**kwargs)


def load_config(path: str) -> dict[str, Any]:
    """The JSON object in the config file at ``path``, for ``config_from_dict``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError("config document must be a JSON object")
    return document


def run_suite(config: SuiteConfig) -> Report:
    """Execute the configured suite, write the report atomically, return it."""
    start = time.perf_counter()
    names = list(_SUITE_RUNNERS) if config.suite == "all" else [config.suite]
    records: list[CheckRecord] = []
    tol = config.tolerances
    summary_pairs: list[tuple[str, Any]] = [
        ("suite", config.suite),
        ("seed", config.seed),
        ("solver_abs_tol", tol.abs_tol),
        ("solver_rel_tol", tol.rel_tol),
        ("solver_max_iter", tol.max_iter),
    ]
    # Every suite shares the run's memo: its eigen-solves, eigenpairs and
    # tail integrals.
    with run_memo():
        for name in names:
            recs, summary = _SUITE_RUNNERS[name](config)
            records.extend(recs)
            summary_pairs.extend((f"{name}.{key}", summary[key]) for key in sorted(summary))
    asserted = [r.passed for r in records if r.asserted]
    summary_pairs += [("checks_passed", sum(asserted)), ("checks_asserted", len(asserted))]
    report = Report(
        records=tuple(records),
        summary=tuple(summary_pairs),
        runtime_s=time.perf_counter() - start,
    )
    data = emit_table(report, config.format)
    write_report_atomic(config.output_path, data)
    return report


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verify",
        description="Run the spectral verification suites and emit a report.",
    )
    parser.add_argument("config", help="path to the JSON configuration document")
    parser.add_argument("--suite", choices=SUITES, default=None)
    parser.add_argument("--m-grid", default=None, help="comma-separated masses, ascending")
    parser.add_argument("--out", default=None, help="report output path")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--tol", type=float, default=None, help="relative solver tolerance")
    args = parser.parse_args(argv)

    # Flags override fields of the document, which is then validated once.
    try:
        document = load_config(args.config)
        flags = {"suite": args.suite, "output_path": args.out, "format": args.format}
        document.update((key, value) for key, value in flags.items() if value is not None)
        if args.m_grid is not None:
            try:
                document["m_grid"] = [float(x) for x in args.m_grid.split(",") if x.strip()]
            except ValueError as exc:
                raise ConfigError(f"--m-grid must be comma-separated numbers, got {args.m_grid!r}") from exc
        if args.tol is not None:
            tolerances = document.get("tolerances", {})
            if not isinstance(tolerances, dict):
                raise ConfigError(f"invalid tolerances block {tolerances!r}")
            document["tolerances"] = {**tolerances, "abs_tol": 0.0, "rel_tol": args.tol}
        config = config_from_dict(document)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_suite(config)
    except ArithmeticError as exc:  # NumericsError, special.BesselOverflowError, a float overflow
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: cannot write report: {exc}", file=sys.stderr)
        return 2

    for r in report.records:
        status = "PASS" if r.passed else ("FAIL" if r.asserted else "INFO")
        where = f" m={r.m:g}" if r.m is not None else ""
        sector = f" {r.sector}" if r.sector else ""
        print(f"[{status}] {r.check_id}{where}{sector}: expected={r.expected:.9g} observed={r.observed:.9g}")
    passed, total = report.pass_counts()
    print(f"{passed}/{total} asserted checks passed; report written to {config.output_path}")
    print(f"total runtime: {report.runtime_s:.2f} s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
