"""Verification driver: suites, parameter sweeps, reports, and the CLI.

Usage:

    verify config.json [--suite S] [--m-grid a,b,c] [--out PATH]
                       [--format csv|json] [--tol X]

The config file is a single JSON document; flags override individual fields.
Exit codes: 0 all asserted checks pass, 1 at least one fails, 2 invalid
configuration, 3 internal numeric error.  Sweeps run serially in a fixed
order, so identical configurations produce identical report bytes.

Every check is one ``CheckRecord`` whose verdict follows from its own
expected value, observed value, tolerance and comparison kind (see
``report.COMPARISONS``); no verdict is computed here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

import numpy as np

from .dirac_ball import (
    AngularSector,
    DiracParams,
    boundary_identity_check,
    charge_conjugation_check,
    eta_functional,
    largemass_eigenvalues,
    largemass_spectrum_signed,
    mit_eigenpair,
    mit_eigenvalues,
    mit_spectrum_signed,
    mu_functional,
    nu_minmax,
    robin_eigenpair,
    robin_laplacian_eigenvalues,
    singular_values_merged,
)
from .exterior import (
    agmon_decay_check,
    ball_exterior_dtn,
    effective_energy,
    exterior_energy,
    halfspace_mode_energy,
    mass_estimate_check,
    sobolev_h32_norm_sq,
    sphere_datum,
    torus_datum,
)
from .geometry import (
    BallInterior,
    BallExterior,
    CurvatureBounds,
    CurvatureData,
    FlatTorusHalfSpace,
    ModelGeometry,
    min_rescaled_weight,
)
from .numerics import NumericsError, ToleranceConfig, fit_inverse_m, slope_drift
from .report import CheckRecord, Report, emit_table, write_report_atomic
from .transverse import (
    TransverseProblem,
    expansion_lambda,
    residual_of_ansatz,
    solve_transverse,
    transverse_form,
    transverse_mass_check,
)

SUITES = ("transverse", "exterior", "dirac", "robin", "all")
BALL_SUITES = ("exterior", "dirac", "robin", "all")  # these run on the configured ball

DEFAULT_CURVATURE_GRID: tuple[tuple[float, float], ...] = tuple(
    (k, K) for k in (-3.0, -1.0, 0.0, 1.0, 3.0) for K in (-2.0, 0.0, 1.0, 2.0)
)
TRANSVERSE_M_GRID = (25.0, 100.0, 400.0, 1600.0, 6400.0)
EXTERIOR_M_GRID = (1e2, 1e3, 1e4)
SLOPE_M_GRID = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
CONVERGENCE_M_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)


class ConfigError(ValueError):
    """Invalid suite configuration (maps to exit code 2)."""


@dataclass(frozen=True)
class SuiteConfig:
    """One reproducible verification run, fully captured in a JSON document."""

    suite: str = "all"
    m_grid: tuple[float, ...] | None = None
    curvature_grid: tuple[tuple[float, float], ...] = DEFAULT_CURVATURE_GRID
    geometry: ModelGeometry = BallInterior(R=1.0)
    tolerances: ToleranceConfig = ToleranceConfig(abs_tol=0.0, rel_tol=1e-14, max_iter=300)
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
        if self.format not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if self.suite in BALL_SUITES and not isinstance(self.geometry, (BallInterior, BallExterior)):
            raise ConfigError(f"suite {self.suite!r} needs a ball geometry, got {self.geometry!r}")


def _geometry_from_dict(d: dict[str, Any]) -> ModelGeometry:
    variant = d.get("variant")
    try:
        if variant == "ball_interior":
            return BallInterior(R=float(d["R"]))
        if variant == "ball_exterior":
            return BallExterior(R=float(d["R"]))
        if variant == "flat_torus_halfspace":
            return FlatTorusHalfSpace(period=float(d["period"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid geometry block {d!r}") from exc
    raise ConfigError(f"unknown geometry variant {variant!r}")


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
            kwargs["m_grid"] = tuple(float(x) for x in d["m_grid"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("m_grid must be a list of numbers") from exc
    if "curvature_grid" in d:
        try:
            kwargs["curvature_grid"] = tuple((float(k), float(K)) for k, K in d["curvature_grid"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("curvature_grid must be a list of [kappa, K] pairs") from exc
    if "geometry" in d:
        kwargs["geometry"] = _geometry_from_dict(d["geometry"])
    if "tolerances" in d:
        t = d["tolerances"]
        try:
            kwargs["tolerances"] = ToleranceConfig(
                abs_tol=float(t.get("abs_tol", 0.0)),
                rel_tol=float(t.get("rel_tol", 1e-14)),
                max_iter=int(t.get("max_iter", 300)),
            )
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid tolerances block {t!r}") from exc
    if "output_path" in d:
        kwargs["output_path"] = str(d["output_path"])
    if "format" in d:
        kwargs["format"] = str(d["format"])
    if "seed" in d:
        try:
            kwargs["seed"] = int(d["seed"])
        except (TypeError, ValueError) as exc:
            raise ConfigError("seed must be an integer") from exc
    try:
        return SuiteConfig(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> SuiteConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    return config_from_dict(document)


def _pmap(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """Order-preserving serial map over a sweep (a named seam for tracing)."""
    return [fn(x) for x in items]


def _tightest(observed: Sequence[float], bound: Sequence[float]) -> int:
    """Index where ``observed <= bound`` holds with the least margin, or an
    index where it fails (NaN included) if there is one."""
    return max(range(len(observed)), key=lambda j: (not observed[j] <= bound[j], observed[j] - bound[j]))


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    design = np.column_stack([np.ones_like(lx), lx])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(coef[1])


# ----------------------------------------------------------------------------
# Transverse suite
# ----------------------------------------------------------------------------

GROUND_SECTOR = AngularSector(-1)


def _transverse_pair_data(
    pair: tuple[float, float], m_grid: Sequence[float], tol: ToleranceConfig
) -> tuple[tuple[float, float], tuple[float, ...], list[float], list[float]]:
    kappa, K = pair
    bounds = CurvatureBounds(abs(kappa), abs(K))
    valid_ms = tuple(m for m in m_grid if min_rescaled_weight(bounds, m) >= 0.5)
    diffs: list[float] = []
    mass_devs: list[float] = []
    for m in valid_ms:
        prob = TransverseProblem(m=m, curv=CurvatureData(kappa, K))
        sol = solve_transverse(prob, tol=tol)
        diffs.append(abs(sol.lam - expansion_lambda(prob)))
        mass_devs.append(transverse_mass_check(sol))
    return pair, valid_ms, diffs, mass_devs


def _transverse_sweep_records(
    config: SuiteConfig, m_grid: Sequence[float]
) -> tuple[list[CheckRecord], dict[str, Any]]:
    """Expansion-order and mass-rate checks over the curvature grid.

    The m^-3 law is asserted on cohort aggregates (max gap over the pairs
    sharing a validity range): per-pair m^3-scaled gaps are not monotone
    because the third-order coefficient kappa^3/8 - kappa K/2 can be partly
    cancelled, at any single mass, by the fourth-order term and by the
    exponentially small collar-truncation term, so only the family-wise
    envelope is a stable statement.  Per-pair slopes are still emitted as
    unasserted records for inspection.
    """
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    swept = _pmap(
        lambda pair: _transverse_pair_data(pair, m_grid, config.tolerances),
        config.curvature_grid,
    )

    cohorts: dict[tuple[float, ...], list[tuple[tuple[float, float], list[float]]]] = {}
    for pair, valid_ms, diffs, mass_devs in swept:
        if len(valid_ms) < 3:
            continue
        cohorts.setdefault(valid_ms, []).append((pair, diffs))
        slope = _loglog_slope(valid_ms, [max(d, 1e-17) for d in diffs])
        records.append(CheckRecord("transverse.expansion.pair.slope", "upper", expected=-2.9, observed=slope,
                                   tolerance=0.0, provenance="fit", kappa=pair[0], gauss=pair[1],
                                   asserted=False))
        # Mass rate: the first-order term of the weighted mass cancels
        # analytically, so the deviation envelope fitted at the coarsest
        # valid mass bounds the finer ones.
        mass_env = mass_devs[0] * valid_ms[0]
        mass_worst = max((d * m for d, m in zip(mass_devs[1:], valid_ms[1:])), default=0.0)
        records.append(CheckRecord("transverse.mass.envelope", "envelope", expected=mass_env,
                                   observed=mass_worst, tolerance=1e-9, provenance="fit", kappa=pair[0],
                                   gauss=pair[1]))
        summary[f"expansion_constant[kappa={pair[0]:g},K={pair[1]:g}]"] = (
            diffs[-1] * valid_ms[-1] ** 3
        )

    for valid_ms, members in sorted(cohorts.items()):
        agg = [max(diffs[i] for _, diffs in members) for i in range(len(valid_ms))]
        label = f"floor<={valid_ms[0]:g};pairs={len(members)}"
        slope = _loglog_slope(valid_ms, agg)
        records.append(CheckRecord("transverse.expansion.slope", "upper", expected=-2.9, observed=slope,
                                   tolerance=0.0, provenance="fit", sector=label))
        env = agg[0] * valid_ms[0] ** 3
        worst = max((d * m**3 for d, m in zip(agg[1:], valid_ms[1:])), default=0.0)
        records.append(CheckRecord("transverse.expansion.envelope", "envelope", expected=env, observed=worst,
                                   tolerance=1e-9, provenance="fit", sector=label))
        summary[f"expansion_aggregate_constant[{label}]"] = env
    return records, summary


def run_transverse_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    m_grid = config.m_grid or TRANSVERSE_M_GRID
    tol = config.tolerances

    # Flat closed forms: the profile is sinh(sqrt(m)-tau)/sinh(sqrt(m)).
    sol4 = solve_transverse(TransverseProblem(m=4.0, curv=CurvatureData.flat()), tol=tol)
    lam_exact = 1.0 / math.tanh(2.0)
    mass_exact = (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
    records.append(CheckRecord("transverse.flat.lambda.m4", "abs", expected=lam_exact, observed=sol4.lam,
                               tolerance=1e-9, provenance="closed-form", m=4.0, kappa=0.0, gauss=0.0))
    records.append(CheckRecord("transverse.flat.mass.m4", "abs", expected=mass_exact, observed=sol4.mass,
                               tolerance=1e-6, provenance="closed-form", m=4.0, kappa=0.0, gauss=0.0))
    sol_large = solve_transverse(TransverseProblem(m=1e4, curv=CurvatureData.flat()), tol=tol)
    records.append(CheckRecord("transverse.flat.limit.m1e4", "abs", expected=1.0, observed=sol_large.lam,
                               tolerance=1e-8, provenance="closed-form", m=1e4, kappa=0.0, gauss=0.0))

    # Curvature sweep: expansion order and mass envelopes.
    sweep_records, sweep_summary = _transverse_sweep_records(config, m_grid)
    records.extend(sweep_records)
    summary.update(sweep_summary)

    # Sphere cancellation is an exact arithmetic identity: K = kappa^2/4
    # kills the 1/m^2 coefficient.
    worst = 0.0
    for kappa in (1.0, 2.0, 3.0):
        prob = TransverseProblem(m=64.0, curv=CurvatureData(kappa, kappa**2 / 4.0))
        worst = max(worst, abs(expansion_lambda(prob) - (1.0 + kappa / (2.0 * prob.m))))
    records.append(CheckRecord("transverse.sphere.cancellation", "abs", expected=0.0, observed=worst,
                               tolerance=0.0, provenance="expansion"))

    # Minimality and the Pythagoras identity on seeded test functions.
    rng = np.random.default_rng(config.seed)
    prob = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))
    sol = solve_transverse(prob, tol=tol)
    T = prob.half_width
    min_gap = math.inf
    max_pyth = 0.0
    for _ in range(5):
        coeffs = rng.uniform(-0.5, 0.5, size=3)

        def w_func(tau, c=coeffs):
            base = np.exp(-tau) * (1.0 - tau / T)
            bump = sum(ci * np.sin((j + 1) * math.pi * tau / T) for j, ci in enumerate(c))
            return base + np.exp(-tau) * bump

        def w_deriv(tau, c=coeffs):
            base = -np.exp(-tau) * (1.0 - tau / T) - np.exp(-tau) / T
            bump = sum(ci * np.sin((j + 1) * math.pi * tau / T) for j, ci in enumerate(c))
            dbump = sum(
                ci * (j + 1) * math.pi / T * np.cos((j + 1) * math.pi * tau / T)
                for j, ci in enumerate(c)
            )
            return base - np.exp(-tau) * bump + np.exp(-tau) * dbump

        q_w = transverse_form(prob, w_func, w_deriv)
        min_gap = min(min_gap, q_w - sol.lam)

        def w_minus_u(tau):
            u, _ = sol.evaluate(tau)
            return w_func(tau) - u

        def w_minus_u_deriv(tau):
            _, du = sol.evaluate(tau)
            return w_deriv(tau) - du

        q_diff = transverse_form(prob, w_minus_u, w_minus_u_deriv)
        max_pyth = max(max_pyth, abs(q_w - sol.lam - q_diff))
    records.append(CheckRecord("transverse.minimality.seeded", "lower", expected=0.0, observed=min_gap,
                               tolerance=1e-8, provenance="closed-form", m=36.0, kappa=2.0, gauss=1.0))
    records.append(CheckRecord("transverse.pythagoras.seeded", "upper", expected=0.0, observed=max_pyth,
                               tolerance=1e-7, provenance="closed-form", m=36.0, kappa=2.0, gauss=1.0))

    # Cutoff-ansatz residual: O(m^-3) for curved data, exponentially small flat.
    curved = [
        residual_of_ansatz(TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0)))
        for m in (100.0, 400.0, 1600.0)
    ]
    c_res = curved[0] * 100.0**3
    worst_res = max(r * m**3 for r, m in zip(curved[1:], (400.0, 1600.0)))
    records.append(CheckRecord("transverse.residual.order", "envelope", expected=c_res, observed=worst_res,
                               tolerance=1e-9, provenance="fit", kappa=3.0, gauss=1.0))
    summary["ansatz_residual_constant[kappa=3,K=1]"] = c_res
    flat_res_25 = residual_of_ansatz(TransverseProblem(m=25.0, curv=CurvatureData.flat()))
    c_flat = flat_res_25 / math.exp(-math.sqrt(25.0) / 4.0)
    flat_res_100 = residual_of_ansatz(TransverseProblem(m=100.0, curv=CurvatureData.flat()))
    bound = c_flat * math.exp(-math.sqrt(100.0) / 4.0)
    records.append(CheckRecord("transverse.residual.flat", "upper", expected=bound, observed=flat_res_100,
                               tolerance=0.0, provenance="fit", m=100.0, kappa=0.0, gauss=0.0))

    # Measured flat-mass decay order, reported only: the closed form decays
    # super-polynomially, so no fixed power law is asserted.
    flat_devs = [
        transverse_mass_check(solve_transverse(TransverseProblem(m=m, curv=CurvatureData.flat()), tol=tol))
        for m in (4.0, 16.0, 64.0)
    ]
    summary["flat_mass_decay_order"] = _loglog_slope((4.0, 16.0, 64.0), flat_devs)
    return records, summary


# ----------------------------------------------------------------------------
# Exterior suite
# ----------------------------------------------------------------------------

# Torus period of the flat-model data in the effective-rate and mass checks.
FLAT_PERIOD = 2.0 * math.pi


def run_exterior_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    m_grid = config.m_grid or EXTERIOR_M_GRID
    R = _ball_radius(config)

    # Closed-form Dirichlet-to-Neumann values and the l=0 exterior mass.
    for m in m_grid:
        records.append(CheckRecord("exterior.dtn.l0", "rel", expected=m + 1.0 / R,
                                   observed=ball_exterior_dtn(m, R, 0), tolerance=1e-10,
                                   provenance="closed-form", m=m, sector="ell=0"))
        # k_1 quotient closed form: m x/(x+1) + 2/R at x = mR.
        records.append(CheckRecord("exterior.dtn.l1", "rel", expected=m * (m * R) / (m * R + 1.0) + 2.0 / R,
                                   observed=ball_exterior_dtn(m, R, 1), tolerance=1e-10,
                                   provenance="closed-form", m=m, sector="ell=1"))
        mass = exterior_energy(sphere_datum(R, {0: math.sqrt(4.0 * math.pi)}), m).exterior_mass
        records.append(CheckRecord("exterior.mass.l0", "rel", expected=4.0 * math.pi / (2.0 * m),
                                   observed=mass, tolerance=1e-10, provenance="closed-form", m=m,
                                   sector="ell=0"))

    # Effective-functional rate on mixed-mode data, both model geometries.
    sphere_v = sphere_datum(R, {0: 1.0, 1: 0.7, 3: 0.4})
    flat_v = torus_datum(FLAT_PERIOD, {(0, 0): 1.0, (1, 0): 0.6, (2, 1): 0.3})
    for label, v in (("sphere", sphere_v), ("flat", flat_v)):
        values = []
        for m in m_grid:
            gap = abs(exterior_energy(v, m).energy - effective_energy(v, m))
            values.append(m**1.5 * gap / sobolev_h32_norm_sq(v))
        for m, val in zip(m_grid, values):
            records.append(CheckRecord(f"exterior.effective.rate.{label}", "envelope", expected=values[0],
                                       observed=val, tolerance=1e-9, provenance="fit", m=m))
        records.append(CheckRecord(f"exterior.effective.rate.{label}.decreasing", "below", expected=values[0],
                                   observed=values[-1], tolerance=0.0, provenance="fit"))
        summary[f"effective_rate_constant[{label}]"] = values[0]

    # Per-mode sandwich: the exact value never exceeds its effective expansion
    # (up to rounding of quantities of size m), and sits below it by O(1/m^2).
    # The m^2-scaled gap approaches its constant from below, so the rate bound
    # is fitted from the two coarsest masses with fixed 5% headroom.  Each
    # condition is recorded at the mass where it is tightest.
    eps = float(np.finfo(float).eps)
    for ell in (0, 1, 2, 5):
        gaps = [
            ball_exterior_dtn(m, R, ell)
            - (m + 1.0 / R)
            - ell * (ell + 1.0) / (2.0 * R * R * m)
            for m in m_grid
        ]
        rounding = [64.0 * eps * (m + 2.0) for m in m_grid]
        scaled = [abs(g) * m**2 for g, m in zip(gaps, m_grid)]
        scaled_rounding = [r * m**2 for r, m in zip(rounding, m_grid)]
        c_fit = 1.05 * max(scaled[:2]) + rounding[0]
        i = _tightest(scaled, [c_fit + r for r in scaled_rounding])
        records.append(CheckRecord("exterior.sandwich", "upper", expected=c_fit, observed=scaled[i],
                                   tolerance=scaled_rounding[i], provenance="fit", m=m_grid[i],
                                   sector=f"ell={ell}"))
        i = _tightest(gaps, rounding)
        records.append(CheckRecord("exterior.sandwich.sign", "upper", expected=0.0, observed=gaps[i],
                                   tolerance=rounding[i], provenance="expansion", m=m_grid[i],
                                   sector=f"ell={ell}"))

    # Mass estimate: exactly zero for the pure l=0 datum, bounded in general.
    v0 = sphere_datum(R, {0: 2.0})
    check0 = mass_estimate_check(exterior_energy(v0, m_grid[0]), v0, m_grid[0])
    records.append(CheckRecord("exterior.mass_estimate.l0", "upper", expected=0.0, observed=check0,
                               tolerance=1e-10, provenance="closed-form", m=m_grid[0], sector="ell=0"))
    for label, v in (("sphere", sphere_v), ("flat", flat_v)):
        vals = [mass_estimate_check(exterior_energy(v, m), v, m) for m in m_grid]
        c_fit = max(vals[0], 1e-300)
        records.append(CheckRecord(f"exterior.mass_estimate.{label}", "envelope", expected=c_fit,
                                   observed=max(vals), tolerance=1e-9, provenance="fit"))
        summary[f"mass_estimate_constant[{label}]"] = c_fit

    # Mode additivity with seeded coefficients (diagonalized problem).
    rng = np.random.default_rng(config.seed)
    coeffs = {ell: complex(rng.normal(), rng.normal()) for ell in (0, 1, 2, 4)}
    energy = exterior_energy(sphere_datum(R, coeffs), 300.0).energy
    expected = sum(abs(c) ** 2 * ball_exterior_dtn(300.0, R, ell) for ell, c in coeffs.items())
    records.append(CheckRecord("exterior.additivity", "rel", expected=expected, observed=energy,
                               tolerance=1e-12, provenance="closed-form", m=300.0))

    # Monotonicity of the per-mode energies in m.
    fine_grid = sorted(set(list(m_grid) + [m * 2.0 for m in m_grid]))
    for label, energy_of in (
        ("ell=1", lambda m: ball_exterior_dtn(m, R, 1)),
        ("xi=2", lambda m: halfspace_mode_energy(m, 2.0)),
    ):
        values = [energy_of(m) for m in fine_grid]
        min_step = min(b - a for a, b in zip(values, values[1:]))
        records.append(CheckRecord("exterior.monotonic", "above", expected=0.0, observed=min_step,
                                   tolerance=0.0, provenance="closed-form", sector=label))

    # Agmon decay: weighted mass ratio within 10% above its limit 1/(1-gamma).
    for gamma in (0.3, 0.5, 0.9):
        for m in m_grid:
            records.append(CheckRecord("exterior.agmon", "envelope", expected=1.0 / (1.0 - gamma),
                                       observed=agmon_decay_check(m, R, 1, gamma), tolerance=0.1,
                                       provenance="closed-form", m=m, sector=f"gamma={gamma}"))
    ratio0 = agmon_decay_check(m_grid[0], R, 0, 0.01)
    records.append(CheckRecord("exterior.agmon.gamma0", "abs", expected=1.0, observed=ratio0, tolerance=0.05,
                               provenance="closed-form", m=m_grid[0], sector="gamma=0.01"))
    return records, summary


# ----------------------------------------------------------------------------
# Dirac suite
# ----------------------------------------------------------------------------


def bag_ground_state_oracle(tol: float = 1e-12) -> float:
    """Plain bisection for the lowest bag root: tan x = x/(1-x) on (1.6, 2.5).

    Kept independent of the package root finder and Bessel code on purpose.
    """
    def f(x: float) -> float:
        return math.tan(x) - x / (1.0 - x)

    a, b = 1.6, 2.5
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < tol:
            break
    return 0.5 * (a + b)


def _ground_params(R: float = 1.0, m: float = 0.0) -> DiracParams:
    return DiracParams(R=R, m0=0.0, m=m)


def _ball_radius(config: SuiteConfig) -> float:
    """Radius of the configured ball (``SuiteConfig`` rejects other geometries here)."""
    assert isinstance(config.geometry, (BallInterior, BallExterior))
    return config.geometry.R


def run_dirac_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    R = _ball_radius(config)

    # Ground state against the independent bisection oracle (the massless bag
    # levels scale as 1/R, so the unit-ball root serves any radius).
    tol = config.tolerances
    p = _ground_params(R=R)
    lam1 = mit_eigenvalues(p, GROUND_SECTOR, 1, tol=tol).energies()[0]
    oracle = bag_ground_state_oracle() / R
    records.append(CheckRecord("dirac.mit.ground", "abs", expected=oracle, observed=lam1, tolerance=1e-5,
                               provenance="closed-form", sector=GROUND_SECTOR.label()))
    lam1_r2 = mit_eigenvalues(_ground_params(R=2.0 * R), GROUND_SECTOR, 1, tol=tol).energies()[0]
    records.append(CheckRecord("dirac.mit.scaling", "rel", expected=lam1 / 2.0, observed=lam1_r2,
                               tolerance=2e-10, provenance="closed-form"))

    # Charge-conjugation symmetry of the signed spectra.
    sectors = [AngularSector(k) for k in (-2, -1, 1, 2)]
    defect = charge_conjugation_check(mit_spectrum_signed(p, sectors, 5, tol=tol))
    records.append(CheckRecord("dirac.mit.symmetry", "upper", expected=0.0, observed=defect, tolerance=1e-9,
                               provenance="closed-form"))
    p100 = _ground_params(R=R, m=100.0)
    defect = charge_conjugation_check(largemass_spectrum_signed(p100, sectors, 2, tol=tol))
    records.append(CheckRecord("dirac.hm.symmetry", "upper", expected=0.0, observed=defect, tolerance=1e-9,
                               provenance="closed-form", m=100.0))

    # Convergence of the first two sector levels along the pinned m-grid:
    # each gap stays within the previous one (the first has no predecessor,
    # so its bound is infinite), and the last is below 1e-4.
    mit_levels = mit_eigenvalues(p, GROUND_SECTOR, 2, tol=tol).energies()
    hm_levels = _pmap(
        lambda m: largemass_eigenvalues(_ground_params(R=R, m=m), GROUND_SECTOR, 2, tol=tol).energies(),
        CONVERGENCE_M_GRID,
    )
    for k in (0, 1):
        sector = f"{GROUND_SECTOR.label()};k={k + 1}"
        gaps = [abs(levels[k] - mit_levels[k]) for levels in hm_levels]
        for m, prev, gap in zip(CONVERGENCE_M_GRID, [math.inf] + gaps[:-1], gaps):
            records.append(CheckRecord("dirac.convergence", "envelope", expected=prev, observed=gap,
                                       tolerance=1e-9, provenance="closed-form", m=m, sector=sector))
        records.append(CheckRecord("dirac.convergence.final", "upper", expected=0.0, observed=gaps[-1],
                                   tolerance=1e-4, provenance="closed-form", m=CONVERGENCE_M_GRID[-1],
                                   sector=sector))

    # First-order law: fitted slope of the squared eigenvalues against eta.
    # The limit is extracted on the large-m tail (reusing the convergence
    # solves), where second-order pollution is below the 1e-6 requirement;
    # the slope and its drift use the pinned medium-m grid.
    slope_grid = config.m_grid or SLOPE_M_GRID
    u1 = mit_eigenpair(p, GROUND_SECTOR, lam1)
    eta1 = eta_functional(u1, lam1, p)
    sq = _pmap(
        lambda m: largemass_eigenvalues(_ground_params(R=R, m=m), GROUND_SECTOR, 1, tol=tol).energies()[0]
        ** 2,
        slope_grid,
    )
    points = list(zip(slope_grid, sq))
    fit_all, fit_trunc, drift = slope_drift(points)
    tail_points = [
        (m, levels[0] ** 2) for m, levels in zip(CONVERGENCE_M_GRID, hm_levels)
    ][-4:]
    tail_fit = fit_inverse_m(tail_points)
    records.append(CheckRecord("dirac.slope.limit", "rel", expected=lam1**2, observed=tail_fit.limit,
                               tolerance=1e-6, provenance="fit"))
    records.append(CheckRecord("dirac.slope.eta", "rel", expected=eta1, observed=fit_all.slope,
                               tolerance=0.05, provenance="fit"))
    records.append(CheckRecord("dirac.slope.eta.drift", "upper", expected=0.0, observed=drift, tolerance=0.02,
                               provenance="fit"))
    summary["eta_ground"] = eta1
    summary["fitted_nu_ground"] = fit_all.slope
    summary["fitted_nu_ground_drift"] = drift

    # The eta form on the degenerate ground level is a multiple of identity:
    # every min-max value equals eta (the farthest one is recorded).
    nus = nu_minmax([u1, u1], lam1, p)
    worst = max(nus, key=lambda nu: abs(nu - eta1))
    records.append(CheckRecord("dirac.nu.degenerate", "abs", expected=eta1, observed=worst,
                               tolerance=1e-12 * max(1.0, abs(eta1)), provenance="closed-form"))

    # Higher levels: slopes are computed and reported, never asserted.
    for kj, level_idx in ((1, 0), (-1, 1)):
        sec = AngularSector(kj)
        # The signed level whose magnitude is the sector's level_idx-th singular value.
        E_k = sorted(mit_spectrum_signed(p, [sec], level_idx + 1, tol=tol).energies(), key=abs)[level_idx]
        lam_k = abs(E_k)
        u_k = mit_eigenpair(p, sec, E_k)
        eta_k = eta_functional(u_k, lam_k, p)
        sq_k = _pmap(
            lambda m: largemass_eigenvalues(_ground_params(R=R, m=m), sec, level_idx + 1, tol=tol).energies()[
                level_idx
            ]
            ** 2,
            slope_grid,
        )
        fit_k = fit_inverse_m(list(zip(slope_grid, sq_k)))
        label = f"{sec.label()};k={level_idx + 1}"
        records.append(CheckRecord("dirac.slope.higher", "info", expected=eta_k, observed=fit_k.slope,
                                   tolerance=0.0, provenance="fit", sector=label, asserted=False))
        summary[f"higher_slope[{label}]"] = fit_k.slope
        summary[f"higher_eta[{label}]"] = eta_k
    return records, summary


# ----------------------------------------------------------------------------
# Robin suite
# ----------------------------------------------------------------------------


def run_robin_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    R = _ball_radius(config)
    tol = config.tolerances
    p0 = DiracParams(R=R, m0=0.0, m=0.0)
    lam1 = mit_eigenvalues(p0, GROUND_SECTOR, 1, tol=tol).energies()[0]
    u1 = mit_eigenpair(p0, GROUND_SECTOR, lam1)
    mu1 = mu_functional(u1, p0)
    summary["mu_ground"] = mu1

    # Upper bound lambda_int_k <= lambda_k^2 (up to 1e-9 relative and
    # absolute rounding) with degeneracy-expanded merges.
    mit_merged = singular_values_merged(p0, (-2, -1, 1, 2), 6, mit_eigenvalues, tol=tol)
    for m in (50.0, 200.0, 800.0):
        pm = DiracParams(R=R, m0=0.0, m=m)
        robin_merged = singular_values_merged(pm, (-2, -1, 1, 2), 6, robin_laplacian_eigenvalues, tol=tol)
        for k in range(3):
            lam_sq = mit_merged[k][0] ** 2
            records.append(CheckRecord("robin.upper_bound", "upper", expected=lam_sq,
                                       observed=robin_merged[k][0], tolerance=1e-9 * (lam_sq + 1.0),
                                       provenance="closed-form", m=m, sector=f"k={k + 1}"))

    # First-order slope against the Robin-trace functional.
    slope_grid = config.m_grid or SLOPE_M_GRID
    lam_int_values = _pmap(
        lambda m: robin_laplacian_eigenvalues(
            DiracParams(R=R, m0=0.0, m=m), GROUND_SECTOR, 1, tol=tol
        ).energies()[0],
        slope_grid,
    )
    shifted = [(m, li) for m, li in zip(slope_grid, lam_int_values)]
    fit_all, fit_trunc, drift = slope_drift(shifted)
    records.append(CheckRecord("robin.slope.mu", "rel", expected=mu1, observed=fit_all.slope, tolerance=0.05,
                               provenance="fit"))
    tail_grid = (1e3, 1e4, 1e5, 1e6)
    tail_values = _pmap(
        lambda m: robin_laplacian_eigenvalues(
            DiracParams(R=R, m0=0.0, m=m), GROUND_SECTOR, 1, tol=tol
        ).energies()[0],
        tail_grid,
    )
    tail_fit = fit_inverse_m(list(zip(tail_grid, tail_values)))
    records.append(CheckRecord("robin.slope.limit", "rel", expected=lam1**2, observed=tail_fit.limit,
                               tolerance=1e-6, provenance="fit"))
    summary["fitted_mu_ground"] = fit_all.slope
    summary["fitted_mu_ground_drift"] = drift

    # Cross-solver consistency pins the projection sign conventions.
    p_huge = DiracParams(R=R, m0=0.0, m=1e6)
    lam_int_huge = robin_laplacian_eigenvalues(p_huge, GROUND_SECTOR, 1, tol=tol).energies()[0]
    records.append(CheckRecord("robin.cross_solver", "rel", expected=lam1**2, observed=lam_int_huge,
                               tolerance=1e-3, provenance="closed-form", m=1e6))

    # Exact boundary identity between the Robin and bag eigenpairs.
    for m in (200.0, 800.0):
        pm = DiracParams(R=R, m0=0.0, m=m)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND_SECTOR, 1, tol=tol).energies()[0]
        u_int = robin_eigenpair(pm, GROUND_SECTOR, lam_int)
        residual = boundary_identity_check(u_int, u1, m, pm)
        records.append(CheckRecord("robin.identity", "upper", expected=0.0, observed=residual, tolerance=1e-6,
                                   provenance="closed-form", m=m, sector=GROUND_SECTOR.label()))

    # Residual decreases as the solver tolerance tightens (these two solves
    # use their own tolerances by design).
    pm = DiracParams(R=R, m0=0.0, m=200.0)
    res_by_tol = []
    for rel in (1e-6, 1e-12):
        study_tol = ToleranceConfig(abs_tol=0.0, rel_tol=rel, max_iter=300)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND_SECTOR, 1, tol=study_tol).energies()[0]
        u_int = robin_eigenpair(pm, GROUND_SECTOR, lam_int)
        res_by_tol.append(boundary_identity_check(u_int, u1, 200.0, pm))
    records.append(CheckRecord("robin.identity.tol_study", "below", expected=res_by_tol[0],
                               observed=res_by_tol[1], tolerance=0.0, provenance="closed-form", m=200.0))
    return records, summary


# ----------------------------------------------------------------------------
# Suite dispatch and CLI
# ----------------------------------------------------------------------------

_SUITE_RUNNERS: dict[str, Callable[[SuiteConfig], tuple[list[CheckRecord], dict[str, Any]]]] = {
    "transverse": run_transverse_suite,
    "exterior": run_exterior_suite,
    "dirac": run_dirac_suite,
    "robin": run_robin_suite,
}


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
    for name in names:
        recs, summary = _SUITE_RUNNERS[name](config)
        records.extend(recs)
        summary_pairs.extend((f"{name}.{key}", summary[key]) for key in sorted(summary))
    asserted = [r for r in records if r.asserted]
    summary_pairs.append(("checks_passed", sum(r.passed for r in asserted)))
    summary_pairs.append(("checks_asserted", len(asserted)))
    report = Report(
        records=tuple(records),
        summary=tuple(summary_pairs),
        runtime_s=time.perf_counter() - start,
    )
    data = emit_table(report, config.format)
    write_report_atomic(config.output_path, data)
    return report


def _parse_m_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid --m-grid value {text!r}") from exc


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

    try:
        config = load_config(args.config)
        overrides: dict[str, Any] = {}
        if args.suite is not None:
            overrides["suite"] = args.suite
        if args.m_grid is not None:
            overrides["m_grid"] = _parse_m_grid(args.m_grid)
        if args.out is not None:
            overrides["output_path"] = args.out
        if args.format is not None:
            overrides["format"] = args.format
        if args.tol is not None:
            overrides["tolerances"] = ToleranceConfig(
                abs_tol=0.0, rel_tol=args.tol, max_iter=config.tolerances.max_iter
            )
        if overrides:
            config = replace(config, **overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_suite(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: cannot write report: {exc}", file=sys.stderr)
        return 2

    for r in report.records:
        status = "PASS" if r.passed else ("FAIL" if r.asserted else "INFO")
        where = f" m={r.m:g}" if r.m is not None else ""
        sector = f" {r.sector}" if r.sector else ""
        print(
            f"[{status}] {r.check_id}{where}{sector}: expected={r.expected:.9g} "
            f"observed={r.observed:.9g}"
        )
    passed, total = report.pass_counts()
    print(f"{passed}/{total} asserted checks passed; report written to {config.output_path}")
    print(f"total runtime: {report.runtime_s:.2f} s", file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
