"""The four verification suites: transverse, exterior, dirac and robin.

Each runner turns a validated ``cli.SuiteConfig`` into summary values and
check rows, each built by ``report.check`` from its id's entry in
``report.CHECKS``, so its verdict follows from the row alone.  Sweeps run
serially in a fixed order, so identical configurations produce identical rows.
The transverse suite solves the curvature sweep as the config built it
(``SuiteConfig.transverse_sweep``) in one stack with its flat and seeded problems.

``_pmap``, the sweeps' serial map, is a named seam for tracing: the benchmark
tracer finds it and the runners on ``cli``, which re-imports them, and
rebinds every alias of what it wraps in every ``mitbag`` module and dict, so
calls through this module's names are traced (a captured alias, such as a
default argument or a closure over ``_pmap``, would not be).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Any, Callable, Sequence

import numpy as np

from .dirac_ball import (
    AngularSector,
    DiracParams,
    RadialEigenpair,
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
)
from .exterior import (
    agmon_decay_check,
    ball_exterior_dtn,
    effective_energy,
    exterior_energy,
    flat_effective_gap,
    halfspace_mode_energy,
    mass_estimate_check,
    sobolev_h32_norm_sq,
    sphere_datum,
    torus_datum,
)
from .numerics import ToleranceConfig, fit_inverse_m, fit_line, memoized, slope_drift
from .report import CheckRecord, check
from .transverse import (
    ELEMENT_DEGREE,
    CurvatureData,
    TransverseProblem,
    TransverseSolution,
    expansion_lambda,
    residual_of_ansatz,
    solve_transverse,
    transverse_form,
    transverse_mass_check,
)

if TYPE_CHECKING:
    from .cli import SuiteConfig

DEFAULT_CURVATURE_GRID: tuple[tuple[float, float], ...] = tuple(
    (k, K) for k in (-3.0, -1.0, 0.0, 1.0, 3.0) for K in (-2.0, 0.0, 1.0, 2.0)
)
TRANSVERSE_M_GRID = (25.0, 100.0, 400.0, 1600.0, 6400.0)
EXTERIOR_M_GRID = (1e2, 1e3, 1e4)
SLOPE_M_GRID = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
CONVERGENCE_M_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
GROUND_SECTOR = AngularSector(-1)


def _pmap(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """Order-preserving serial map over a sweep (a named seam for tracing)."""
    return [fn(x) for x in items]


def _tightest(observed: Sequence[float], bound: Sequence[float]) -> int:
    """Index where ``observed <= bound`` holds with the least margin, or an
    index where it fails (NaN included) if there is one."""
    return max(range(len(observed)), key=lambda j: (not observed[j] <= bound[j], observed[j] - bound[j]))


# ----------------------------------------------------------------------------
# Transverse suite
# ----------------------------------------------------------------------------


def _transverse_sweep_records(
    per_pair: Sequence[tuple[tuple[float, float], Sequence[TransverseProblem]]], sols: Sequence[TransverseSolution]
) -> tuple[list[CheckRecord], dict[str, Any]]:
    """Expansion-order and mass-rate checks over the curvature grid, from the
    problems of each pair and their solutions in the same order.

    The m^-3 law is asserted on cohort aggregates (max gap over the pairs
    sharing a validity range): per-pair m^3-scaled gaps are not monotone
    because the third-order coefficient kappa^3/8 - kappa K/2 can be partly
    cancelled, at any single mass, by the fourth-order term and by the
    exponentially small collar-truncation term, so only the family-wise
    envelope is a stable statement.  Per-pair slopes are still emitted as
    unasserted records for inspection.  ``SuiteConfig`` refuses a pair valid
    at fewer than three masses of the grid.
    """
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    solved = iter(sols)
    gaps = []  # per pair: the pair, its valid masses, expansion gaps and mass deviations
    cohorts: dict[tuple[float, ...], list[int]] = {}
    for pair, probs in per_pair:
        pair_sols = [next(solved) for _ in probs]
        valid_ms = tuple(prob.m for prob in probs)
        diffs = [abs(sol.lam - expansion_lambda(prob)) for prob, sol in zip(probs, pair_sols)]
        cohorts.setdefault(valid_ms, []).append(len(gaps))
        gaps.append((pair, valid_ms, diffs, [transverse_mass_check(sol) for sol in pair_sols]))

    # Per cohort, one line fit per series: its pairs' gaps and their aggregate.
    pair_slopes: dict[int, float] = {}
    aggregates = {}
    for valid_ms, members in cohorts.items():
        agg = [max(gaps[i][2][k] for i in members) for k in range(len(valid_ms))]
        series = [[max(d, 1e-17) for d in gaps[i][2]] for i in members] + [agg]
        slopes = [fit_line(np.log(valid_ms), s)[1] for s in np.log(series)]
        pair_slopes.update(zip(members, slopes))
        aggregates[valid_ms] = (len(members), agg, slopes[-1])

    for i, (pair, valid_ms, diffs, mass_devs) in enumerate(gaps):
        records.append(
            check("transverse.expansion.pair.slope", -2.9, pair_slopes[i], 0.0, kappa=pair[0], gauss=pair[1])
        )
        # Mass rate: the first-order term of the weighted mass cancels
        # analytically, so the deviation envelope fitted at the coarsest
        # valid mass bounds the finer ones.
        mass_env = mass_devs[0] * valid_ms[0]
        mass_worst = max((d * m for d, m in zip(mass_devs[1:], valid_ms[1:])), default=0.0)
        records.append(check("transverse.mass.envelope", mass_env, mass_worst, 1e-9, kappa=pair[0], gauss=pair[1]))
        summary[f"expansion_constant[kappa={pair[0]:g},K={pair[1]:g}]"] = diffs[-1] * valid_ms[-1] ** 3

    for valid_ms, (count, agg, slope) in sorted(aggregates.items()):
        label = f"floor<={valid_ms[0]:g};pairs={count}"
        records.append(check("transverse.expansion.slope", -2.9, slope, 0.0, sector=label))
        env = agg[0] * valid_ms[0] ** 3
        worst = max((d * m**3 for d, m in zip(agg[1:], valid_ms[1:])), default=0.0)
        records.append(check("transverse.expansion.envelope", env, worst, 1e-9, sector=label))
        summary[f"expansion_aggregate_constant[{label}]"] = env
    return records, summary


def run_transverse_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    flat_probs = [TransverseProblem(m=m, curv=CurvatureData.flat()) for m in (4.0, 16.0, 64.0, 1e4)]
    per_pair = config.transverse_sweep
    seeded = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))  # minimality on seeded test functions
    # Every problem of the suite goes to one stacked solve.
    sols = solve_transverse([*flat_probs, *(prob for _, probs in per_pair for prob in probs), seeded])
    flat, sweep_sols, sol = sols[: len(flat_probs)], sols[len(flat_probs) : -1], sols[-1]
    # Deterministic size counters: elements and nodal values, boundary nodes included.
    summary["transverse_elements"] = sum((len(sol.u) - 1) // ELEMENT_DEGREE for sol in sols)
    summary["transverse_dofs"] = sum(len(sol.u) for sol in sols)

    # Flat closed forms: the profile is sinh(sqrt(m)-tau)/sinh(sqrt(m)).
    sol4, sol_large = flat[0], flat[-1]
    lam_exact = 1.0 / math.tanh(2.0)
    mass_exact = (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
    records.append(check("transverse.flat.lambda.m4", lam_exact, sol4.lam, 1e-9, m=4.0, kappa=0.0, gauss=0.0))
    records.append(check("transverse.flat.mass.m4", mass_exact, sol4.mass, 1e-6, m=4.0, kappa=0.0, gauss=0.0))
    records.append(check("transverse.flat.limit.m1e4", 1.0, sol_large.lam, 1e-8, m=1e4, kappa=0.0, gauss=0.0))

    # Curvature sweep: expansion order and mass envelopes.
    sweep_records, sweep_summary = _transverse_sweep_records(per_pair, sweep_sols)
    records.extend(sweep_records)
    summary.update(sweep_summary)

    # Sphere cancellation is an exact arithmetic identity: K = kappa^2/4
    # kills the 1/m^2 coefficient.
    worst = 0.0
    for kappa in (1.0, 2.0, 3.0):
        prob = TransverseProblem(m=64.0, curv=CurvatureData(kappa, kappa**2 / 4.0))
        worst = max(worst, abs(expansion_lambda(prob) - (1.0 + kappa / (2.0 * prob.m))))
    records.append(check("transverse.sphere.cancellation", 0.0, worst, 0.0))

    # Minimality and the Pythagoras identity on seeded test functions.  The
    # seeded draws take the standard library's generator: importing
    # numpy.random would add ~6 MiB to every verify process's peak RSS.
    rng = random.Random(config.seed)
    T = seeded.half_width
    coeffs = np.array([[rng.uniform(-0.5, 0.5) for _ in range(3)] for _ in range(5)])

    def seeded_and_differences(tau):
        # The five seeded test functions w, then the five w - u, in one stack.
        decay = np.exp(-tau)
        base = decay * (1.0 - tau / T)
        dbase = -decay * (1.0 - tau / T) - decay / T
        bump = sum(c[:, None] * np.sin((j + 1) * math.pi * tau / T) for j, c in enumerate(coeffs.T))
        dbump = sum(
            c[:, None] * (j + 1) * math.pi / T * np.cos((j + 1) * math.pi * tau / T)
            for j, c in enumerate(coeffs.T)
        )
        w = base + decay * bump
        dw = dbase - decay * bump + decay * dbump
        u, du = sol.evaluate(tau)
        return np.concatenate([w, w - u]), np.concatenate([dw, dw - du])

    q_w, q_diff = np.split(transverse_form(seeded, seeded_and_differences), 2)
    min_gap = float(np.min(q_w - sol.lam))
    max_pyth = float(np.max(np.abs(q_w - sol.lam - q_diff)))
    records.append(check("transverse.minimality.seeded", 0.0, min_gap, 1e-8, m=36.0, kappa=2.0, gauss=1.0))
    records.append(check("transverse.pythagoras.seeded", 0.0, max_pyth, 1e-7, m=36.0, kappa=2.0, gauss=1.0))

    # Cutoff-ansatz residual: O(m^-3) for curved data, exponentially small flat.
    curved = [
        residual_of_ansatz(TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0)))
        for m in (100.0, 400.0, 1600.0)
    ]
    c_res = curved[0] * 100.0**3
    worst_res = max(r * m**3 for r, m in zip(curved[1:], (400.0, 1600.0)))
    records.append(check("transverse.residual.order", c_res, worst_res, 1e-9, kappa=3.0, gauss=1.0))
    summary["ansatz_residual_constant[kappa=3,K=1]"] = c_res
    flat_res_25 = residual_of_ansatz(TransverseProblem(m=25.0, curv=CurvatureData.flat()))
    c_flat = flat_res_25 / math.exp(-math.sqrt(25.0) / 4.0)
    flat_res_100 = residual_of_ansatz(TransverseProblem(m=100.0, curv=CurvatureData.flat()))
    bound = c_flat * math.exp(-math.sqrt(100.0) / 4.0)
    records.append(check("transverse.residual.flat", bound, flat_res_100, 0.0, m=100.0, kappa=0.0, gauss=0.0))

    # Measured flat-mass decay order, reported only: the closed form decays
    # super-polynomially, so no fixed power law is asserted.
    flat_devs = [transverse_mass_check(s) for s in flat[:3]]
    summary["flat_mass_decay_order"] = fit_line(np.log((4.0, 16.0, 64.0)), np.log(flat_devs))[1]
    return records, summary


# ----------------------------------------------------------------------------
# Exterior suite
# ----------------------------------------------------------------------------

# Torus period of the flat-model data in the effective-rate and mass checks.
FLAT_PERIOD = 2.0 * math.pi


def _dtn_by_ratio_recurrence(m: float, R: float, ell: int) -> float:
    """The exterior DtN value -m k_l'(x)/k_l(x), x = mR, by a ratio recurrence.

    With r_l = k_{l-1}(x)/k_l(x) and r_0 = 1, k_{l+1} = k_{l-1} + (2l+1)/x k_l
    (DLMF 10.51.4) gives r_{l+1} = 1/(r_l + (2l+1)/x), and
    k_l' = -k_{l-1} - (l+1)/x k_l gives the value m (r_l + (l+1)/x).  No Bessel
    polynomial is evaluated, so the route is independent of ``ball_exterior_dtn``.
    """
    x = m * R
    r = 1.0
    for j in range(ell):
        r = 1.0 / (r + (2 * j + 1) / x)
    return m * (r + (ell + 1) / x)


def run_exterior_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    m_grid = config.m_grid or EXTERIOR_M_GRID
    R = config.geometry.R

    # Closed-form Dirichlet-to-Neumann values and the l=0 exterior mass.
    for m in m_grid:
        records.append(check("exterior.dtn.l0", m + 1.0 / R, ball_exterior_dtn(m, R, 0), 1e-10, m=m, sector="ell=0"))
        # k_1 quotient closed form: m x/(x+1) + 2/R at x = mR.
        records.append(check("exterior.dtn.l1", m * (m * R) / (m * R + 1.0) + 2.0 / R, ball_exterior_dtn(m, R, 1),
                             1e-10, m=m, sector="ell=1"))
        mass = exterior_energy(sphere_datum(R, {0: math.sqrt(4.0 * math.pi)}), m).exterior_mass
        records.append(check("exterior.mass.l0", 4.0 * math.pi / (2.0 * m), mass, 1e-10, m=m, sector="ell=0"))

    # Effective-functional rate on mixed-mode data, both model geometries.
    mixed = {
        "sphere": sphere_datum(R, {0: 1.0, 1: 0.7, 3: 0.4}),
        "flat": torus_datum(FLAT_PERIOD, {(0, 0): 1.0, (1, 0): 0.6, (2, 1): 0.3}),
    }
    # The mass-estimate checks below reuse these solutions.
    mixed_sols = {label: [exterior_energy(v, m) for m in m_grid] for label, v in mixed.items()}
    # The flat gap is taken in closed form: the difference of the two energies
    # (both ~m) falls below one ulp of m by m = 1e4.
    gaps = {
        "sphere": [sol.energy - effective_energy(mixed["sphere"], m) for m, sol in zip(m_grid, mixed_sols["sphere"])],
        "flat": [flat_effective_gap(mixed["flat"], m) for m in m_grid],
    }
    for label, v in mixed.items():
        values = [m**1.5 * abs(gap) / sobolev_h32_norm_sq(v) for m, gap in zip(m_grid, gaps[label])]
        for m, val in zip(m_grid, values):
            records.append(check(f"exterior.effective.rate.{label}", values[0], val, 1e-9, m=m))
        records.append(check(f"exterior.effective.rate.{label}.decreasing", values[0], values[-1], 0.0))
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
        records.append(check("exterior.sandwich", c_fit, scaled[i], scaled_rounding[i], m=m_grid[i],
                             sector=f"ell={ell}"))
        i = _tightest(gaps, rounding)
        records.append(check("exterior.sandwich.sign", 0.0, gaps[i], rounding[i], m=m_grid[i], sector=f"ell={ell}"))

    # Mass estimate: exactly zero for the pure l=0 datum, bounded in general.
    v0 = sphere_datum(R, {0: 2.0})
    check0 = mass_estimate_check(exterior_energy(v0, m_grid[0]), v0, m_grid[0])
    records.append(check("exterior.mass_estimate.l0", 0.0, check0, 1e-10, m=m_grid[0], sector="ell=0"))
    for label, v in mixed.items():
        vals = [mass_estimate_check(sol, v, m) for m, sol in zip(m_grid, mixed_sols[label])]
        c_fit = max(vals[0], 1e-300)
        records.append(check(f"exterior.mass_estimate.{label}", c_fit, max(vals), 1e-9))
        summary[f"mass_estimate_constant[{label}]"] = c_fit

    # Mode additivity with seeded coefficients (diagonalized problem), each
    # mode's DtN value taken by the independent ratio recurrence.
    rng = random.Random(config.seed)
    coeffs = {ell: complex(rng.normalvariate(0.0, 1.0), rng.normalvariate(0.0, 1.0)) for ell in (0, 1, 2, 4)}
    energy = exterior_energy(sphere_datum(R, coeffs), 300.0).energy
    expected = sum(abs(c) ** 2 * _dtn_by_ratio_recurrence(300.0, R, ell) for ell, c in coeffs.items())
    records.append(check("exterior.additivity", expected, energy, 1e-12, m=300.0))

    # Monotonicity of the per-mode energies in m.
    fine_grid = sorted(set(list(m_grid) + [m * 2.0 for m in m_grid]))
    for label, energy_of in (
        ("ell=1", lambda m: ball_exterior_dtn(m, R, 1)),
        ("xi=2", lambda m: halfspace_mode_energy(m, 2.0)),
    ):
        values = [energy_of(m) for m in fine_grid]
        min_step = min(b - a for a, b in zip(values, values[1:]))
        records.append(check("exterior.monotonic", 0.0, min_step, 0.0, sector=label))

    # Agmon decay: weighted mass ratio within 10% of its limit 1/(1-gamma).
    for gamma in (0.3, 0.5, 0.9):
        for m in m_grid:
            records.append(check("exterior.agmon", 1.0 / (1.0 - gamma), agmon_decay_check(m, R, 1, gamma), 0.1, m=m,
                                 sector=f"gamma={gamma}"))
    ratio0 = agmon_decay_check(m_grid[0], R, 0, 0.01)
    records.append(check("exterior.agmon.gamma0", 1.0, ratio0, 0.05, m=m_grid[0], sector="gamma=0.01"))
    return records, summary


# ----------------------------------------------------------------------------
# Dirac suite
# ----------------------------------------------------------------------------


def bag_ground_state_oracle() -> float:
    """Plain bisection for the lowest bag root: tan x = x/(1-x) on (1.6, 2.5),
    down to a bracket of 1e-12.

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
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


def run_dirac_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    R = config.geometry.R
    tol = config.tolerances

    # The five-level symmetry solve comes first: the two-level bag requests
    # below and in the robin suite take the prefixes of its scans.
    p = DiracParams(R=R)
    sectors = [AngularSector(k) for k in (-2, -1, 1, 2)]
    signed = mit_spectrum_signed(p, sectors, 5, tol=tol)

    # Ground state against the independent bisection oracle (the massless bag
    # levels scale as 1/R, so the unit-ball root serves any radius).
    mit_levels = mit_eigenvalues(p, GROUND_SECTOR, 2, tol=tol)
    lam1 = mit_levels[0]
    oracle = bag_ground_state_oracle() / R
    records.append(check("dirac.mit.ground", oracle, lam1, 1e-5, sector=GROUND_SECTOR.label()))
    lam1_r2 = mit_eigenvalues(DiracParams(R=2.0 * R), GROUND_SECTOR, 1, tol=tol)[0]
    records.append(check("dirac.mit.scaling", lam1 / 2.0, lam1_r2, 2e-10))

    # Charge-conjugation symmetry of the signed spectra.
    defect = charge_conjugation_check(signed)
    records.append(check("dirac.mit.symmetry", 0.0, defect, 1e-9))
    p100 = DiracParams(R=R, m=100.0)
    defect = charge_conjugation_check(largemass_spectrum_signed(p100, sectors, 2, tol=tol))
    records.append(check("dirac.hm.symmetry", 0.0, defect, 1e-9, m=100.0))

    # Convergence of the first two sector levels along the pinned m-grid:
    # each gap stays within the previous one (the first has no predecessor,
    # so its bound is infinite), and the last is below 1e-4.  The two lowest
    # ground-sector levels at each mass serve both slope grids as well.
    def hm_pair(m: float) -> list[float]:
        return largemass_eigenvalues(DiracParams(R=R, m=m), GROUND_SECTOR, 2, tol=tol)

    hm_levels = _pmap(hm_pair, CONVERGENCE_M_GRID)

    for k in (0, 1):
        sector = f"{GROUND_SECTOR.label()};k={k + 1}"
        gaps = [abs(levels[k] - mit_levels[k]) for levels in hm_levels]
        for m, prev, gap in zip(CONVERGENCE_M_GRID, [math.inf] + gaps[:-1], gaps):
            records.append(check("dirac.convergence", prev, gap, 1e-9, m=m, sector=sector))
        records.append(check("dirac.convergence.final", 0.0, gaps[-1], 1e-4, m=CONVERGENCE_M_GRID[-1], sector=sector))

    # First-order law: fitted slope of the squared eigenvalues against eta.
    # The limit is extracted on the large-m tail (reusing the convergence
    # solves), where second-order pollution is below the 1e-6 requirement;
    # the slope and its drift use the pinned medium-m grid.
    slope_grid = config.m_grid or SLOPE_M_GRID
    u1 = memoized(mit_eigenpair, p, GROUND_SECTOR, lam1)
    eta1 = eta_functional(u1, lam1, p)
    sq = _pmap(lambda m: hm_pair(m)[0] ** 2, slope_grid)
    points = list(zip(slope_grid, sq))
    slope, drift = slope_drift(points)
    tail_limit, _ = fit_inverse_m([(m, hm_pair(m)[0] ** 2) for m in CONVERGENCE_M_GRID[-4:]])
    records.append(check("dirac.slope.limit", lam1**2, tail_limit, 1e-6))
    records.append(check("dirac.slope.eta", eta1, slope, 0.05))
    records.append(check("dirac.slope.eta.drift", 0.0, drift, 0.02))
    summary["eta_ground"] = eta1
    summary["fitted_nu_ground"] = slope
    summary["fitted_nu_ground_drift"] = drift

    # Eigenpairs from the symmetry solve: in a sector, the signed level
    # whose magnitude is its level_idx-th singular value.
    def signed_pair(sec: AngularSector, level_idx: int) -> RadialEigenpair:
        E_k = sorted((e for e, s in signed if s == sec), key=abs)[level_idx]
        return memoized(mit_eigenpair, p, sec, E_k)

    # The eta form on the degenerate ground level is a multiple of identity:
    # every min-max value equals eta (the farthest one is recorded).  The
    # kj=+1 level at E = -lam1 is the second copy of the level.
    nus = nu_minmax([u1, signed_pair(AngularSector(1), 0)], lam1, p)
    worst = max(nus, key=lambda nu: abs(nu - eta1))
    records.append(check("dirac.nu.degenerate", eta1, worst, 1e-12 * max(1.0, abs(eta1))))

    # The next level, kj=-1 level 2: its slope is computed and reported,
    # never asserted.
    u_k = signed_pair(GROUND_SECTOR, 1)
    eta_k = eta_functional(u_k, abs(u_k.energy), p)
    sq_k = _pmap(lambda m: hm_pair(m)[1] ** 2, slope_grid)
    _, slope_k = fit_inverse_m(list(zip(slope_grid, sq_k)))
    label = f"{GROUND_SECTOR.label()};k=2"
    records.append(check("dirac.slope.higher", eta_k, slope_k, 0.0, sector=label))
    summary[f"higher_slope[{label}]"] = slope_k
    summary[f"higher_eta[{label}]"] = eta_k
    return records, summary


# ----------------------------------------------------------------------------
# Robin suite
# ----------------------------------------------------------------------------


def run_robin_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    R = config.geometry.R
    tol = config.tolerances
    p0 = DiracParams(R=R)

    # Upper bound lambda_int <= lambda^2 (up to 1e-9 relative and absolute
    # rounding) per sector, on three distinct levels: kj=-1 levels 1 and 2
    # and kj=-2 level 1.
    bag_levels = {
        kj: mit_eigenvalues(p0, AngularSector(kj), count, tol=tol) for kj, count in ((-1, 2), (-2, 1))
    }
    lam1 = bag_levels[-1][0]
    u1 = memoized(mit_eigenpair, p0, GROUND_SECTOR, lam1)
    mu1 = mu_functional(u1, p0)
    summary["mu_ground"] = mu1
    for m in (50.0, 200.0, 800.0):
        pm = DiracParams(R=R, m=m)
        for kj, levels in bag_levels.items():
            sector = AngularSector(kj)
            robin = robin_laplacian_eigenvalues(pm, sector, len(levels), tol=tol)
            for k, (lam, lam_int) in enumerate(zip(levels, robin, strict=True), start=1):
                records.append(check("robin.upper_bound", lam**2, lam_int, 1e-9 * (lam**2 + 1.0), m=m,
                                     sector=f"{sector.label()};k={k}"))

    def robin_ground(m: float) -> float:
        return robin_laplacian_eigenvalues(DiracParams(R=R, m=m), GROUND_SECTOR, 1, tol=tol)[0]

    # First-order slope against the Robin-trace functional.
    slope_grid = config.m_grid or SLOPE_M_GRID
    lam_int_values = _pmap(robin_ground, slope_grid)
    slope, drift = slope_drift(list(zip(slope_grid, lam_int_values)))
    records.append(check("robin.slope.mu", mu1, slope, 0.05))
    tail_grid = (1e3, 1e4, 1e5, 1e6)
    tail_values = _pmap(robin_ground, tail_grid)
    tail_limit, _ = fit_inverse_m(list(zip(tail_grid, tail_values)))
    records.append(check("robin.slope.limit", lam1**2, tail_limit, 1e-6))
    summary["fitted_mu_ground"] = slope
    summary["fitted_mu_ground_drift"] = drift

    # Cross-solver consistency pins the projection sign conventions.
    lam_int_huge = tail_values[tail_grid.index(1e6)]
    records.append(check("robin.cross_solver", lam1**2, lam_int_huge, 1e-3, m=1e6))

    # Exact boundary identity between the Robin and bag eigenpairs.
    for m in (200.0, 800.0):
        pm = DiracParams(R=R, m=m)
        u_int = memoized(robin_eigenpair, pm, GROUND_SECTOR, robin_ground(m))
        residual = boundary_identity_check(u_int, u1, m, pm)
        records.append(check("robin.identity", 0.0, residual, 1e-6, m=m, sector=GROUND_SECTOR.label()))

    # Residual decreases as the solver tolerance tightens (these solves use
    # their own tolerances by design).  The bag pair is solved at least as
    # tightly as the tight Robin solve, so that its own error cannot
    # dominate both residuals when the configured tolerance is loose.
    pm = DiracParams(R=R, m=200.0)
    tight = ToleranceConfig(abs_tol=0.0, rel_tol=1e-12, max_iter=300)
    u_study = u1
    if tol.abs_tol > 0.0 or tol.rel_tol > tight.rel_tol:
        lam_study = mit_eigenvalues(p0, GROUND_SECTOR, 1, tol=tight)[0]
        u_study = memoized(mit_eigenpair, p0, GROUND_SECTOR, lam_study)
    res_by_tol = []
    for study_tol in (ToleranceConfig(abs_tol=0.0, rel_tol=1e-6, max_iter=300), tight):
        lam_int = robin_laplacian_eigenvalues(pm, GROUND_SECTOR, 1, tol=study_tol)[0]
        u_int = memoized(robin_eigenpair, pm, GROUND_SECTOR, lam_int)
        res_by_tol.append(boundary_identity_check(u_int, u_study, 200.0, pm))
    records.append(check("robin.identity.tol_study", res_by_tol[0], res_by_tol[1], 0.0, m=200.0))
    return records, summary


_SUITE_RUNNERS: dict[str, Callable[[SuiteConfig], tuple[list[CheckRecord], dict[str, Any]]]] = {
    "transverse": run_transverse_suite,
    "exterior": run_exterior_suite,
    "dirac": run_dirac_suite,
    "robin": run_robin_suite,
}
