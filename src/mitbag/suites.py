"""The four verification suites: transverse, exterior, dirac and robin.

Each runner turns a validated ``cli.SuiteConfig`` into summary values and
check rows, each built by ``report.check`` from its id's entry in
``report.CHECKS``, so its verdict follows from the row alone.  Sweeps run
serially in a fixed order, so identical configurations produce identical rows.
The transverse suite solves the curvature sweep as the config built it
(``SuiteConfig.transverse_sweep``, each pair with its series coefficients) in
one stack with its flat and seeded problems.  The dirac and robin suites read
each level's exact expansion in 1/m from its determinant.

``_pmap``, the sweeps' serial map, is a named seam for tracing: the benchmark
tracer finds it and the runners on ``cli``, which re-imports them, and
rebinds every alias of what it wraps in every ``mitbag`` module and dict, so
calls through this module's names are traced (a captured alias, such as a
default argument or a closure over ``_pmap``, would not be).
"""

from __future__ import annotations

import math
import random
import sys
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
    largemass_expansion,
    largemass_spectrum_signed,
    mit_eigenpair,
    mit_eigenvalues,
    mit_spectrum_signed,
    mu_functional,
    nu_minmax,
    robin_eigenpair,
    robin_expansion,
    robin_laplacian_eigenvalues,
)
from .exterior import (
    agmon_decay_check,
    ball_exterior_dtn,
    dtn_series,
    effective_energy,
    exterior_energy,
    exterior_energy_only,
    flat_effective_gap,
    halfspace_mode_energy,
    mass_deviation,
    mass_estimate_check,
    sphere_datum,
    torus_datum,
)
from .numerics import ToleranceConfig, libm, memoized
from .report import CheckRecord, check
from .transverse import (
    CurvatureData,
    TransverseProblem,
    TransverseSolution,
    ansatz_residual_coefficients,
    expansion_coefficients,
    flat_ansatz_residual,
    residual_of_ansatz,
    solve_transverse,
    transverse_form,
)

if TYPE_CHECKING:
    from .cli import SuiteConfig

DEFAULT_CURVATURE_GRID: tuple[tuple[float, float], ...] = tuple(
    (k, K) for k in (-3.0, -1.0, 0.0, 1.0, 3.0) for K in (-2.0, 0.0, 1.0, 2.0)
)
TRANSVERSE_M_GRID = (400.0, 1600.0, 6400.0)
EXTERIOR_M_GRID = (1e2, 1e3, 1e4)
SERIES_M_GRID = (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0)
CONVERGENCE_M_GRID = (1e2, 1e3, 1e4, 1e5, 1e6)
GROUND_SECTOR = AngularSector(-1)


def _pmap(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """Order-preserving serial map over a sweep (a named seam for tracing)."""
    return [fn(x) for x in items]


def _tightest(observed: Sequence[float], bound: Sequence[float]) -> int:
    """Index where ``observed <= bound`` holds with the least margin, or an
    index where it fails (NaN included) if there is one."""
    return max(range(len(observed)), key=lambda j: (not observed[j] <= bound[j], observed[j] - bound[j]))


def _series_check(check_id: str, lam: float, a: float, b: float, levels: Sequence[tuple[float, float]],
                  tol: ToleranceConfig, sector: str) -> CheckRecord:
    """The row of the solved levels, (m, lambda_m^2) pairs, against lam^2 + a/m
    within 2|b|/m^2 plus 8 (rel_tol + 4 eps) lam^2, twice the error of the
    two squares (``find_root_bracketed`` returns each level within a relative
    rel_tol + 4 eps of its root), recorded at the tightest mass."""
    rounding = 8.0 * (tol.rel_tol + 4.0 * sys.float_info.epsilon) * lam * lam
    expected = [lam * lam + a / m for m, _ in levels]
    bound = [2.0 * abs(b) / (m * m) + rounding for m, _ in levels]
    i = _tightest([abs(square - e) for (_, square), e in zip(levels, expected)], bound)
    return check(check_id, expected[i], levels[i][1], bound[i], m=levels[i][0], sector=sector)


# ----------------------------------------------------------------------------
# Transverse suite
# ----------------------------------------------------------------------------


def _transverse_sweep_records(
    per_pair: Sequence[tuple[tuple[float, float], Sequence[TransverseProblem], Sequence[float]]],
    sols: Sequence[TransverseSolution],
) -> list[CheckRecord]:
    """Each curvature pair's energies and masses, solved in the order of its
    problems, against its series coefficients (``expansion_coefficients``)
    through m^-10 within 1e-13 plus twice the next two terms, recorded at the
    tightest mass."""
    records = []
    solved = iter(sols)
    for (kappa, gauss), probs, lam_coef in per_pair:
        pair_sols = [next(solved) for _ in probs]
        mass_coef = [(1 - n) * c / 2.0 for n, c in enumerate(lam_coef)]
        inverse_powers = [(prob.m**-11, prob.m**-12) for prob in probs]
        for check_id, coef, observed in (
            ("transverse.series.lambda", lam_coef, [sol.lam for sol in pair_sols]),
            ("transverse.series.mass", mass_coef, [sol.mass for sol in pair_sols]),
        ):
            expected, tol = [], []
            for prob, (m_11, m_12) in zip(probs, inverse_powers):
                total = 0.0
                for c in reversed(coef[:11]):  # Horner in 1/m
                    total = total / prob.m + c
                expected.append(total)
                tol.append(1e-13 + 2.0 * (abs(coef[11]) * m_11 + abs(coef[12]) * m_12))
            i = _tightest([abs(o - e) for o, e in zip(observed, expected)], tol)
            records.append(check(check_id, expected[i], observed[i], tol[i], m=probs[i].m, kappa=kappa, gauss=gauss))
    return records


def run_transverse_suite(config: SuiteConfig) -> tuple[list[CheckRecord], dict[str, Any]]:
    records: list[CheckRecord] = []
    summary: dict[str, Any] = {}
    flat_probs = [TransverseProblem(m=m, curv=CurvatureData.flat()) for m in (4.0, 1e4)]
    per_pair = config.transverse_sweep
    seeded = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))  # minimality on seeded test functions
    # Every problem of the suite goes to one stacked solve.
    sols = solve_transverse([*flat_probs, *(prob for _, probs, _ in per_pair for prob in probs), seeded])
    (sol4, sol_large), sweep_sols, sol = sols[: len(flat_probs)], sols[len(flat_probs) : -1], sols[-1]
    # Deterministic size counter: the Taylor-series segments of the solve.
    summary["transverse_elements"] = sum(len(sol.tau) - 1 for sol in sols)

    # Flat closed forms: the profile is sinh(sqrt(m)-tau)/sinh(sqrt(m)).
    lam_exact = 1.0 / math.tanh(2.0)
    mass_exact = (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
    records.append(check("transverse.flat.lambda.m4", lam_exact, sol4.lam, 1e-9, m=4.0, kappa=0.0, gauss=0.0))
    records.append(check("transverse.flat.mass.m4", mass_exact, sol4.mass, 1e-6, m=4.0, kappa=0.0, gauss=0.0))
    records.append(check("transverse.flat.limit.m1e4", 1.0, sol_large.lam, 1e-8, m=1e4, kappa=0.0, gauss=0.0))

    # Curvature sweep: energies and masses against their series.
    records.extend(_transverse_sweep_records(per_pair, sweep_sols))

    # Sphere cancellation is an exact arithmetic identity: K = kappa^2/4
    # kills the series' 1/m^2 coefficient.
    worst = 0.0
    for kappa in (1.0, 2.0, 3.0):
        c0, c1, c2 = expansion_coefficients(CurvatureData(kappa, kappa**2 / 4.0))[:3]
        worst = max(worst, abs(c0 + c1 / 64.0 + c2 / 64.0**2 - (1.0 + kappa / (2.0 * 64.0))))
    records.append(check("transverse.sphere.cancellation", 0.0, worst, 0.0))

    # Minimality and the Pythagoras identity on seeded test functions.  The
    # seeded draws take the standard library's generator: importing
    # numpy.random would add ~6 MiB to every verify process's peak RSS.
    rng = random.Random(config.seed)
    T = seeded.half_width
    coeffs = np.array([[rng.uniform(-0.5, 0.5) for _ in range(3)] for _ in range(5)])

    def seeded_and_differences(tau):
        # The five seeded test functions w, then the five w - u, in one stack.
        decay = libm(math.exp, -tau)
        base = decay * (1.0 - tau / T)
        dbase = -decay * (1.0 - tau / T) - decay / T
        bump = sum(c[:, None] * libm(math.sin, (j + 1) * math.pi * tau / T) for j, c in enumerate(coeffs.T))
        dbump = sum(
            c[:, None] * (j + 1) * math.pi / T * libm(math.cos, (j + 1) * math.pi * tau / T)
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

    # Cutoff-ansatz residual, one stacked call.  Curved: m^3 r = C + C4/m +
    # O(m^-2), within 2|C4|/m plus 1e-12 C for the collar rule and rounding,
    # at masses where the cutoff's share (~e^{-sqrt(m)/2}) is below rounding,
    # recorded where tightest.  Flat: the cutoff's share alone, in closed form.
    curved = CurvatureData(3.0, 1.0)
    masses = (6400.0, 25600.0)
    *res, flat_res = residual_of_ansatz([*(TransverseProblem(m=m, curv=curved) for m in masses),
                                         TransverseProblem(m=100.0, curv=CurvatureData.flat())])
    c, c4 = ansatz_residual_coefficients(curved)
    scaled = [r * m**3 for r, m in zip(res, masses)]
    tol = [2.0 * abs(c4) / m + 1e-12 * c for m in masses]
    i = _tightest([abs(v - c) for v in scaled], tol)
    records.append(check("transverse.residual.order", c, scaled[i], tol[i], m=masses[i], kappa=3.0, gauss=1.0))
    records.append(check("transverse.residual.flat", flat_ansatz_residual(100.0), flat_res, 1e-12, m=100.0,
                         kappa=0.0, gauss=0.0))
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
        records.append(check("exterior.dtn.l1", m * (m * R / (m * R + 1.0)) + 2.0 / R, ball_exterior_dtn(m, R, 1),
                             1e-10, m=m, sector="ell=1"))
        mass = exterior_energy(sphere_datum(R, {0: math.sqrt(4.0 * math.pi)}), m).exterior_mass
        records.append(check("exterior.mass.l0", 4.0 * math.pi / (2.0 * m), mass, 1e-10, m=m, sector="ell=0"))

    # The energies' and masses' 1/m expansions against their exact coefficients
    # (DtN_l = m + 1/R + sum_n Q_n R^-(n+2) m^-(n+1), ``dtn_series``; the flat
    # mode's sqrt(m^2 + xi^2); mass = d(energy)/dm / (2m)): each row holds its
    # leading term within twice the next two plus the observed path's rounding.
    # The sphere gap subtracts energies of size m, so it stays unscaled (its
    # rounding 64 eps E_eff, times m^2, would overflow past m ~ 1e102); the flat
    # gap and the masses, formed without cancellation, are m^3-scaled.
    eps = sys.float_info.epsilon
    sphere = sphere_datum(R, {0: 1.0, 1: 0.7, 3: 0.4})
    flat = torus_datum(FLAT_PERIOD, {(0, 0): 1.0, (1, 0): 0.6, (2, 1): 0.3})
    q = {ell: [float(c) for c in dtn_series(ell)] for ell in (0, 1, 2, 3, 5)}

    def weighted(v, per_mode: Callable[[float], float]) -> float:
        return sum(abs(c) ** 2 * per_mode(key) for key, c in v.modes)

    def sphere_gap(v, m: float, energy: float) -> tuple[float, float, float, float]:
        # (leading term, observed, bound, rounding) of the exact energy's gap; u = 1/(mR)
        u, effective = 1.0 / (m * R), effective_energy(v, m)
        rounding = 64.0 * eps * effective
        next_terms = weighted(v, lambda ell: (abs(q[ell][2]) * u**3 + abs(q[ell][3]) * u**4) / R)
        return weighted(v, lambda ell: q[ell][1] * u * u / R), energy - effective, 2.0 * next_terms + rounding, rounding

    # The cancellation-free rows, each (leading term, observed, bound).
    def flat_gap(m: float) -> tuple[float, float, float]:
        lead = weighted(flat, lambda xi: -xi**4 / 8.0)
        next_terms = weighted(flat, lambda xi: (xi**6 / 16.0 + 5.0 * xi**8 / (128.0 * m * m)) / (m * m))
        return lead, flat_effective_gap(flat, m), 2.0 * next_terms + 16.0 * eps * abs(lead)

    def sphere_mass(m: float) -> tuple[float, float, float]:
        lead = weighted(sphere, lambda ell: -q[ell][0] / (2.0 * R * R))
        next_terms = weighted(sphere, lambda ell: (abs(q[ell][1]) + 1.5 * abs(q[ell][2]) / (m * R)) / (m * R**3))
        return lead, mass_deviation(sphere, m), 2.0 * next_terms + 16.0 * eps * abs(lead)

    def flat_mass(m: float) -> tuple[float, float, float]:
        lead = weighted(flat, lambda xi: -xi * xi / 4.0)
        next_terms = weighted(flat, lambda xi: (3.0 * xi**4 / 16.0 + 5.0 * xi**6 / (32.0 * m * m)) / (m * m))
        return lead, mass_deviation(flat, m), 2.0 * next_terms + 16.0 * eps * abs(lead)

    records.extend(check("exterior.effective.rate.sphere", *sphere_gap(sphere, m, exterior_energy_only(sphere, m))[:3],
                         m=m) for m in m_grid)
    records.extend(check("exterior.effective.rate.flat", *flat_gap(m), m=m) for m in m_grid)

    # Per mode, the exact DtN value sits below its effective expansion by
    # Q_1/(R^3 m^2) (the expansion is exact at l = 0); each row is recorded at
    # the mass where it is tightest.
    for ell in (1, 2, 3, 5):
        unit = sphere_datum(R, {ell: 1.0})
        lead, gaps, bound, rounding = zip(*(sphere_gap(unit, m, ball_exterior_dtn(m, R, ell)) for m in m_grid))
        i = _tightest([abs(g - e) for g, e in zip(gaps, lead)], bound)
        records.append(check("exterior.sandwich", lead[i], gaps[i], bound[i], m=m_grid[i], sector=f"ell={ell}"))
        i = _tightest(gaps, rounding)
        records.append(check("exterior.sandwich.sign", 0.0, gaps[i], rounding[i], m=m_grid[i], sector=f"ell={ell}"))

    # Mass estimate: exactly zero for the pure l=0 datum; on the mixed data
    # m^3 (mass - ||v||^2/(2m)) is -sum |c|^2 (d_2/2 + d_3/m + 3 d_4/(2m^2) ...),
    # d_(n+2) = Q_n/R^(n+2), and -sum |c|^2 (xi^2/4 - 3 xi^4/(16m^2) + ...) flat.
    v0 = sphere_datum(R, {0: 2.0})
    check0 = mass_estimate_check(exterior_energy(v0, m_grid[0]), v0, m_grid[0])
    records.append(check("exterior.mass_estimate.l0", 0.0, check0, 1e-10, m=m_grid[0], sector="ell=0"))
    records.extend(check("exterior.mass_estimate.sphere", *sphere_mass(m), m=m) for m in m_grid)
    records.extend(check("exterior.mass_estimate.flat", *flat_mass(m), m=m) for m in m_grid)

    # Mode additivity with seeded coefficients (diagonalized problem), each
    # mode's DtN value taken by the independent ratio recurrence.
    rng = random.Random(config.seed)
    coeffs = {ell: complex(rng.normalvariate(0.0, 1.0), rng.normalvariate(0.0, 1.0)) for ell in (0, 1, 2, 4)}
    energy = exterior_energy_only(sphere_datum(R, coeffs), 300.0)
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

    # Agmon decay: weighted mass ratio within 10% of its limit 1/(1-gamma);
    # at l = 0 the ratio is exactly 1/(1-gamma), the double nearest it up to
    # the two roundings of the expected value.
    for gamma in (0.3, 0.5, 0.9):
        for m in m_grid:
            records.append(check("exterior.agmon", 1.0 / (1.0 - gamma), agmon_decay_check(m, R, 1, gamma), 0.1, m=m,
                                 sector=f"gamma={gamma}"))
    ratio0 = agmon_decay_check(m_grid[0], R, 0, 0.01)
    records.append(check("exterior.agmon.gamma0", 1.0 / (1.0 - 0.01), ratio0, 4.0 * eps, m=m_grid[0],
                         sector="gamma=0.01"))
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

    # Charge-conjugation symmetry of the signed large-mass spectrum (at m0 = 0
    # the bag branches are conjugate by construction; the solve shares them).
    p100 = DiracParams(R=R, m=100.0)
    defect = charge_conjugation_check(largemass_spectrum_signed(p100, sectors, 2, tol=tol))
    records.append(check("dirac.hm.symmetry", 0.0, defect, 1e-9, m=100.0))

    # Convergence of the first two sector levels along the pinned m-grid:
    # each gap stays within the previous one (the first has no predecessor,
    # so its bound is infinite), and the last is below 1e-4.  The two lowest
    # ground-sector levels at each mass serve the series rows as well; their
    # scans read the Bessel pairs that the bag solves of the sector left in
    # the run's scan grid.
    masses = tuple(dict.fromkeys((*CONVERGENCE_M_GRID, *(config.m_grid or SERIES_M_GRID))))
    hm_pair = {m: largemass_eigenvalues(DiracParams(R=R, m=m), GROUND_SECTOR, 2, tol=tol) for m in masses}
    hm_levels = _pmap(hm_pair.__getitem__, CONVERGENCE_M_GRID)

    for k in (0, 1):
        sector = f"{GROUND_SECTOR.label()};k={k + 1}"
        gaps = [abs(levels[k] - mit_levels[k]) for levels in hm_levels]
        for m, prev, gap in zip(CONVERGENCE_M_GRID, [math.inf] + gaps[:-1], gaps):
            records.append(check("dirac.convergence", prev, gap, 1e-9, m=m, sector=sector))
        records.append(check("dirac.convergence.final", 0.0, gaps[-1], 1e-4, m=CONVERGENCE_M_GRID[-1], sector=sector))

    # Eigenpairs from the symmetry solve: in a sector, the signed level
    # whose magnitude is its level_idx-th singular value.
    def signed_pair(sec: AngularSector, level_idx: int) -> RadialEigenpair:
        E_k = sorted((e for e, s in signed if s == sec), key=abs)[level_idx]
        return memoized(mit_eigenpair, p, sec, E_k)

    # First-order law from the determinant, at the ground level and at
    # kj=-1 level 2: its exact coefficient a of 1/m is the eta functional,
    # and the solved levels follow lambda^2 + a/m up to the b/m^2 term.  Both
    # a and eta are evaluated at the solved bag level, and an error of the
    # level moves them apart by at most its own relative size, so they agree
    # to 1e-12, or 4 rel_tol where the solves are looser.
    u1 = memoized(mit_eigenpair, p, GROUND_SECTOR, lam1)
    u_k = signed_pair(GROUND_SECTOR, 1)
    coef_tol = max(1e-12, 4.0 * tol.rel_tol)
    etas = []
    for k, u in enumerate((u1, u_k)):
        sector = f"{GROUND_SECTOR.label()};k={k + 1}"
        lam = abs(u.energy)
        a, b = largemass_expansion(p, GROUND_SECTOR, u.energy)
        etas.append((eta_functional(u, lam, p), a))
        records.append(check("dirac.expansion.eta", etas[-1][0], a, coef_tol, sector=sector))
        squares = _pmap(lambda m: (m, hm_pair[m][k] ** 2), masses)
        records.append(_series_check("dirac.series.level", lam, a, b, squares, tol, sector))
    (eta1, a1), (eta_k, _) = etas
    summary["eta_ground"] = eta1
    summary[f"higher_eta[{GROUND_SECTOR.label()};k=2]"] = eta_k

    # The eta form on the degenerate ground level is a multiple of identity:
    # every min-max value equals the determinant's a (the farthest one is
    # recorded).  The kj=+1 level at E = -lam1 is the second copy of the level.
    nus = nu_minmax([u1, signed_pair(AngularSector(1), 0)], lam1, p)
    worst = max(nus, key=lambda nu: abs(nu - a1))
    records.append(check("dirac.nu.degenerate", a1, worst, coef_tol * max(1.0, abs(eta1))))
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

    # Every Robin level of the suite, one solve per (kappa_j, m, tol) for the
    # most levels a check reads there: the upper-bound levels below and the
    # ground level at the series masses (the configured grid and a fixed
    # tail up to the cross-solver mass), at the identity masses and at the
    # tolerance study's mass and tolerances (the study's solves use their
    # own tolerances by design).  The solves of a sector share its scan grid.
    bound_grid = (50.0, 200.0, 800.0)
    series_grid = tuple(dict.fromkeys((*(config.m_grid or SERIES_M_GRID), 1e3, 1e4, 1e5, 1e6)))
    study_tols = tuple(ToleranceConfig(abs_tol=0.0, rel_tol=rel_tol, max_iter=300) for rel_tol in (1e-6, 1e-12))
    need = {(kj, m, tol): len(levels) for m in bound_grid for kj, levels in bag_levels.items()}
    for m in (*series_grid, 200.0, 800.0):
        need.setdefault((-1, m, tol), 1)
    for study_tol in study_tols:
        need.setdefault((-1, 200.0, study_tol), 1)
    robin = {
        (kj, m, t): robin_laplacian_eigenvalues(DiracParams(R=R, m=m), AngularSector(kj), count, tol=t)
        for (kj, m, t), count in need.items()
    }

    for m in bound_grid:
        for kj, levels in bag_levels.items():
            sector = AngularSector(kj)
            for k, (lam, lam_int) in enumerate(zip(levels, robin[kj, m, tol], strict=True), start=1):
                records.append(check("robin.upper_bound", lam**2, lam_int, 1e-9 * (lam**2 + 1.0), m=m,
                                     sector=f"{sector.label()};k={k}"))

    def robin_ground(m: float, study_tol: ToleranceConfig = tol) -> float:
        return robin[-1, m, study_tol][0]

    # First-order law from the determinant, as in the dirac suite: its exact
    # coefficient a of 1/m is the Robin-trace functional.
    a, b = robin_expansion(p0, GROUND_SECTOR, lam1)
    sector = f"{GROUND_SECTOR.label()};k=1"
    records.append(check("robin.expansion.mu", mu1, a, max(1e-12, 4.0 * tol.rel_tol), sector=sector))
    levels = _pmap(lambda m: (m, robin_ground(m)), series_grid)
    records.append(_series_check("robin.series.level", lam1, a, b, levels, tol, sector))

    # Cross-solver consistency pins the projection sign conventions.
    records.append(check("robin.cross_solver", lam1**2, robin_ground(1e6), 1e-3, m=1e6))

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
    tight = study_tols[1]
    u_study = u1
    if tol.abs_tol > 0.0 or tol.rel_tol > tight.rel_tol:
        lam_study = mit_eigenvalues(p0, GROUND_SECTOR, 1, tol=tight)[0]
        u_study = memoized(mit_eigenpair, p0, GROUND_SECTOR, lam_study)
    res_by_tol = []
    for study_tol in study_tols:
        lam_int = robin_ground(200.0, study_tol)
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
