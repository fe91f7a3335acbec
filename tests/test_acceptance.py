"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they are produced.  Every tolerance is pinned here; nothing is
calibrated at run time except the envelope constants the criteria themselves
define as data-fitted.
"""

import math
import time

import mitbag.cli as cli
from mitbag.cli import SuiteConfig
from mitbag.dirac_ball import (
    AngularSector,
    DiracParams,
    boundary_identity_check,
    charge_conjugation_check,
    eta_functional,
    largemass_eigenvalues,
    mit_eigenpair,
    mit_eigenvalues,
    mit_spectrum_signed,
    mu_functional,
    robin_eigenpair,
    robin_laplacian_eigenvalues,
)
from mitbag.exterior import (
    agmon_decay_check,
    ball_exterior_dtn,
    effective_energy,
    exterior_energy,
    sobolev_h32_norm_sq,
    sphere_datum,
    torus_datum,
)
from mitbag.numerics import slope_drift
from mitbag.transverse import CurvatureData, TransverseProblem, solve_transverse

GROUND = AngularSector(-1)
P0 = DiracParams(R=1.0, m0=0.0, m=0.0)

_CACHE: dict = {}


def _verdict(number: int, description: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {description} ({detail})")
    assert passed, f"criterion {number} failed: {detail}"


def transverse_sweep():
    if "sweep" not in _CACHE:
        config = SuiteConfig(suite="transverse")
        start = time.perf_counter()
        records, summary = cli.run_transverse_suite(config)
        _CACHE["sweep"] = (records, summary, time.perf_counter() - start)
    return _CACHE["sweep"]


def ground_data():
    if "ground" not in _CACHE:
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        u1 = mit_eigenpair(P0, GROUND, lam1)
        _CACHE["ground"] = {
            "lam1": lam1,
            "u1": u1,
            "eta": eta_functional(u1, lam1, P0),
            "mu": mu_functional(u1, P0),
        }
    return _CACHE["ground"]


def dirac_slope_points():
    if "slope_points" not in _CACHE:
        start = time.perf_counter()
        points = []
        for m in (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            points.append((m, largemass_eigenvalues(pm, GROUND, 1)[0] ** 2))
        _CACHE["slope_points"] = (points, time.perf_counter() - start)
    return _CACHE["slope_points"]


def _series_rows(check_id):
    """The suite's rows of ``check_id``, one per default curvature pair, and the
    worst |observed - expected| among them."""
    records, _, elapsed = transverse_sweep()
    rows = [r for r in records if r.check_id == check_id]
    ok = len(rows) == len(cli.DEFAULT_CURVATURE_GRID) and all(r.passed for r in rows)
    return ok, max((abs(r.observed - r.expected) for r in rows), default=math.nan), elapsed


def test_criterion_1_transverse_expansion_order():
    # The energy against its exact series through m^-10, so the m^-3 law with
    # its exact coefficient, at 1e-13 plus the next two terms.
    ok, worst, elapsed = _series_rows("transverse.series.lambda")
    _verdict(
        1,
        "transverse expansion order m^-3",
        ok and elapsed <= 30.0,
        f"worst |Lambda - series| {worst:.2e} within 1e-13 + the next terms, runtime {elapsed:.1f}s <= 30s",
    )


def test_criterion_2_transverse_mass():
    # The weighted mass against its exact series 1/2 - c_2/(2m^2) - ..., and
    # the flat closed form at m = 4.
    ok, worst, _ = _series_rows("transverse.series.mass")
    sol = solve_transverse([TransverseProblem(m=4.0, curv=CurvatureData.flat())])[0]
    closed_form = (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
    flat_ok = abs(sol.mass - closed_form) <= 1e-6
    _verdict(
        2,
        "transverse weighted mass 1/2 + O(1/m)",
        ok and flat_ok,
        f"flat m=4 mass {sol.mass:.9f} vs {closed_form:.9f}, worst |mass - series| {worst:.2e}",
    )


def test_criterion_3_exterior_exactness():
    start = time.perf_counter()
    checks = []
    for m in (1e2, 1e3, 1e4):
        checks.append(abs(ball_exterior_dtn(m, 1.0, 0) - (m + 1.0)) <= 1e-10 * (m + 1.0))
        expected = m + 1.0 + 1.0 / (m + 1.0)
        checks.append(abs(ball_exterior_dtn(m, 1.0, 1) - expected) <= 1e-10 * expected)
        v = sphere_datum(1.0, {0: math.sqrt(4.0 * math.pi)})
        mass = exterior_energy(v, m).exterior_mass
        target = 4.0 * math.pi / (2.0 * m)
        checks.append(abs(mass - target) <= 1e-10 * target)
    for R in (0.5, 2.0):
        checks.append(
            abs(ball_exterior_dtn(500.0, R, 0) - (500.0 + 1.0 / R)) <= 1e-10 * 500.0
        )
    elapsed = time.perf_counter() - start
    ok = all(checks) and elapsed <= 5.0
    _verdict(
        3,
        "exterior Dirichlet-to-Neumann and mass closed forms at 1e-10",
        ok,
        f"{sum(checks)}/{len(checks)} exact, runtime {elapsed:.2f}s <= 5s",
    )


def test_criterion_4_effective_functional_rate():
    sphere_v = sphere_datum(1.0, {0: 1.0, 1: 0.7, 3: 0.4})
    flat_v = torus_datum(2.0 * math.pi, {(0, 0): 1.0, (1, 0): 0.6, (2, 1): 0.3})
    ok = True
    details = []
    for label, v in (("sphere", sphere_v), ("flat", flat_v)):
        h32 = sobolev_h32_norm_sq(v)
        values = []
        for m in (1e2, 1e3, 1e4):
            gap = abs(exterior_energy(v, m).energy - effective_energy(v, m))
            values.append(m**1.5 * gap / h32)
        ok = ok and all(val <= values[0] * (1.0 + 1e-9) for val in values)
        ok = ok and values[-1] < values[0]
        details.append(f"{label}: {values[0]:.4g} -> {values[-1]:.4g}")
    _verdict(4, "effective boundary energy within m^-3/2 rate", ok, "; ".join(details))


def test_criterion_5_bag_ground_state():
    data = ground_data()

    def f(x):
        return math.tan(x) - x / (1.0 - x)

    a, b = 1.6, 2.5
    fa = f(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if fa * f(mid) <= 0.0:
            b = mid
        else:
            a, fa = mid, f(mid)
    oracle = 0.5 * (a + b)
    sectors = [AngularSector(k) for k in (-2, -1, 1, 2)]
    defect = charge_conjugation_check(mit_spectrum_signed(P0, sectors, 3))
    ok = abs(data["lam1"] - oracle) <= 1e-5 and defect <= 1e-9
    _verdict(
        5,
        "bag ground state and spectral symmetry",
        ok,
        f"lam1={data['lam1']:.7f} vs oracle {oracle:.7f}, symmetry defect {defect:.1e}",
    )


def test_criterion_6_dirac_convergence():
    data = ground_data()
    gaps = []
    for m in (1e2, 1e3, 1e4, 1e5, 1e6):
        pm = DiracParams(R=1.0, m0=0.0, m=m)
        lam_m = largemass_eigenvalues(pm, GROUND, 1)[0]
        gaps.append(abs(lam_m - data["lam1"]))
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    ok = decreasing and gaps[-1] <= 1e-4
    _verdict(
        6,
        "large-mass eigenvalues converge to the bag values",
        ok,
        f"gap at m=1e6 is {gaps[-1]:.2e} <= 1e-4, monotone over five decades",
    )


def test_criterion_7_first_order_dirac_law():
    data = ground_data()
    points, elapsed = dirac_slope_points()
    slope, drift = slope_drift(points)
    eta = data["eta"]
    rel_gap = abs(slope - eta) / abs(eta)
    ok = rel_gap <= 0.05 and drift <= 0.02 and elapsed <= 120.0
    _verdict(
        7,
        "squared-eigenvalue slope matches the eta functional",
        ok,
        f"slope {slope:.5f} vs eta {eta:.5f} ({100 * rel_gap:.2f}% <= 5%), "
        f"drift {100 * drift:.2f}% <= 2%, runtime {elapsed:.1f}s <= 120s",
    )


def test_criterion_8_robin_laplacian():
    data = ground_data()
    lam1 = data["lam1"]
    mu = data["mu"]
    # Robin <= bag^2 level by level in each sector; each radial level has
    # the multiplicity 2|kappa_j| in both spectra, so this bounds the merged
    # orderings as well.
    upper_ok = True
    least_margin = math.inf
    for kj in (-2, -1, 1, 2):
        bag = mit_eigenvalues(P0, AngularSector(kj), 6)
        for m in (50.0, 200.0, 800.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            robin = robin_laplacian_eigenvalues(pm, AngularSector(kj), 6)
            for lam, lam_int in zip(bag, robin, strict=True):
                upper_ok = upper_ok and lam_int <= lam**2 * (1 + 1e-9) + 1e-9
                least_margin = min(least_margin, lam**2 - lam_int)
    points = []
    for m in (50.0, 100.0, 200.0, 400.0, 800.0, 1600.0):
        pm = DiracParams(R=1.0, m0=0.0, m=m)
        points.append((m, robin_laplacian_eigenvalues(pm, GROUND, 1)[0]))
    slope, _ = slope_drift(points)
    slope_ok = abs(slope - mu) <= 0.05 * abs(mu)
    lam_int_huge = robin_laplacian_eigenvalues(
        DiracParams(R=1.0, m0=0.0, m=1e6), GROUND, 1
    )[0]
    cross_ok = abs(lam_int_huge - lam1**2) <= 1e-3 * lam1**2
    ok = upper_ok and slope_ok and cross_ok
    _verdict(
        8,
        "Robin-type Laplacian: upper bound, slope, cross-solver limit",
        ok,
        f"least margin of Robin <= bag^2 {least_margin:.2e} over 72 levels, "
        f"slope {slope:.5f} vs mu {mu:.5f}, limit gap "
        f"{abs(lam_int_huge - lam1**2) / lam1**2:.2e} <= 1e-3",
    )


def test_criterion_9_boundary_identity():
    data = ground_data()
    residuals = []
    for m in (200.0, 800.0):
        pm = DiracParams(R=1.0, m0=0.0, m=m)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
        u_int = robin_eigenpair(pm, GROUND, lam_int)
        residuals.append(boundary_identity_check(u_int, data["u1"], m, pm))
    ok = all(r <= 1e-6 for r in residuals)
    _verdict(
        9,
        "cross-operator boundary identity",
        ok,
        f"relative residuals {residuals[0]:.1e}, {residuals[1]:.1e} <= 1e-6",
    )


def test_criterion_10_agmon_decay():
    worst = 0.0
    ok = True
    for gamma in (0.3, 0.5, 0.9):
        bound = 1.1 / (1.0 - gamma)
        for m in (1e2, 1e3, 1e4):
            ratio = agmon_decay_check(m, 1.0, 1, gamma)
            worst = max(worst, ratio * (1.0 - gamma))
            ok = ok and ratio <= bound
    _verdict(
        10,
        "exterior Agmon-weighted mass ratio",
        ok,
        f"max (1-gamma)-normalized ratio {worst:.4f} <= 1.1",
    )
