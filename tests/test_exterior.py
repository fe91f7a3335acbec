"""Exterior model problems: per-mode energies, effective functional, decay."""

import functools
import math
import warnings

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mitbag.exterior as exterior
from mitbag.cli import BallInterior, SuiteConfig, run_suite
from mitbag.exterior import (
    AgmonDivergenceError,
    ExteriorSolution,
    FlatDatum,
    SphereDatum,
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
from mitbag.special import BesselOverflowError

FOUR_PI = 4.0 * math.pi


class TestHalfspaceMode:
    def test_constant_datum(self):
        assert halfspace_mode_energy(7.0, 0.0) == 7.0

    def test_pythagorean_triple(self):
        assert halfspace_mode_energy(4.0, 3.0) == pytest.approx(5.0, abs=0.0)

    def test_taylor_remainder(self):
        m, xi = 100.0, 2.0
        exact = halfspace_mode_energy(m, xi)
        approx = m + xi**2 / (2.0 * m)
        assert abs(exact - approx) <= xi**4 / (8.0 * m**3)

    def test_validation(self):
        with pytest.raises(ValueError):
            halfspace_mode_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            halfspace_mode_energy(1.0, -1.0)


@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_non_finite_mass_or_frequency_is_refused(bad):
    # Each call would otherwise return NaN or an infinity without a word.
    sphere = sphere_datum(1.0, {0: 1.0, 1: 0.5})
    flat = torus_datum(2.0, {(1, 0): 1.0})
    sol = ExteriorSolution(energy=1.0, exterior_mass=0.5)
    calls = (
        lambda: halfspace_mode_energy(bad, 1.0),
        lambda: effective_energy(sphere, bad),
        lambda: effective_energy(flat, bad),
        lambda: exterior_energy(flat, bad),
        lambda: flat_effective_gap(flat, bad),
        lambda: mass_estimate_check(sol, sphere, bad),
    )
    for call in calls:
        with pytest.raises(ValueError, match="m must be positive and finite"):
            call()
    with pytest.raises(ValueError, match="xi_norm must be nonnegative and finite"):
        halfspace_mode_energy(1.0, bad)


class TestBallDtn:
    @pytest.mark.parametrize("m", (1.0, 10.0, 100.0, 1e4, 1e6))
    @pytest.mark.parametrize("R", (0.5, 1.0, 2.0))
    def test_monopole_closed_form(self, m, R):
        assert ball_exterior_dtn(m, R, 0) == pytest.approx(m + 1.0 / R, rel=1e-14)

    @pytest.mark.parametrize("m", (1.0, 10.0, 100.0, 1e4))
    def test_dipole_closed_form(self, m):
        expected = m + 1.0 + 1.0 / (m + 1.0)
        assert ball_exterior_dtn(m, 1.0, 1) == pytest.approx(expected, rel=1e-14)

    def test_gap_to_effective_expansion(self):
        m = 100.0
        exact = ball_exterior_dtn(m, 1.0, 1)
        assert exact - 101.01 == pytest.approx(1.0 / (m + 1.0) - 1.0 / m, rel=1e-10)

    def test_monotone_in_mass(self):
        values = [ball_exterior_dtn(m, 1.0, 2) for m in (10.0, 20.0, 40.0, 80.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestEffectiveEnergy:
    def test_sphere_monopole(self):
        v = sphere_datum(1.0, {0: 1.0})
        assert effective_energy(v, 50.0) == pytest.approx(51.0, rel=1e-15)

    def test_sphere_dipole(self):
        v = sphere_datum(1.0, {1: 1.0})
        m = 50.0
        assert effective_energy(v, m) == pytest.approx(m + 1.0 + 1.0 / m, rel=1e-15)

    def test_sphere_radius(self):
        # m + kappa/2 + l(l+1)/(2 R^2 m) with kappa = 2/R; K/2 - kappa^2/8 = 0.
        v = sphere_datum(2.0, {1: 1.0})
        m = 50.0
        assert effective_energy(v, m) == pytest.approx(m + 0.5 + 0.25 / m, rel=1e-15)

    def test_flat_mode(self):
        v = torus_datum(2.0 * math.pi, {(2, 0): 1.0})
        m = 40.0
        assert effective_energy(v, m) == pytest.approx(m + 4.0 / (2.0 * m), rel=1e-14)


class TestExteriorEnergy:
    def test_constant_sphere_datum(self):
        # v = 1 on the unit sphere: coefficient sqrt(4 pi) on the unit mode.
        v = sphere_datum(1.0, {0: math.sqrt(FOUR_PI)})
        m = 30.0
        sol = exterior_energy(v, m)
        assert sol.energy == pytest.approx(FOUR_PI * (m + 1.0), rel=1e-13)
        assert sol.exterior_mass == pytest.approx(FOUR_PI / (2.0 * m), rel=1e-10)

    def test_flat_single_mode(self):
        v = torus_datum(2.0 * math.pi, {(1, 1): 2.0})
        m = 12.0
        xi = math.sqrt(2.0)
        sol = exterior_energy(v, m)
        assert sol.energy == pytest.approx(4.0 * math.hypot(m, xi), rel=1e-14)
        assert sol.exterior_mass == pytest.approx(4.0 / (2.0 * math.hypot(m, xi)), rel=1e-14)

    def test_empty_datum(self):
        v = SphereDatum(1.0, ())
        sol = exterior_energy(v, 10.0)
        assert sol.energy == 0.0 and sol.exterior_mass == 0.0

    @settings(max_examples=20, deadline=None)
    @given(
        c0=st.floats(-2.0, 2.0),
        c1=st.floats(-2.0, 2.0),
        c3=st.floats(-2.0, 2.0),
    )
    def test_mode_additivity(self, c0, c1, c3):
        coeffs = {0: c0, 1: c1, 3: c3}
        v = sphere_datum(1.0, coeffs)
        m = 75.0
        sol = exterior_energy(v, m)
        expected = sum(abs(c) ** 2 * ball_exterior_dtn(m, 1.0, ell) for ell, c in coeffs.items())
        assert sol.energy == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_effective_rate_inside_bound(self):
        v = sphere_datum(1.0, {0: 1.0, 1: 0.7, 3: 0.4})
        h32 = sobolev_h32_norm_sq(v)
        values = []
        for m in (1e2, 1e3, 1e4):
            gap = abs(exterior_energy(v, m).energy - effective_energy(v, m))
            values.append(m**1.5 * gap / h32)
        assert values[0] >= values[1] >= values[2]


class TestMassEstimate:
    def test_monopole_is_exact(self):
        v = sphere_datum(1.0, {0: 2.0})
        m = 50.0
        assert mass_estimate_check(exterior_energy(v, m), v, m) <= 1e-10

    def test_flat_mode_bounded(self):
        v = torus_datum(2.0 * math.pi, {(2, 1): 1.0})
        xi2 = 5.0
        values = []
        for m in (10.0, 100.0, 1000.0):
            sol = exterior_energy(v, m)
            # Closed form: mass = 1/(2 sqrt(m^2 + xi^2)).
            assert sol.exterior_mass == pytest.approx(
                1.0 / (2.0 * math.sqrt(m * m + xi2)), rel=1e-14
            )
            values.append(mass_estimate_check(sol, v, m))
        assert max(values) <= values[0] * (1.0 + 1e-9)

    def test_zero_datum(self):
        v = FlatDatum(())
        assert mass_estimate_check(exterior_energy(v, 5.0), v, 5.0) == 0.0

    def test_sobolev_norm_conventions(self):
        v = sphere_datum(1.0, {0: 1.0, 2: 2.0})
        assert sobolev_h32_norm_sq(v) == pytest.approx(1.0 + 4.0 * 7.0**1.5, rel=1e-15)
        w = torus_datum(2.0 * math.pi, {(1, 0): 1.0})
        assert sobolev_h32_norm_sq(w) == pytest.approx(2.0**1.5, rel=1e-14)


class TestAgmonDecay:
    def test_monopole_ratio_is_exact(self):
        # The r^2 volume factor cancels the profile's 1/r^2, so the ratio is
        # exactly 1/(1-gamma) at l = 0.
        for gamma in (0.3, 0.5, 0.9):
            ratio = agmon_decay_check(200.0, 1.0, 0, gamma)
            assert ratio == pytest.approx(1.0 / (1.0 - gamma), rel=1e-9)

    def test_small_rate_limit(self):
        assert agmon_decay_check(100.0, 1.0, 0, 1e-6) == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.9))
    @pytest.mark.parametrize("m", (1e2, 1e3, 1e4))
    def test_dipole_bounded(self, gamma, m):
        assert agmon_decay_check(m, 1.0, 1, gamma) <= 1.1 / (1.0 - gamma)

    def test_divergent_rate_rejected(self):
        with pytest.raises(AgmonDivergenceError):
            agmon_decay_check(100.0, 1.0, 0, 1.0)
        with pytest.raises(AgmonDivergenceError):
            agmon_decay_check(100.0, 1.0, 1, 1.5)


class TestBoundaryDatumValidation:
    def test_duplicate_modes_rejected(self):
        with pytest.raises(ValueError, match="duplicate degrees"):
            SphereDatum(1.0, ((1, 1.0), (1, 2.0)))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="ell must be nonnegative"):
            sphere_datum(1.0, {-1: 1.0})

    def test_parseval_norm(self):
        # ||v||^2 = 3^2 + 4^2 is the mass law's numerator: the check reads 0
        # exactly at the mass ||v||^2/(2m).
        v = sphere_datum(1.0, {0: 3.0, 2: 4.0})
        m = 8.0
        assert mass_estimate_check(ExteriorSolution(energy=0.0, exterior_mass=25.0 / (2.0 * m)), v, m) == 0.0

    def test_torus_frequency(self):
        v = torus_datum(math.pi, {(3, 4): 1.0})
        ((xi, c),) = v.modes
        assert xi == pytest.approx(10.0, rel=1e-15) and c == 1.0
        # Distinct modes may share a frequency.
        w = torus_datum(2.0 * math.pi, {(1, 0): 1.0, (0, 1): 2.0})
        assert w.modes == ((1.0, 2.0 + 0j), (1.0, 1.0 + 0j))

    def test_flat_gap_rejects_a_sphere_datum(self):
        with pytest.raises(TypeError):
            flat_effective_gap(sphere_datum(1.0, {0: 1.0}), 10.0)


@pytest.mark.parametrize("R", (0.5, 1.0, 1.7, 3.0))
def test_each_tail_integral_is_evaluated_once_per_run(tmp_path, monkeypatch, R):
    # An exterior suite asks for 37 tail integrals, 23 of them distinct: the
    # plain tail mass of the l = 0 and mixed data at each mass is also the
    # denominator of the Agmon ratios.  Within one run each is evaluated
    # once; the memo ends with the run, so a second run evaluates all again.
    requests, evaluations = [], []
    memo, integral = exterior.memoized, exterior._tail_integral

    def requested(fn, *args):
        requests.append(args)
        return memo(fn, *args)

    def evaluated(*args):
        evaluations.append(args)
        return integral(*args)

    monkeypatch.setattr(exterior, "memoized", requested)
    monkeypatch.setattr(exterior, "_tail_integral", evaluated)
    config = SuiteConfig(suite="exterior", geometry=BallInterior(R=R), output_path=str(tmp_path / "r.csv"))
    run_suite(config)
    first = list(evaluations)
    assert len(requests) == 37
    assert len(first) == len(set(first)) == len(set(requests)) == 23
    evaluations.clear()
    run_suite(config)
    assert evaluations == first


def _tail_by_besselk(m, R, ell, gamma):
    """W(gamma) = int_0^inf e^{2 gamma s} (K_nu(X + s)/K_nu(X))^2 (X + s) ds,
    X = mR, nu = l + 1/2, by mpmath quadrature at 30 digits; since
    k_l(x) is proportional to K_nu(x)/sqrt(x), the exterior mass is
    W(0)/(m^2 R) and the Agmon ratio W(gamma)/W(0).  The panels break at
    X/4, X, 4X, ... up to 1, where the profile falls from its boundary peak
    at small mR; the Bessel values are shared by the two integrals."""
    with mpmath.workdps(30):
        x0, nu, g = mpmath.mpf(m) * mpmath.mpf(R), mpmath.mpf(ell) + 0.5, mpmath.mpf(gamma)
        at_boundary = mpmath.besselk(nu, x0)
        profile = functools.lru_cache(maxsize=None)(lambda s: (mpmath.besselk(nu, x0 + s) / at_boundary) ** 2 * (x0 + s))
        points = [mpmath.mpf(0)]
        while points[-1] < 1:
            points.append(x0 / 4 if len(points) == 1 else 4 * points[-1])
        points.append(mpmath.inf)
        plain = mpmath.quad(profile, points)
        weighted = mpmath.quad(lambda s: mpmath.exp(2 * g * s) * profile(s), points)
        return plain / (mpmath.mpf(m) ** 2 * R), weighted / plain


class TestTailClosedForm:
    @settings(max_examples=8, deadline=None)
    @given(
        m=st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e),
        R=st.floats(min_value=0.1, max_value=10.0),
        ell=st.integers(min_value=0, max_value=20),
        gamma=st.floats(min_value=0.0, max_value=0.95, exclude_min=True),
    )
    # Three inputs the panel quadrature got wrong: a mass 76% low, a mass
    # 56% low, and an Agmon ratio 2.1e-4 off.
    @example(m=0.01, R=1.0, ell=5, gamma=0.3)
    @example(m=0.001, R=1.0, ell=1, gamma=0.3)
    @example(m=0.05, R=1.0, ell=3, gamma=0.3)
    def test_against_besselk_quadrature(self, m, R, ell, gamma):
        mass, ratio = _tail_by_besselk(m, R, ell, gamma)
        assert exterior.ball_mode_mass(m, R, ell) == pytest.approx(float(mass), rel=1e-14, abs=0.0)
        assert agmon_decay_check(m, R, ell, gamma) == pytest.approx(float(ratio), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("gamma", (0.3, 0.5, 0.9))
    def test_golden_agmon_ratios_are_correctly_rounded(self, gamma):
        # The 34-digit sums round once, to the nearest double of the true
        # ratio (the R = 1 report's l = 1 rows at m = 100).
        assert agmon_decay_check(100.0, 1.0, 1, gamma) == float(_tail_by_besselk(100.0, 1.0, 1, gamma)[1])

    def test_monopole_is_exact(self):
        # At l = 0 the profile's square is e^{-2 s}/x^2 exactly: mass 1/(2m),
        # ratio 1/(1-gamma), each the double nearest the exact value.
        for m, gamma in ((100.0, 0.5), (3.0, 0.25), (1e-3, 0.75), (7e5, 0.9)):
            assert exterior.ball_mode_mass(m, 1.7, 0) == 1.0 / (2.0 * m)
            assert agmon_decay_check(m, 1.7, 0, gamma) == 1.0 / (1.0 - gamma)


def test_tail_overflow_is_still_reported():
    # The boundary value e^x k_l(mR) is checked, so an overflow there raises
    # the typed error before any node is evaluated, with no numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BesselOverflowError):
            exterior.ball_mode_mass(1e-5, 1.0, 50)
        with pytest.raises(BesselOverflowError):
            agmon_decay_check(1e-5, 1.0, 50, 0.5)
    assert math.isfinite(exterior.ball_mode_mass(1e-2, 1.0, 50))


@pytest.mark.parametrize(
    "m, R, ell",
    ((-1.0, -1.0, 0), (-2.0, -1.0, 1), (0.0, 1.0, 0), (1.0, 0.0, 0), (math.inf, 1.0, 0), (1.0, math.nan, 0)),
)
def test_ball_mode_mass_refuses_non_positive_mass_or_radius(m, R, ell):
    # With m and R both negative, m R > 0 passed the Bessel check and a
    # negative mass came back: -0.5 and -0.222... for the first two cases.
    with pytest.raises(ValueError, match="positive and finite"):
        exterior.ball_mode_mass(m, R, ell)


@pytest.mark.parametrize("m, R", ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan), (0.0, 1.0)))
@pytest.mark.parametrize(
    "call",
    (lambda m, R: ball_exterior_dtn(m, R, 0), lambda m, R: agmon_decay_check(m, R, 1, 0.3)),
    ids=("dtn", "agmon"),
)
def test_ball_mode_checks_name_m_and_r(monkeypatch, call, m, R):
    # m or R outside 0 < x < inf is refused by name before any Bessel call,
    # whose own argument check would name neither.
    monkeypatch.setattr(exterior, "modified_spherical_bessel_k_scaled", None)
    monkeypatch.setattr(exterior, "_tail_integral", None)
    with pytest.raises(ValueError, match=rf"^m and R must be positive and finite, got m={m!r}, R={R!r}$"):
        call(m, R)
