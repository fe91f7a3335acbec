"""Ball eigensolvers and boundary functionals, cross-checked against
independent closed-form evaluations (plain bisection + scipy Bessel)."""

import contextlib
import dataclasses
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import mitbag.dirac_ball as dirac_ball
from mitbag.dirac_ball import (
    AngularSector,
    DiracParams,
    EssentialSpectrumError,
    boundary_identity_check,
    charge_conjugation_check,
    eta_functional,
    largemass_eigenpair,
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
from mitbag.numerics import NumericsError, ToleranceConfig, run_memo
from mitbag.special import SpecialFunctionDomainError

GROUND = AngularSector(-1)
P0 = DiracParams(R=1.0, m0=0.0, m=0.0)


def bisection_ground_state() -> float:
    """Oracle for the lowest bag level: tan x = x/(1-x) on (1.6, 2.5)."""
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
    return 0.5 * (a + b)


def ground_closed_form() -> dict:
    """Independent evaluation of the normalized ground pair and functionals.

    In the lowest sector the radial pair is (c j0(lam r), -c j1(lam r)); the
    normalization integral has the closed form
    int_0^1 j_l(lam r)^2 r^2 dr = (j_l(lam)^2 - j_{l-1}(lam) j_{l+1}(lam))/2.
    """
    lam = bisection_ground_state()
    j0 = float(sp.spherical_jn(0, lam))
    j1 = float(sp.spherical_jn(1, lam))
    j2 = float(sp.spherical_jn(2, lam))
    jm1 = math.cos(lam) / lam
    int0 = 0.5 * (j0 * j0 - jm1 * j1)
    int1 = 0.5 * (j1 * j1 - j0 * j2)
    c_sq = 1.0 / (int0 + int1)
    f_sq = c_sq * j0 * j0
    mu = -f_sq * (1.0 - lam) ** 2
    eta = f_sq * (1.0 - (1.0 - lam) ** 2 - lam * lam)
    return {"lam": lam, "c_sq": c_sq, "f_sq": f_sq, "mu": mu, "eta": eta}


class TestAngularSector:
    def test_orbital_indices(self):
        assert (AngularSector(-1).ell_upper, AngularSector(-1).ell_lower) == (0, 1)
        assert (AngularSector(1).ell_upper, AngularSector(1).ell_lower) == (1, 0)
        assert (AngularSector(2).ell_upper, AngularSector(2).ell_lower) == (2, 1)
        assert (AngularSector(-3).ell_upper, AngularSector(-3).ell_lower) == (2, 3)

    def test_indices_differ_by_one(self):
        for kj in (-4, -2, -1, 1, 2, 4):
            sec = AngularSector(kj)
            assert abs(sec.ell_upper - sec.ell_lower) == 1
            assert sec.degeneracy == 2 * abs(kj)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            AngularSector(0)

    @pytest.mark.parametrize("kj", (np.int64(2), np.int32(-50), 50, -1))
    def test_any_integer_is_kept_as_an_int(self, kj):
        sec = AngularSector(kj)
        assert type(sec.kappa_j) is int and sec.kappa_j == kj
        assert sec == AngularSector(int(kj)) and hash(sec) == hash(AngularSector(int(kj)))
        assert mit_eigenvalues(P0, sec, 1) == mit_eigenvalues(P0, AngularSector(int(kj)), 1)

    @pytest.mark.parametrize("kj", (True, False, np.bool_(True), 1.5, 2.0, "1", None, 51, -51, np.int64(0)))
    def test_what_the_solvers_cannot_take_is_refused_by_name(self, kj):
        # Refused at construction, naming kappa_j and the value given, not
        # an order derived from it deep in the Bessel layer.
        with pytest.raises(ValueError, match=r"kappa_j .*got " + re.escape(repr(kj))):
            AngularSector(kj)


class TestBagSolver:
    def test_ground_state_against_oracle(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        assert lam1 == pytest.approx(bisection_ground_state(), abs=1e-10)

    def test_lowest_sector_matching_is_j0_eq_j1(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        assert float(sp.spherical_jn(0, lam1)) == pytest.approx(
            float(sp.spherical_jn(1, lam1)), rel=1e-12
        )

    def test_radius_scaling(self):
        lam_r1 = mit_eigenvalues(P0, GROUND, 3)
        lam_r2 = mit_eigenvalues(DiracParams(R=2.0), GROUND, 3)
        np.testing.assert_allclose(lam_r2, np.array(lam_r1) / 2.0, rtol=1e-12)

    def test_singular_values_sorted_and_interlaced(self):
        values = mit_eigenvalues(P0, GROUND, 4)
        assert values == sorted(values)
        assert len(values) == 4

    def test_spectrum_symmetry(self):
        signed = mit_spectrum_signed(P0, [AngularSector(k) for k in (-2, -1, 1, 2)], 3)
        assert charge_conjugation_check(signed) <= 1e-12

    def test_count_validation(self):
        # One scan window serves every solver, and with it one count range.
        pm = DiracParams(R=1.0, m=200.0)
        for count in (0, 21):
            for solve in (mit_spectrum_signed, largemass_spectrum_signed):
                with pytest.raises(ValueError, match=r"\[1, 20\]"):
                    solve(pm, [GROUND], count)
            for solve in (mit_eigenvalues, largemass_eigenvalues, robin_laplacian_eigenvalues):
                with pytest.raises(ValueError, match=r"\[1, 20\]"):
                    solve(pm, GROUND, count)


class TestBagEigenpair:
    def test_normalization(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        pair = mit_eigenpair(P0, GROUND, lam1)
        assert pair.norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_values_against_closed_form(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        fR, gR, dfR, dgR = pair.boundary_values
        c = math.sqrt(ref["c_sq"])
        assert abs(fR) == pytest.approx(c * float(sp.spherical_jn(0, ref["lam"])), rel=1e-9)
        assert gR == pytest.approx(-fR, rel=1e-10)
        assert dfR == pytest.approx(
            math.copysign(c, fR) * ref["lam"] * float(sp.spherical_jn(0, ref["lam"], derivative=True)),
            rel=1e-9,
        )

    def test_robin_trace_projection_identity(self):
        # Bag eigenfunctions satisfy the plus-projected Robin-trace condition,
        # i.e. equal Robin traces of the two radial components.
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        pair = mit_eigenpair(P0, GROUND, lam1)
        fR, gR, dfR, dgR = pair.boundary_values
        assert dfR + fR == pytest.approx(dgR + gR, abs=1e-12)

    def test_energy_off_the_bessel_domain_is_refused(self):
        # The boundary argument x = kR (qR for the large-mass tail) must be
        # finite and > 0: a NaN or infinite energy, or one whose square
        # overflows, is refused before any Bessel value is formed.
        bad = "argument must be finite and > 0"
        for energy in (math.nan, math.inf, 1e200):
            with pytest.raises(SpecialFunctionDomainError, match=bad):
                mit_eigenpair(P0, GROUND, energy)
        for lam_int in (math.nan, math.inf):
            with pytest.raises(SpecialFunctionDomainError, match=bad):
                robin_eigenpair(P0, GROUND, lam_int)
        with pytest.raises(SpecialFunctionDomainError, match=bad):
            largemass_eigenpair(DiracParams(R=1.0, m0=0.0, m=1e200), GROUND, 3.0)

    def test_interior_grid_follows_the_phase_not_the_radius(self, monkeypatch):
        # The boundary identity's quadrature of a bag pair against a Robin
        # pair: k R = 2.04 radians of the faster phase take ceil(2.04 / 2) = 2
        # panels of 16 nodes each, however large the ball.
        rules = []
        panel_nodes = dirac_ball.panel_nodes

        def recorded(*args, **kwargs):
            rules.append(panel_nodes(*args, **kwargs))
            return rules[-1]

        monkeypatch.setattr(dirac_ball, "panel_nodes", recorded)
        p = DiracParams(R=1e4, m=1.0)
        u_mit = mit_eigenpair(p, GROUND, 2.04e-4)
        u_int = robin_eigenpair(p, GROUND, 1.5e-4**2)
        boundary_identity_check(u_int, u_mit, p.m, p)
        ((r, w),) = rules
        assert r.shape == w.shape == (2 * 16,)
        assert float(np.sum(w)) == pytest.approx(1e4, rel=1e-12)



def _lommel_reference(ell: int, x: mpmath.mpf) -> mpmath.mpf:
    """int_0^x t^2 j_l(t)^2 dt = (x^3/2)(j_l^2 - j_{l-1} j_{l+1}) from mpmath's
    J_{l+1/2}, with j_{-1}(x) = cos x / x; at the caller's precision."""

    def j(n):
        return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(n + 0.5, x)

    return x**3 / 2 * (j(ell) ** 2 - j(ell - 1) * j(ell + 1))


def _quadrature_norm_sq(u) -> float:
    """Interior mass of an eigenpair by composite 32-point Gauss-Legendre
    quadrature of scipy's j_l, on panels of at most 0.5 radians of phase."""
    k, c_up, c_lo = u.radial_params
    t, wt = sp.roots_legendre(32)
    edges = np.linspace(0.0, u.R, max(4, math.ceil(k * u.R / 0.5)) + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    r, w = (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * wt).ravel()
    f = c_up * sp.spherical_jn(u.sector.ell_upper, k * r)
    g = c_lo * sp.spherical_jn(u.sector.ell_lower, k * r)
    return math.fsum(w * (f * f + g * g) * r * r)


class TestInteriorNorm:
    """The interior norm of an eigenpair is Lommel's integral at x = kR."""

    @settings(max_examples=400, deadline=None)
    @given(
        kj=st.integers(min_value=1, max_value=50).flatmap(lambda n: st.sampled_from([n, -n])),
        R=st.floats(min_value=0.5, max_value=3.0),
        u=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_against_a_40_digit_lommel_value(self, kj, R, u):
        # x log-uniform on [max(l_A, l_B) + 1/2, 1e4]: each component alone.
        # Below 1.05 (l + 1/2), where no solved level sits, the turning point
        # amplifies the Bessel values' rounding (j_l' = (l/x) j_l - j_{l+1}
        # cancels): 1.5e-14 at x = l + 1/2 for kj = 45.
        sec = AngularSector(kj)
        lo = max(sec.ell_upper, sec.ell_lower) + 0.5
        k = lo * (1e4 / lo) ** u / R
        rel = 1e-14 if k * R >= 1.05 * lo else 3e-14
        for ell, coeffs in ((sec.ell_upper, (1.0, 0.0)), (sec.ell_lower, (0.0, 1.0))):
            with mpmath.workdps(40):
                kk = mpmath.mpf(k)
                expected = float(_lommel_reference(ell, kk * mpmath.mpf(R)) / kk**3)
            norm_sq = dirac_ball._interior_norm_sq(R, sec, k, *coeffs, dirac_ball._j_pair(sec, k * R))
            assert norm_sq == pytest.approx(expected, rel=rel, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        kj=st.sampled_from([s * k for k in range(1, 7) for s in (-1, 1)]),
        R=st.floats(min_value=0.5, max_value=3.0),
        m0=st.floats(min_value=0.01, max_value=2.0),
        m=st.floats(min_value=math.log(0.5), max_value=math.log(1e6)).map(math.exp),
        count=st.integers(min_value=1, max_value=3),
    )
    def test_solved_levels_against_quadrature(self, kj, R, m0, m, count):
        # Every level the three solvers return sits at kR >= 1.05 (l + 1/2)
        # for the higher order l, above the range where the bracket of
        # Lommel's form cancels (the integral is O(x^{2l+3}), its terms
        # O(x^{2l+1})); there the unit pair's interior mass by quadrature,
        # plus its exterior tail, is 1.
        p, sec = DiracParams(R=R, m0=m0, m=m), AngularSector(kj)
        pairs = [mit_eigenpair(p, sec, E) for E, _ in mit_spectrum_signed(p, [sec], count)]
        pairs += [robin_eigenpair(p, sec, lam) for lam in robin_laplacian_eigenvalues(p, sec, count)]
        with contextlib.suppress(EssentialSpectrumError):  # fewer levels below m0 + m
            pairs += [largemass_eigenpair(p, sec, E) for E, _ in largemass_spectrum_signed(p, [sec], count)]
        for u in pairs:
            assert u.radial_params[0] * R >= 1.05 * (max(sec.ell_upper, sec.ell_lower) + 0.5)
            assert _quadrature_norm_sq(u) + u.exterior_norm_sq == pytest.approx(1.0, rel=0.0, abs=4e-15)
            assert u.norm_sq() == pytest.approx(1.0, rel=0.0, abs=4e-15)


class TestFunctionals:
    def test_mu_against_closed_form(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        assert mu_functional(pair, P0) == pytest.approx(ref["mu"], rel=1e-10)

    def test_eta_against_closed_form(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        assert eta_functional(pair, ref["lam"], P0) == pytest.approx(ref["eta"], rel=1e-10)

    def test_mu_radius_scaling(self):
        # Dimensional analysis: mu scales like 1/R^3 at m0 = 0.
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        mu1 = mu_functional(mit_eigenpair(P0, GROUND, lam1), P0)
        p2 = DiracParams(R=2.0)
        lam2 = mit_eigenvalues(p2, GROUND, 1)[0]
        mu2 = mu_functional(mit_eigenpair(p2, GROUND, lam2), p2)
        assert mu2 == pytest.approx(mu1 / 8.0, rel=1e-10)

    def test_vanishing_trace_gives_zero(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        pair = mit_eigenpair(P0, GROUND, lam1)
        # Robin traces vanish: df = -(1/R+m0) f.
        silent = replace(pair, boundary_values=(1.0, 1.0, -1.0, -1.0))
        assert mu_functional(silent, P0) == 0.0


class TestNuMinMax:
    def test_one_dimensional_space(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        nus = nu_minmax([pair], ref["lam"], P0)
        assert nus == [pytest.approx(ref["eta"], rel=1e-10)]

    def test_degenerate_pair_shares_value(self):
        ref = ground_closed_form()
        copies = [mit_eigenpair(P0, GROUND, ref["lam"]) for _ in range(2)]
        nus = nu_minmax(copies, ref["lam"], P0)
        assert nus[0] == pytest.approx(nus[1], rel=1e-14)
        assert nus[0] == pytest.approx(ref["eta"], rel=1e-10)

    def test_diagonal_form(self):
        # The form is diagonal in the given basis: its min-max values are the
        # per-function eta values, sorted.
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        other = replace(pair, boundary_values=(1.0, 1.0, -1.0, -1.0))
        etas = [eta_functional(u, ref["lam"], P0) for u in (pair, other)]
        assert etas[0] != etas[1]
        assert nu_minmax([pair, other], ref["lam"], P0) == sorted(etas)
        assert nu_minmax([other, pair], ref["lam"], P0) == sorted(etas)

    def test_non_orthonormal_rejected(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        k, c_up, c_lo = pair.radial_params
        bad = replace(pair, radial_params=(k, 2.0 * c_up, 2.0 * c_lo))
        assert bad.norm_sq() == pytest.approx(4.0, rel=1e-12)
        with pytest.raises(ValueError, match="normalized"):
            nu_minmax([bad], ref["lam"], P0)

    def test_too_many_copies_rejected(self):
        ref = ground_closed_form()
        copies = [mit_eigenpair(P0, GROUND, ref["lam"]) for _ in range(3)]
        with pytest.raises(ValueError):
            nu_minmax(copies, ref["lam"], P0)


class TestLargeMass:
    def test_converges_to_bag_value(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        pm = DiracParams(R=1.0, m0=0.0, m=1e6)
        lam_m = largemass_eigenvalues(pm, GROUND, 1)[0]
        assert abs(lam_m - lam1) <= 1e-4

    def test_gap_shrinks_like_inverse_mass(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        gaps = []
        for m in (1e2, 1e3, 1e4):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            gaps.append(abs(largemass_eigenvalues(pm, GROUND, 1)[0] - lam1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.05)

    def test_spectrum_symmetry(self):
        pm = DiracParams(R=1.0, m0=0.0, m=100.0)
        signed = largemass_spectrum_signed(pm, [GROUND, AngularSector(1)], 2)
        assert charge_conjugation_check(signed) <= 1e-10

    def test_eigenpair_normalized_with_tail(self):
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_m = largemass_eigenvalues(pm, GROUND, 1)[0]
        pair = largemass_eigenpair(pm, GROUND, lam_m)
        assert pair.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # Exterior mass is a genuine O(1/m) fraction.
        assert 0.0 < pair.exterior_norm_sq < 5.0 / 200.0

    def test_tail_continuity(self):
        # The lower component's interface continuity is the eigenvalue
        # condition itself: the exterior closed form evaluated at r = R must
        # reproduce the interior boundary value.
        from mitbag.special import modified_spherical_bessel_k_scaled

        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_m = largemass_eigenvalues(pm, GROUND, 1)[0]
        pair = largemass_eigenpair(pm, GROUND, lam_m)
        fR, gR, _, _ = pair.boundary_values
        M = pm.m0 + pm.m
        q = math.sqrt(M * M - lam_m * lam_m)
        ek_upper = modified_spherical_bessel_k_scaled(GROUND.ell_upper, q * pm.R)
        ek_lower = modified_spherical_bessel_k_scaled(GROUND.ell_lower, q * pm.R)
        g_out_at_R = -(q / (lam_m + M)) * fR * ek_lower / ek_upper
        assert g_out_at_R == pytest.approx(gR, rel=1e-10)

    def test_window_touching_threshold_reported(self):
        # Below the threshold 1.5 only the +E branch has a root: the one
        # level is solved, and a request for two reaches the threshold.
        p = DiracParams(R=1.0, m0=0.0, m=1.5)
        with pytest.raises(EssentialSpectrumError):
            largemass_eigenvalues(p, GROUND, 2)
        with pytest.raises(EssentialSpectrumError):
            largemass_spectrum_signed(p, [GROUND], 1)
        (level,) = largemass_eigenvalues(p, GROUND, 1)
        step = math.pi / 64.0
        oracle = _roots_oracle(lambda E: _largemass_oracle(E, p, GROUND)[0], 1e-9, 1.5, step, 1)[0]
        assert level == pytest.approx(oracle, rel=1e-12)
        assert 1.39 < level < 1.4

    def test_m_zero_rejected(self):
        # The Robin solver, the other one of a mass jump, refuses it too.
        for solver in (largemass_eigenvalues, robin_laplacian_eigenvalues):
            with pytest.raises(ValueError, match="m > 0"):
                solver(P0, GROUND, 1)


class TestRobinSolver:
    def test_upper_bound(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        for m in (50.0, 400.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
            assert lam_int <= lam1**2 + 1e-10

    def test_large_mass_limit_is_bag_square(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1)[0]
        pm = DiracParams(R=1.0, m0=0.0, m=1e6)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
        assert abs(lam_int - lam1**2) / lam1**2 <= 1e-3

    def test_boundary_conditions_satisfied(self):
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
        pair = robin_eigenpair(pm, GROUND, lam_int)
        fR, gR, dfR, dgR = pair.boundary_values
        Da = dfR + pm.robin_offset * fR
        Db = dgR + pm.robin_offset * gR
        scale = max(abs(pm.m * fR), abs(pm.m * gR), 1.0)
        # Plus projection of the plain Robin trace vanishes...
        assert abs(Da - Db) <= 1e-9 * scale
        # ...and the minus projection of the 2m-shifted trace vanishes.
        assert abs((Da + 2.0 * pm.m * fR) + (Db + 2.0 * pm.m * gR)) <= 1e-9 * scale

    def test_slope_matches_trace_functional(self):
        ref = ground_closed_form()
        values = []
        grid = (200.0, 400.0, 800.0, 1600.0)
        for m in grid:
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
            values.append(m * (lam_int - ref["lam"] ** 2))
        # m (lambda_int - lambda^2) approaches mu monotonically from above.
        assert values[-1] == pytest.approx(ref["mu"], rel=2e-3)

    def test_intrinsic_mass_supported(self):
        p = DiracParams(R=1.0, m0=0.5, m=1e5)
        lam1 = mit_eigenvalues(p, GROUND, 1)[0]
        lam_int = robin_laplacian_eigenvalues(p, GROUND, 1)[0]
        assert abs(lam_int - lam1**2) / lam1**2 <= 1e-3


class TestBoundaryIdentity:
    def test_residual_small(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        for m in (200.0, 800.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
            u_int = robin_eigenpair(pm, GROUND, lam_int)
            assert boundary_identity_check(u_int, u_mit, m, pm) <= 1e-9

    def test_orthogonal_sectors_give_zero(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        sec2 = AngularSector(-2)
        lam_int = robin_laplacian_eigenvalues(pm, sec2, 1)[0]
        u_int = robin_eigenpair(pm, sec2, lam_int)
        assert boundary_identity_check(u_int, u_mit, 200.0, pm) == 0.0

    def test_residual_shrinks_with_solver_tolerance(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        residuals = []
        for rel in (1e-6, 1e-12):
            tol = ToleranceConfig(abs_tol=0.0, rel_tol=rel, max_iter=300)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1, tol=tol)[0]
            u_int = robin_eigenpair(pm, GROUND, lam_int)
            residuals.append(boundary_identity_check(u_int, u_mit, 200.0, pm))
        assert residuals[1] < residuals[0]

    @staticmethod
    def _identity_pair(R, m, kappa_j):
        """The lowest Robin pair at mass m and the bag pair of the lowest
        level, of either sign, in sector kappa_j on the ball of radius R."""
        sector = AngularSector(kappa_j)
        p0, pm = DiracParams(R=R, m=0.0), DiracParams(R=R, m=m)
        energy = min((e for e, _ in mit_spectrum_signed(p0, [sector], 1)), key=abs)
        lam_int = robin_laplacian_eigenvalues(pm, sector, 1)[0]
        return robin_eigenpair(pm, sector, lam_int), mit_eigenpair(p0, sector, energy), pm

    @pytest.mark.parametrize("kappa_j", [-2, -1, 1, 2])
    @pytest.mark.parametrize("m", [200.0, 800.0])
    @pytest.mark.parametrize("R", [0.5, 1.0, 1.7, 3.0])
    def test_interior_product_is_converged(self, monkeypatch, R, m, kappa_j):
        # The rule of at most 2 radians of the faster phase a panel agrees
        # with one four times finer and with a 40-digit quadrature.
        u_int, u_mit, _ = self._identity_pair(R, m, kappa_j)
        inner = dirac_ball._interior_product(u_int, u_mit, R)
        panel_nodes = dirac_ball.panel_nodes
        monkeypatch.setattr(dirac_ball, "panel_nodes", lambda a, b, max_panel: panel_nodes(a, b, max_panel / 4))
        finer = dirac_ball._interior_product(u_int, u_mit, R)
        sec = u_int.sector
        (k1, c_up, c_lo), (k2, d_up, d_lo) = u_int.radial_params, u_mit.radial_params
        with mpmath.workdps(40):

            def j(ell, x):
                return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(ell + 0.5, x)

            def integrand(r):
                return r**2 * (
                    c_up * d_up * j(sec.ell_upper, k1 * r) * j(sec.ell_upper, k2 * r)
                    + c_lo * d_lo * j(sec.ell_lower, k1 * r) * j(sec.ell_lower, k2 * r)
                )

            reference = float(mpmath.quad(integrand, [0, R / 2, R]))
        assert inner == pytest.approx(finer, rel=1e-15)
        assert inner == pytest.approx(reference, rel=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(
        R=st.floats(min_value=0.5, max_value=3.0),
        kappa_j=st.sampled_from([-2, -1, 1, 2]),
        masses=st.lists(st.floats(min_value=50.0, max_value=1e4), min_size=2, max_size=2),
    )
    def test_a_run_reads_the_bag_side_once(self, R, kappa_j, masses):
        # Robin pairs at two masses and two tolerances against one bag pair,
        # as the robin suite checks them: inside one run each check equals
        # its lone call bit for bit, and the bag pair's Bessel values at the
        # rule's nodes are evaluated once for the run, not once per check.
        sector, p0 = AngularSector(kappa_j), DiracParams(R=R)
        energy = min((e for e, _ in mit_spectrum_signed(p0, [sector], 1)), key=abs)
        u_mit = mit_eigenpair(p0, sector, energy)
        checks = []
        for m in masses:
            pm = DiracParams(R=R, m=m)
            for tol in (ToleranceConfig(), ToleranceConfig(abs_tol=0.0, rel_tol=1e-6, max_iter=300)):
                u_int = robin_eigenpair(pm, sector, robin_laplacian_eigenvalues(pm, sector, 1, tol=tol)[0])
                checks.append((u_int, m, pm))
        alone = [boundary_identity_check(u_int, u_mit, m, pm).hex() for u_int, m, pm in checks]
        calls = []
        kernel = dirac_ball.j_pair_kernel

        def spy(n):
            pair = kernel(n)

            def counted(x):
                calls.append(x)
                return pair(x)

            return counted

        with pytest.MonkeyPatch.context() as patch, run_memo():
            patch.setattr(dirac_ball, "j_pair_kernel", spy)
            assert [boundary_identity_check(u_int, u_mit, m, pm).hex() for u_int, m, pm in checks] == alone
        k_mit = u_mit.radial_params[0]
        for u_int, _, _ in checks:
            panels = math.ceil(max(u_int.radial_params[0], k_mit) * R / 2.0)
            nodes = dirac_ball.panel_nodes(0.0, R, max_panel=R / panels)[0].tolist()
            assert [calls.count(k_mit * r) for r in nodes] == [1] * len(nodes)

    def test_no_numpy_sin_or_cos(self, monkeypatch):
        # The quadrature reads the solver's own math.sin / math.cos route.
        u_int, u_mit, pm = self._identity_pair(1.7, 800.0, -1)
        expected = boundary_identity_check(u_int, u_mit, pm.m, pm)

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy sin/cos called")

        monkeypatch.setattr(np, "sin", forbidden)
        monkeypatch.setattr(np, "cos", forbidden)
        assert boundary_identity_check(u_int, u_mit, pm.m, pm) == expected

    @pytest.mark.parametrize("k", [0.0, -1.0, math.inf, math.nan])
    def test_bad_wavenumber_is_a_domain_error(self, k):
        u_int, u_mit, pm = self._identity_pair(1.0, 200.0, -1)
        for u in (u_int, u_mit):
            bad = replace(u, radial_params=(k, *u.radial_params[1:]))
            pair = (bad, u_mit) if u is u_int else (u_int, bad)
            with pytest.raises(SpecialFunctionDomainError):
                boundary_identity_check(*pair, pm.m, pm)


class TestIntrinsicMass:
    """The first-order laws carry the intrinsic mass through every formula."""

    M0 = 0.5
    P = DiracParams(R=1.0, m0=0.5, m=0.0)

    def test_slope_laws_at_nonzero_intrinsic_mass(self):
        lam1 = mit_eigenvalues(self.P, GROUND, 1)[0]
        u1 = mit_eigenpair(self.P, GROUND, lam1)
        eta1 = eta_functional(u1, lam1, self.P)
        mu1 = mu_functional(u1, self.P)
        m = 12800.0
        pm = DiracParams(R=1.0, m0=self.M0, m=m)
        lam_m = largemass_eigenvalues(pm, GROUND, 1)[0]
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
        assert m * (lam_m**2 - lam1**2) == pytest.approx(eta1, rel=2e-4)
        assert m * (lam_int - lam1**2) == pytest.approx(mu1, rel=2e-4)

    def test_boundary_identity_at_nonzero_intrinsic_mass(self):
        lam1 = mit_eigenvalues(self.P, GROUND, 1)[0]
        u1 = mit_eigenpair(self.P, GROUND, lam1)
        pm = DiracParams(R=1.0, m0=self.M0, m=400.0)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1)[0]
        u_int = robin_eigenpair(pm, GROUND, lam_int)
        assert boundary_identity_check(u_int, u1, 400.0, pm) <= 1e-9

    def test_interior_wavenumber_below_intrinsic_mass_rejected(self):
        with pytest.raises(ValueError):
            mit_eigenpair(self.P, GROUND, 0.25)


def _quadratic_conjugation_defect(energies):
    # The definition, level by level against every opposite level.
    defect = 0.0
    for e in energies:
        opposite = [e2 for e2 in energies if e2 * e < 0.0] or [math.inf]
        gap = min(abs(e + e2) for e2 in opposite)
        defect = max(defect, gap if math.isfinite(gap) else math.inf)
    return defect


# Levels of either sign, with zeros, subnormals, levels whose products
# underflow, +-inf and NaN among them.
LEVELS = st.one_of(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-160, 1e-170, -1e-170, 2.2e-308, -2.2e-308]),
)


class TestSpectralResult:
    def test_charge_conjugation_empty(self):
        assert charge_conjugation_check([]) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(
        levels=st.lists(LEVELS, max_size=10),
        mirrored=st.lists(
            st.tuples(st.integers(0, 9), st.sampled_from([1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 0.5, 1e-200])),
            max_size=10,
        ),
    )
    def test_charge_conjugation_is_the_quadratic_definition(self, levels, mirrored):
        # Near-mirror images of drawn levels give finite defects; the check
        # returns the definition's value to the bit.
        energies = levels + [-levels[i] * f for i, f in mirrored if i < len(levels)]
        defect = charge_conjugation_check([(e, GROUND) for e in energies])
        assert defect.hex() == _quadratic_conjugation_defect(energies).hex()

    def test_conjugate_sectors_share_one_sampling(self, monkeypatch):
        # kj = -1 at E and kj = +1 at -E have the same k and the order pair
        # (0, 1): both norms read j_0 and j_1 at the one point kR, and no
        # eigenpair samples a Bessel function on an interior grid.
        samples = []
        j_pair_kernel = dirac_ball.j_pair_kernel

        def recorded(n):
            pair = j_pair_kernel(n)

            def sampled(x):
                samples.append((n, x))
                return pair(x)

            return sampled

        monkeypatch.setattr(dirac_ball, "j_pair_kernel", recorded)
        monkeypatch.setattr(dirac_ball, "panel_nodes", None)
        lam = mit_eigenvalues(P0, GROUND, 1)[0]
        samples.clear()
        with run_memo():
            minus = mit_eigenpair(P0, GROUND, lam)
            plus = mit_eigenpair(P0, AngularSector(1), -lam)
        assert minus.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert plus.norm_sq() == pytest.approx(1.0, abs=1e-12)
        assert samples and set(samples) == {(0, minus.radial_params[0] * P0.R)}


PINNED_SOLVES = (
    (mit_eigenvalues, "_mit_kernels", 0.0),
    (largemass_eigenvalues, "_largemass_kernels", 200.0),
    (robin_laplacian_eigenvalues, "_robin_kernels", 200.0),
)
PINNED_SECTORS = ((GROUND, 1), (GROUND, 3), (AngularSector(2), 2), (AngularSector(-3), 2))


def _spy_kernels(monkeypatch, name, on_values, on_value_slope):
    """Replace the kernel factory ``name``: every kernel it binds reports each
    scan point, where all branches are evaluated together from the sector's
    Bessel pair there, as on_values(x, values), and each evaluation of one
    branch's value and slope as on_value_slope(branch, x, value, slope),
    with ``branch`` the index of the branch: 0 for +E and 1 for -E, 0 for
    the Robin determinant."""
    original = getattr(dirac_ball, name)

    def factory(p, sec):
        at, values, value_slopes = original(p, sec)

        def spied_values(x, pair):
            f = values(x, pair)
            on_values(x, f)
            return f

        def spied(branch, value_slope):
            def spied_value_slope(x):
                f, df = value_slope(x)
                on_value_slope(branch, x, f, df)
                return f, df

            return spied_value_slope

        return at, spied_values, tuple(spied(i, vs) for i, vs in enumerate(value_slopes))

    monkeypatch.setattr(dirac_ball, name, factory)


class TestEvaluationCounts:
    @pytest.mark.parametrize("solver, kernels, m", PINNED_SOLVES)
    def test_no_determinant_argument_evaluated_twice(self, monkeypatch, solver, kernels, m):
        # The root finder takes the scan's bracket-end values and returns the
        # value at the root, so no argument is evaluated again within one
        # solve: a scan point evaluates every branch at x once, and no
        # Newton step of a branch returns to a point where it was evaluated.
        seen = []

        def on_values(x, values):
            seen.extend((branch, x) for branch in range(len(values)))
            assert all(math.isfinite(value) for value in values)

        def on_value_slope(branch, x, value, slope):
            seen.append((branch, x))
            assert math.isfinite(value) and math.isfinite(slope)

        _spy_kernels(monkeypatch, kernels, on_values, on_value_slope)
        p = DiracParams(R=1.0, m0=0.0, m=m)
        for sector, count in PINNED_SECTORS:
            seen.clear()
            solver(p, sector, count)
            assert seen
            assert len(set(seen)) == len(seen), (sector, count)

    @pytest.mark.parametrize("solver, kernels, m", PINNED_SOLVES)
    def test_slopes_are_taken_by_newton_steps_only(self, monkeypatch, solver, kernels, m):
        # Scan points evaluate the value alone; every slope evaluation is one
        # Newton iteration of the polish, which reads no value-only point.
        counts = {"scan": 0, "newton": 0, "slopes": 0, "slopes_outside_polish": 0, "values_in_polish": 0}
        polishing = False

        def on_values(x, values):
            counts["values_in_polish" if polishing else "scan"] += 1

        def on_value_slope(branch, x, value, slope):
            counts["slopes" if polishing else "slopes_outside_polish"] += 1

        polish = dirac_ball.find_root_bracketed

        def counting_polish(f, *args, **kwargs):
            nonlocal polishing

            def iteration(x):
                counts["newton"] += 1
                return f(x)

            polishing = True
            try:
                return polish(iteration, *args, **kwargs)
            finally:
                polishing = False

        _spy_kernels(monkeypatch, kernels, on_values, on_value_slope)
        monkeypatch.setattr(dirac_ball, "find_root_bracketed", counting_polish)
        p = DiracParams(R=1.0, m0=0.0, m=m)
        for sector, count in PINNED_SECTORS:
            solver(p, sector, count)
        assert counts["scan"] > 0 and counts["newton"] > 0
        assert counts["slopes"] == counts["newton"]
        assert counts["slopes_outside_polish"] == counts["values_in_polish"] == 0

    def test_polish_takes_at_most_five_evaluations_per_root(self, monkeypatch):
        # Newton on the closed-form derivative needs ~4; Brent took ~11.  The
        # pinned solves polish 24 roots: a by-magnitude solve polishes only
        # the roots it returns (and one more where both branches change sign
        # in its last scan step).
        original = dirac_ball.find_root_bracketed
        roots = evaluations = 0

        def counting(f, *args, **kwargs):
            nonlocal roots
            roots += 1

            def counted(x):
                nonlocal evaluations
                evaluations += 1
                return f(x)

            return original(counted, *args, **kwargs)

        monkeypatch.setattr(dirac_ball, "find_root_bracketed", counting)
        for solver, _, m in PINNED_SOLVES:
            p = DiracParams(R=1.0, m0=0.0, m=m)
            for sector, count in PINNED_SECTORS:
                solver(p, sector, count)
        assert roots >= 24
        assert evaluations / roots <= 5.0

    @pytest.mark.parametrize("kj", (-3, -2, -1, 1, 2, 3))
    def test_robin_rows_use_each_bessel_order_once(self, monkeypatch, kj):
        sector = AngularSector(kj)
        x = 2.7
        expected = (
            sp.spherical_jn(sector.ell_upper, x),
            sp.spherical_jn(sector.ell_lower, x),
            sp.spherical_jn(sector.ell_upper, x, derivative=True),
            sp.spherical_jn(sector.ell_lower, x, derivative=True),
        )
        calls = []
        bind = dirac_ball.j_pair_kernel

        def spy(n):
            kernel = bind(n)

            def pair(arg):
                calls.append(n)
                return kernel(arg)

            return pair

        # One pair call gives both sector orders |kappa_j| - 1 and |kappa_j|.
        monkeypatch.setattr(dirac_ball, "j_pair_kernel", spy)
        values = dirac_ball._j_pair(sector, x)
        assert calls == [abs(kj) - 1]
        assert {abs(kj) - 1, abs(kj)} == {sector.ell_upper, sector.ell_lower}
        np.testing.assert_allclose(values, expected, rtol=1e-12)


def _one_branch(f, f_and_slope):
    """The kernels of one branch f, whose scan points read no Bessel pair."""
    return (lambda x: None, lambda x, pair: (f(x),), (f_and_slope,))


class TestScanRoots:
    def test_sign_changes_solved_in_order(self):
        # sin(pi x) from 0.5 at step 0.25: every root sits on a scan point,
        # where the float sine is a rounding error away from 0.
        def f(x):
            return math.sin(math.pi * x)

        def f_and_slope(x):
            return math.sin(math.pi * x), math.pi * math.cos(math.pi * x)

        (roots,) = dirac_ball._scan_roots(_one_branch(f, f_and_slope), {}, 0.5, 3.5, 0.25, 3, ToleranceConfig())
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-10)

    @pytest.mark.parametrize("zero", (0.0, -0.0))
    @pytest.mark.parametrize("slope", (-1.0, 1.0))
    def test_exact_zero_on_a_scan_point_is_one_root(self, zero, slope):
        # f = slope (x - 1) (x - 2.2) is exactly ``zero`` at the scan point
        # 1, falling or rising through it.  The next step must not bracket
        # the point again, which would return it twice.
        def f(x):
            return zero if x == 1.0 else slope * (x - 1.0) * (x - 2.2)

        def f_and_slope(x):
            return f(x), slope * (2.0 * x - 3.2)

        (roots,) = dirac_ball._scan_roots(_one_branch(f, f_and_slope), {}, 0.0, 3.0, 0.5, 2, ToleranceConfig())
        assert roots[0] == 1.0 and roots[1] == pytest.approx(2.2, abs=1e-12)

    @pytest.mark.parametrize(
        "count, pooled, expected",
        [(2, False, ([1.1, 2.1], [1.6, 2.6])), (3, True, ([1.1, 2.1], [1.6])), (2, True, ([1.1], [1.6]))],
    )
    def test_branches_share_each_scan_point(self, count, pooled, expected):
        # Branches sin(pi (x - 0.1)) and sin(pi (x - 0.6)) on one grid from
        # 0.7 at step 0.25: each point is evaluated once for both.  Per
        # branch the walk stops when each branch holds ``count`` roots;
        # pooled, when both together do, with the lowest roots of the two.
        points = []

        def at(x):
            points.append(x)
            return x

        def values(x, pair):
            return math.sin(math.pi * (pair - 0.1)), math.sin(math.pi * (pair - 0.6))

        def branch(shift):
            return lambda x: (math.sin(math.pi * (x - shift)), math.pi * math.cos(math.pi * (x - shift)))

        kernels = (at, values, (branch(0.1), branch(0.6)))
        roots = dirac_ball._scan_roots(kernels, {}, 0.7, 9.0, 0.25, count, ToleranceConfig(), pooled)
        assert len(roots) == 2
        for rs, es in zip(roots, expected):
            assert rs == pytest.approx(es, abs=1e-12)
        assert len(points) == len(set(points))
        assert max(points) < max(max(rs) for rs in roots) + 0.25

    def test_walks_share_the_grid_and_end_at_their_own_top(self):
        # Two walks of sin(pi (x - 0.1)) from 0.7 at step 0.25, both for 3
        # roots (1.1, 2.1, 3.1): one with its top at 2.3, where it ends off
        # the grid with 2, one with its top at 9.  On one grid they read the
        # pair once at each point either reads alone, the off-grid top kept
        # with the grid points, and each walk finds what it finds alone.
        points = []

        def at(x):
            points.append(x)
            return x

        def values(x, pair):
            return (math.sin(math.pi * (pair - 0.1)),)

        def value_slope(x):
            return math.sin(math.pi * (x - 0.1)), math.pi * math.cos(math.pi * (x - 0.1))

        def walk(grid, top):
            try:
                return dirac_ball._scan_roots((at, values, (value_slope,)), grid, 0.7, top, 0.25, 3, ToleranceConfig())
            except dirac_ball.BracketExhaustionError as exc:
                return str(exc), exc.scanned

        alone = []
        for top in (2.3, 9.0):
            points.clear()
            alone.append((walk({}, top), set(points)))
        points.clear()
        grid = {}
        together = [walk(grid, top) for top in (2.3, 9.0)]
        assert together == [found for found, _ in alone]
        assert together[0] == ("found 2 of 3 eigenvalues", (0.7, 2.3))
        assert together[1] == [pytest.approx([1.1, 2.1, 3.1], abs=1e-12)]
        assert len(points) == len(set(points)) and set(points) == alone[0][1] | alone[1][1] == set(grid)
        assert grid[2.3] == 2.3

    def test_pooled_walk_refuses_only_fewer_roots_in_all(self):
        # One root in each branch of [0.7, 2]: two in all are found, three are not.
        def values(x, pair):
            return x - 1.1, x - 1.6

        kernels = (lambda x: None, values, (lambda x: (x - 1.1, 1.0), lambda x: (x - 1.6, 1.0)))
        tol = ToleranceConfig()
        assert dirac_ball._scan_roots(kernels, {}, 0.7, 2.0, 0.25, 2, tol, pooled=True) == [[1.1], [1.6]]
        with pytest.raises(dirac_ball.BracketExhaustionError):
            dirac_ball._scan_roots(kernels, {}, 0.7, 2.0, 0.25, 3, tol, pooled=True)
        with pytest.raises(dirac_ball.BracketExhaustionError):
            dirac_ball._scan_roots(kernels, {}, 0.7, 2.0, 0.25, 2, tol)


# ----------------------------------------------------------------------------
# Independent scipy oracles for the matching determinants and their slopes
# ----------------------------------------------------------------------------


def _j_oracle(ell, x):
    return sp.spherical_jn(ell, x), sp.spherical_jn(ell, x, derivative=True)


def _ek_oracle(ell, x):
    """e^x k_l(x) and its x-derivative, with k_0 = e^{-x}/x.

    spherical_kn underflows beyond x ~ 700, so this takes scipy's scaled
    e^x K_{l+1/2} (k_l = sqrt(2/(pi x)) K_{l+1/2}) and its derivative
    K_v' = -(K_{v-1} + K_{v+1})/2 (DLMF 10.29.1).
    """
    v = ell + 0.5
    pre = np.sqrt(2.0 / (np.pi * x))
    ek = pre * sp.kve(v, x)
    dek = pre * ((1.0 - 0.5 / x) * sp.kve(v, x) - 0.5 * (sp.kve(v - 1.0, x) + sp.kve(v + 1.0, x)))
    return ek, dek


def _mit_oracle(E, p, sec):
    """(value, dvalue/dE, magnitude of the slope's terms)."""
    k = np.sqrt(E * E - p.m0**2)
    dk = E / k
    jA, djA = _j_oracle(sec.ell_upper, k * p.R)
    jB, djB = _j_oracle(sec.ell_lower, k * p.R)
    b = sec.sign * k / (E + p.m0)
    db = sec.sign * (dk * (E + p.m0) - k) / (E + p.m0) ** 2
    terms = (p.R * dk * djA, db * jB, b * p.R * dk * djB)
    return jA + b * jB, sum(terms), sum(np.abs(t) for t in terms)


def _largemass_oracle(E, p, sec):
    M = p.m0 + p.m
    k = np.sqrt(E * E - p.m0**2)
    q = np.sqrt(M * M - E * E)
    dk, dq = E / k, -E / q
    jA, djA = _j_oracle(sec.ell_upper, k * p.R)
    jB, djB = _j_oracle(sec.ell_lower, k * p.R)
    ekA, dekA = _ek_oracle(sec.ell_upper, q * p.R)
    ekB, dekB = _ek_oracle(sec.ell_lower, q * p.R)
    a = q / (E + M)
    da = (dq * (E + M) - q) / (E + M) ** 2
    b = sec.sign * k / (E + p.m0)
    db = sec.sign * (dk * (E + p.m0) - k) / (E + p.m0) ** 2
    terms = (
        da * jA * ekB, a * p.R * dk * djA * ekB, a * jA * p.R * dq * dekB,
        db * jB * ekA, b * p.R * dk * djB * ekA, b * jB * p.R * dq * dekA,
    )
    return a * jA * ekB + b * jB * ekA, sum(terms), sum(np.abs(t) for t in terms)


def _robin_oracle(k, p, sec):
    x = k * p.R
    c = 1.0 / p.R + p.m0

    def rows(ell):
        j, dj = _j_oracle(ell, x)
        # j_l'' from j_l' = j_{l-1} - (l+1)/x j_l (j_0' = -j_1).
        if ell == 0:
            ddj = -sp.spherical_jn(1, x, derivative=True)
        else:
            ddj = sp.spherical_jn(ell - 1, x, derivative=True) + (ell + 1.0) / x**2 * j - (ell + 1.0) / x * dj
        return j, k * dj + c * j, p.R * dj, dj + k * p.R * ddj + c * p.R * dj

    jA, dA, jA_k, dA_k = rows(sec.ell_upper)
    jB, dB, jB_k, dB_k = rows(sec.ell_lower)
    terms = (dA_k * dB, dA * dB_k, p.m * dA_k * jB, p.m * dA * jB_k, p.m * dB_k * jA, p.m * dB * jA_k)
    return dA * dB + p.m * (dA * jB + dB * jA), sum(terms), sum(np.abs(t) for t in terms)


KAPPAS = st.sampled_from([s * k for k in range(1, 7) for s in (-1, 1)])
RADII = st.floats(min_value=0.5, max_value=3.0)
INTRINSIC = st.floats(min_value=0.0, max_value=2.0)
MASSES = st.floats(min_value=math.log(50.0), max_value=math.log(1e6)).map(math.exp)
# Distance of |E| above m0, or of k above 0, in units of 1/R.
OFFSETS = st.floats(min_value=0.05, max_value=20.0)
SIGNS = st.sampled_from([1.0, -1.0])
# The index of a signed determinant's branch in its kernels.
BRANCH = {1.0: 0, -1.0: 1}


class TestDeterminantDerivatives:
    """Each determinant kernel's slope against scipy Bessel derivatives;
    kappa_j in +-1..+-6, R in [0.5, 3], m in [50, 1e6] and m0 in [0, 2].  A
    signed kernel is a function of |E|, so its slope is sign times the
    E-derivative."""

    @settings(max_examples=150, deadline=None)
    @given(kj=KAPPAS, R=RADII, m0=INTRINSIC, t=OFFSETS, sign=SIGNS)
    def test_mit_slope(self, kj, R, m0, t, sign):
        p, sec = DiracParams(R=R, m0=m0), AngularSector(kj)
        E = sign * (m0 + t / R)
        value, slope = dirac_ball._mit_kernels(p, sec)[2][BRANCH[sign]](abs(E))
        v_ref, s_ref, scale = _mit_oracle(E, p, sec)
        assert value == pytest.approx(v_ref, rel=1e-11, abs=1e-12)
        assert abs(sign * slope - s_ref) <= 1e-10 * scale

    @settings(max_examples=150, deadline=None)
    @given(kj=KAPPAS, R=RADII, m0=INTRINSIC, m=MASSES, t=OFFSETS, sign=SIGNS)
    def test_largemass_slope(self, kj, R, m0, m, t, sign):
        p, sec = DiracParams(R=R, m0=m0, m=m), AngularSector(kj)
        E = sign * (m0 + t / R)
        value, slope = dirac_ball._largemass_kernels(p, sec)[2][BRANCH[sign]](abs(E))
        v_ref, s_ref, scale = _largemass_oracle(E, p, sec)
        assert value == pytest.approx(v_ref, rel=1e-10, abs=1e-12 * abs(v_ref) + 1e-300)
        assert abs(sign * slope - s_ref) <= 1e-9 * scale

    @settings(max_examples=150, deadline=None)
    @given(kj=KAPPAS, R=RADII, m0=INTRINSIC, m=MASSES, t=OFFSETS)
    def test_robin_slope(self, kj, R, m0, m, t):
        p, sec = DiracParams(R=R, m0=m0, m=m), AngularSector(kj)
        k = t / R
        (value_slope,) = dirac_ball._robin_kernels(p, sec)[2]
        value, slope = value_slope(k)
        v_ref, s_ref, scale = _robin_oracle(k, p, sec)
        assert abs(value - v_ref) <= 1e-11 * scale * k
        assert abs(slope - s_ref) <= 1e-10 * scale


# Where in its scan window (0 = the lower end, 1 = the top of a 20-level
# scan, or just below the threshold m0 + m) a kernel is evaluated.
WINDOW = st.floats(min_value=0.0, max_value=1.0)


class TestValueKernels:
    """The joint kernel of each determinant, which the scan reads, gives
    every branch's value equal to the value half of the branch's
    value-and-slope kernel, which the Newton polish reads, bit for bit,
    across the scan window."""

    @settings(max_examples=300, deadline=None)
    @given(kj=KAPPAS, R=RADII, m0=INTRINSIC, m=MASSES, u=WINDOW)
    def test_value_is_the_value_half_bitwise(self, kj, R, m0, m, u):
        p, sec = DiracParams(R=R, m0=m0, m=m), AngularSector(kj)
        _, k_top = dirac_ball._scan_window(R, 20, abs(kj))
        lo = m0 + max(1e-9, 1e-9 * m0)
        top = math.sqrt(m0**2 + k_top**2)
        for kernels, hi in (
            (dirac_ball._mit_kernels(p, sec), top),
            (dirac_ball._largemass_kernels(p, sec), min(top, (m0 + m) * (1.0 - 1e-12))),
        ):
            E = lo + u * (hi - lo)
            at, values, value_slopes = kernels
            assert len(value_slopes) == 2
            assert [v.hex() for v in values(E, at(E))] == [vs(E)[0].hex() for vs in value_slopes]
        at, values, (value_slope,) = dirac_ball._robin_kernels(p, sec)
        k = 1e-9 / R + u * (k_top - 1e-9 / R)
        (value,) = values(k, at(k))
        assert value.hex() == value_slope(k)[0].hex()

    @pytest.mark.parametrize("kernels, m", [("_mit_kernels", 0.0), ("_largemass_kernels", 200.0)])
    @pytest.mark.parametrize("kj", (-2, 1))
    def test_both_branches_read_one_bessel_pair(self, monkeypatch, kernels, m, kj):
        # A scan point of a sector's two branches calls j_pair once (and,
        # for the large-mass determinant, ek_pair once): (-E)^2 == E^2.
        calls = []

        def spy(name, bind):
            def bound(n):
                kernel = bind(n)

                def pair(x):
                    calls.append(name)
                    return kernel(x)

                return pair

            return bound

        monkeypatch.setattr(dirac_ball, "j_pair_kernel", spy("j", dirac_ball.j_pair_kernel))
        monkeypatch.setattr(dirac_ball, "ek_pair_kernel", spy("ek", dirac_ball.ek_pair_kernel))
        at, values, value_slopes = getattr(dirac_ball, kernels)(DiracParams(R=1.0, m=m), AngularSector(kj))
        plus, minus = values(2.7, at(2.7))
        assert calls == (["j"] if m == 0.0 else ["j", "ek"])
        assert (plus, minus) == (value_slopes[0](2.7)[0], value_slopes[1](2.7)[0])


class TestConjugateBranches:
    """At m0 = 0 the bag determinant of (kappa_j, -) is that of (-kappa_j, +)
    or its negative, value and slope alike, bit for bit: so a run scans one
    of the two branches and answers the other from it."""

    @settings(max_examples=300, deadline=None)
    @given(
        kj=st.sampled_from([s * k for k in range(1, 13) for s in (-1, 1)]),
        R=st.floats(min_value=0.3, max_value=5.0),
        u=WINDOW,
    )
    def test_minus_branch_is_the_conjugate_plus_branch(self, kj, R, u):
        p = DiracParams(R=R)
        minus_at, minus_values, (_, minus) = dirac_ball._mit_kernels(p, AngularSector(kj))
        plus_at, plus_values, (plus, _) = dirac_ball._mit_kernels(p, AngularSector(-kj))
        lo = 1e-9
        _, hi = dirac_ball._scan_window(R, 20, abs(kj))
        E = lo + u * (hi - lo)
        v_minus, (f_minus, d_minus) = minus_values(E, minus_at(E))[1], minus(E)
        v_plus, (f_plus, d_plus) = plus_values(E, plus_at(E))[0], plus(E)
        sign = math.copysign(1.0, v_minus) * math.copysign(1.0, v_plus)
        assert [x.hex() for x in (v_minus, f_minus, d_minus)] == [(sign * x).hex() for x in (v_plus, f_plus, d_plus)]

    @pytest.mark.parametrize("m0, branches", [(0.0, 2), (0.5, 4)])
    def test_conjugate_branches_share_a_scan_at_zero_intrinsic_mass(self, monkeypatch, m0, branches):
        # Each bound sector is one lockstep scan of its two branches.  At
        # m0 = 0 the scan of kj = -2 answers kj = 2 as well; outside a run
        # both sectors are scanned.
        bound = []
        factory = dirac_ball._mit_kernels

        def binding(p, sec):
            bound.append(sec.kappa_j)
            return factory(p, sec)

        monkeypatch.setattr(dirac_ball, "_mit_kernels", binding)
        p = DiracParams(R=1.3, m0=m0)
        with run_memo():
            spectrum = mit_spectrum_signed(p, [AngularSector(-2), AngularSector(2)], 3)
        assert 2 * len(bound) == 2 * len(set(bound)) == branches
        assert spectrum == mit_spectrum_signed(p, [AngularSector(-2), AngularSector(2)], 3)
        assert 2 * len(bound) == branches + 4


def _roots_oracle(det, lo, hi, step, count):
    """scipy brentq on the first ``count`` sign changes of a scipy-built determinant."""
    grid = np.arange(lo, hi, step)
    values = det(grid)
    changes = np.nonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0][:count]
    assert len(changes) == count
    return [brentq(lambda x: float(det(x)), grid[i], grid[i + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps)
            for i in changes]


class TestHighOrders:
    """The scan window reaches past the centrifugal barrier of every
    advertised order: at |kappa_j| = 15 the first bag zero (~19 at R = 1)
    is above the top of a window that ignores it."""

    @pytest.mark.parametrize("R", (0.5, 1.0, 3.0))
    @pytest.mark.parametrize("kj", (15, -15, 30, -30, 50, -50))
    def test_bag_levels_against_scipy(self, kj, R):
        p, sec, count = DiracParams(R=R), AngularSector(kj), 3
        step = math.pi / (16.0 * R)  # four times finer than the scan
        signed = mit_spectrum_signed(p, [sec], count)
        references = []
        for sign in (1.0, -1.0):
            reference = _roots_oracle(lambda E: _mit_oracle(sign * E, p, sec)[0], step, 100.0 / R, step, count)
            levels = sorted(abs(e) for e, _ in signed if math.copysign(1.0, e) == sign)
            assert levels == pytest.approx(reference, rel=1e-12)
            references += reference
        assert mit_eigenvalues(p, sec, count) == pytest.approx(sorted(references)[:count], rel=1e-12)

    @pytest.mark.parametrize("kj", (50, -50))
    def test_twenty_levels_at_the_highest_order(self, kj):
        sec = AngularSector(kj)
        for levels in (
            mit_eigenvalues(DiracParams(R=1.0), sec, 20),
            largemass_eigenvalues(DiracParams(R=1.0, m=1e4), sec, 20),
            robin_laplacian_eigenvalues(DiracParams(R=1.0, m=50.0), sec, 20),
        ):
            assert len(levels) == 20 and levels == sorted(levels)


class TestIntrinsicMassRoots:
    """First roots at m0 > 0, which the CLI never runs, against brentq."""

    @settings(max_examples=40, deadline=None)
    @given(kj=KAPPAS, R=RADII, m0=st.floats(min_value=0.01, max_value=2.0), m=MASSES)
    def test_first_roots(self, kj, R, m0, m):
        p, sec = DiracParams(R=R, m0=m0, m=m), AngularSector(kj)
        lo, step = m0 * (1.0 + 1e-9), math.pi / (64.0 * R)
        hi = m0 + 20.0 / R
        mit = sorted(e for e, _ in mit_spectrum_signed(p, [sec], 1))
        lm = sorted(e for e, _ in largemass_spectrum_signed(p, [sec], 1))
        for side, sign in ((1, 1.0), (0, -1.0)):
            mit_ref = _roots_oracle(lambda E: _mit_oracle(sign * E, p, sec)[0], lo, hi, step, 1)[0]
            lm_ref = _roots_oracle(lambda E: _largemass_oracle(sign * E, p, sec)[0], lo, min(hi, m0 + m), step, 1)[0]
            assert mit[side] == pytest.approx(sign * mit_ref, rel=1e-12)
            assert lm[side] == pytest.approx(sign * lm_ref, rel=1e-12)
        k = _roots_oracle(lambda k: _robin_oracle(k, p, sec)[0], 1e-9 / R, 20.0 / R, step, 1)[0]
        lam_int = robin_laplacian_eigenvalues(p, sec, 1)[0]
        assert lam_int == pytest.approx(m0**2 + k * k, rel=1e-12)


class TestMagnitudeRequests:
    """A by-magnitude solve walks both branches of the sector until they
    hold ``count`` roots in all.  Wherever the signed solve succeeds, it
    returns the lowest ``count`` magnitudes of that solve bit for bit,
    inside a run (asked before the signed solve, then after it) and outside
    one."""

    @pytest.mark.parametrize("in_run", (False, True), ids=("no_memo", "run_memo"))
    @settings(max_examples=40, deadline=None)
    @given(
        kj=st.sampled_from([-3, -2, -1, 1, 2, 3]),
        R=st.floats(min_value=0.3, max_value=5.0),
        m=st.floats(min_value=math.log(3.0), max_value=math.log(1e6)).map(math.exp),
        count=st.integers(min_value=1, max_value=4),
    )
    def test_magnitudes_are_the_lowest_signed_levels(self, in_run, kj, R, m, count):
        p, sec = DiracParams(R=R, m=m), AngularSector(kj)
        pairs = ((mit_eigenvalues, mit_spectrum_signed), (largemass_eigenvalues, largemass_spectrum_signed))
        for magnitudes, signed in pairs:
            with run_memo() if in_run else contextlib.nullcontext():
                try:
                    levels = magnitudes(p, sec, count)
                except NumericsError:
                    levels = None
                try:
                    spectrum = signed(p, [sec], count)
                except NumericsError:
                    continue
                expected = sorted(abs(e) for e, _ in spectrum)[:count]
                assert levels is not None
                assert [x.hex() for x in levels] == [x.hex() for x in expected]
                assert [x.hex() for x in magnitudes(p, sec, count)] == [x.hex() for x in expected]


class TestLevelPrefix:
    """A solve of two levels answers a request for one through its prefix,
    bit for bit: the run memo's table of branch scans relies on it."""

    @settings(max_examples=40, deadline=None)
    @given(kj=st.sampled_from([-2, -1, 1, 2]), R=st.floats(min_value=0.3, max_value=5.0))
    def test_two_bag_levels_from_a_five_level_solve(self, kj, R):
        # The verify run's order: the five-level symmetry solve, then the
        # two-level requests, which scan nothing and equal a fresh solve.
        p, sec = DiracParams(R=R), AngularSector(kj)
        fresh = mit_eigenvalues(p, sec, 2)
        scan = dirac_ball._scan_roots
        scans = []

        def counting(*args):
            scans.append(args)
            return scan(*args)

        with pytest.MonkeyPatch.context() as patch, run_memo():
            patch.setattr(dirac_ball, "_scan_roots", counting)
            five = mit_spectrum_signed(p, [sec], 5)
            scanned = len(scans)
            assert mit_eigenvalues(p, sec, 2) == fresh
            assert len(scans) == scanned
        assert sorted(abs(e) for e, _ in five)[:2] == fresh

    @pytest.mark.parametrize("solver", [solver for solver, _, _ in PINNED_SOLVES], ids=lambda f: f.__name__)
    @settings(max_examples=40, deadline=None)
    @given(
        kj=st.sampled_from([-2, -1, 1, 2]),
        R=st.floats(min_value=0.3, max_value=5.0),
        m=st.floats(min_value=math.log(3.0), max_value=math.log(1e6)).map(math.exp),
    )
    def test_first_level_is_the_prefix_of_two(self, solver, kj, R, m):
        p, sec = DiracParams(R=R, m=m), AngularSector(kj)
        try:
            two = solver(p, sec, 2)
        except NumericsError:
            return
        assert solver(p, sec, 1) == two[:1]


def _crowded_largemass_kernels(p, sec):
    """The large-mass kernels with the -E branch read at 5 E: its roots
    crowd below those of the +E branch.  The solvers' own branches
    interlace, so only a stand-in like this one shows a request that the
    roots of each branch up to its reach do not answer."""
    at, values, (plus, minus) = dirac_ball._largemass_kernels(p, sec)

    def crowded_values(E, pair):
        return values(E, pair)[0], values(5.0 * E, at(5.0 * E))[1]

    def crowded_minus(E):
        f, df = minus(5.0 * E)
        return f, 5.0 * df

    return at, crowded_values, (plus, crowded_minus)


def _signed_levels(solver):
    return lambda p, sec, n, tol=None: [e for e, _ in solver(p, [sec], n, tol)]


RECORD_REQUESTS = {
    "mit signed": _signed_levels(mit_spectrum_signed),
    "mit magnitudes": mit_eigenvalues,
    "largemass signed": _signed_levels(largemass_spectrum_signed),
    "largemass magnitudes": largemass_eigenvalues,
    "crowded signed": lambda p, sec, n: [
        e for e, _ in dirac_ball._signed_spectrum(_crowded_largemass_kernels, p, [sec], n, None, threshold=True)
    ],
    "crowded magnitudes": lambda p, sec, n: sorted(
        sum(dirac_ball._branch_roots(_crowded_largemass_kernels, p, sec, n, None, pooled=True, threshold=True), [])
    )[:n],
    "robin": robin_laplacian_eigenvalues,
}


class TestBranchRecords:
    """A run keeps one record per spectral branch, (roots, reach), and
    answers a request from the records only where the roots up to their
    reach hold the request's answer."""

    @staticmethod
    def _answer(request, p, kj, count):
        try:
            return [e.hex() for e in RECORD_REQUESTS[request](p, AngularSector(kj), count)]
        except NumericsError as exc:
            return type(exc).__name__

    @settings(max_examples=300, deadline=None)
    @given(
        R=st.floats(min_value=0.3, max_value=5.0),
        m=st.floats(min_value=math.log(3.0), max_value=math.log(1e6)).map(math.exp),
        data=st.data(),
    )
    def test_requests_in_one_run_get_their_bits_alone(self, R, m, data):
        # One or two sectors a run, so that its requests meet in the records.
        kjs = data.draw(st.lists(st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=2, unique=True))
        requests = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(sorted(RECORD_REQUESTS)), st.sampled_from(kjs), st.integers(min_value=1, max_value=4)
                ),
                min_size=1,
                max_size=8,
            )
        )
        p = DiracParams(R=R, m=m)
        alone = [self._answer(request, p, kj, count) for request, kj, count in requests]
        with run_memo():
            assert [self._answer(request, p, kj, count) for request, kj, count in requests] == alone

    def test_records_answer_up_to_their_reach(self, monkeypatch):
        # A stand-in driver returns the roots planned for each walk.
        walks, planned = [], []

        def scan(*walk):
            assert planned, "the records answer this request"
            walks.append(walk)
            return planned.pop(0)

        monkeypatch.setattr(dirac_ball, "_scan_roots", scan)
        p, sec, tol = DiracParams(R=1.0), AngularSector(-1), ToleranceConfig()

        def kernels(p, sec):
            return None

        def request(count, pooled, *walk):
            # The roots of one request; ``walk`` is what its walk finds.
            planned.extend([[list(roots) for roots in walk]] if walk else [])
            return dirac_ball._branch_roots(kernels, p, sec, count, tol, pooled)

        with run_memo():
            # A walk for 3 per branch: each branch reaches its own last root.
            assert request(3, False, [1.0, 4.0, 7.0], [2.0, 2.5, 3.0]) == [[1.0, 4.0, 7.0], [2.0, 2.5, 3.0]]
            # Four roots lie up to the lesser reach 3: a pooled request for
            # 4 after the deeper walk scans nothing, and one for 5 walks.
            assert request(4, True) == [[1.0, 4.0, 7.0], [2.0, 2.5, 3.0]]
            assert request(5, True, [1.0], [2.0, 2.5, 3.0, 3.5]) == [[1.0], [2.0, 2.5, 3.0, 3.5]]
            # That pooled walk reaches 3.5 in both branches: it replaces the
            # minus record, and not the plus record, which reaches 7.
            assert request(3, False) == [[1.0, 4.0, 7.0], [2.0, 2.5, 3.0, 3.5]]
            assert request(5, True) == [[1.0, 4.0, 7.0], [2.0, 2.5, 3.0, 3.5]]
        assert len(walks) == 2
        # Outside a run every request walks.
        request(1, False, [1.0], [2.0])
        assert len(walks) == 3

    def test_the_record_key_holds_every_field_of_the_params_and_tolerance(self):
        # _branch_roots keys its records on these fields by name.  A field
        # added to either class must join that key, or two solves that
        # differ in it would share one record and its roots.
        assert [f.name for f in dataclasses.fields(DiracParams)] == ["R", "m0", "m"]
        assert [f.name for f in dataclasses.fields(ToleranceConfig)] == ["abs_tol", "rel_tol", "max_iter"]


# Tolerances a request may carry, the default among them.
TOLERANCES = st.sampled_from(
    [None, ToleranceConfig(), ToleranceConfig(abs_tol=0.0, rel_tol=1e-6, max_iter=300),
     ToleranceConfig(abs_tol=1e-12, rel_tol=1e-10, max_iter=300)]
)
SWEEP_REQUESTS = {
    name: RECORD_REQUESTS[name]
    for name in ("mit signed", "mit magnitudes", "largemass signed", "largemass magnitudes", "robin")
}


def _outcome(solve):
    """The levels ``solve()`` returns, in hex, or its error's type and message."""
    try:
        return [x.hex() for x in solve()]
    except NumericsError as exc:
        return type(exc), str(exc)


class TestSweeps:
    """A sweep of one sector's orders at one R and m0 in one run: bag,
    large-mass and Robin solves at any masses, counts, kinds and
    tolerances share the run's scan grids, and each gets what its lone
    solve gets, bit for bit, errors included."""

    @settings(max_examples=120, deadline=None)
    @given(
        R=st.floats(min_value=0.5, max_value=3.0),
        m0=st.sampled_from([0.0, 0.5]),
        k=st.integers(min_value=1, max_value=50),
        requests=st.lists(
            st.tuples(
                st.sampled_from(sorted(SWEEP_REQUESTS)), SIGNS, MASSES, st.integers(min_value=1, max_value=20),
                TOLERANCES,
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_a_sweep_is_its_lone_solves(self, R, m0, k, requests):
        asked = [
            (SWEEP_REQUESTS[name], DiracParams(R=R, m0=m0, m=m), AngularSector(int(sign) * k), count, tol)
            for name, sign, m, count, tol in requests
        ]
        alone = [_outcome(lambda: solve(p, sec, count, tol)) for solve, p, sec, count, tol in asked]
        with run_memo():
            assert [_outcome(lambda: solve(p, sec, count, tol)) for solve, p, sec, count, tol in asked] == alone

    def test_a_large_mass_solve_reads_the_bag_grid(self, monkeypatch):
        # A bag solve of kj = 2 and then a large-mass solve of kj = -2 at one
        # R and m0, in one run: the large-mass walk reads the Bessel pairs
        # of the bag walk's grid, which reaches past its two levels, and
        # evaluates no scan point's pair twice.
        points = []
        for name in ("_mit_kernels", "_largemass_kernels"):

            def factory(p, sec, _factory=getattr(dirac_ball, name)):
                at, values, value_slopes = _factory(p, sec)

                def counted_at(x):
                    points.append(x)
                    return at(x)

                return counted_at, values, value_slopes

            monkeypatch.setattr(dirac_ball, name, factory)
        bag_p, large_p = DiracParams(R=1.3), DiracParams(R=1.3, m=200.0)
        bag, large = mit_eigenvalues(bag_p, AngularSector(2), 3), largemass_eigenvalues(large_p, AngularSector(-2), 2)
        points.clear()
        with run_memo():
            assert mit_eigenvalues(bag_p, AngularSector(2), 3) == bag
            walked = len(points)
            assert largemass_eigenvalues(large_p, AngularSector(-2), 2) == large
        assert walked > 0 and len(points) == len(set(points)) == walked

    def test_an_entry_past_its_threshold_raises_its_lone_error(self):
        # At m = 50 the twentieth level of kj = 48 lies above m0 + m (R = 1);
        # at m = 1e4 it does not.  In one run the m = 50 solve, after the
        # m = 1e4 solve has filled the grid past the threshold, raises its
        # lone error, and the records still answer the m = 1e4 solve.
        sec = AngularSector(48)
        low, high = DiracParams(R=1.0, m=50.0), DiracParams(R=1.0, m=1e4)
        with pytest.raises(EssentialSpectrumError) as lone:
            largemass_eigenvalues(low, sec, 20)
        levels = largemass_eigenvalues(high, sec, 20)
        with run_memo():
            assert largemass_eigenvalues(high, sec, 20) == levels
            with pytest.raises(EssentialSpectrumError) as swept:
                largemass_eigenvalues(low, sec, 20)
            assert str(swept.value) == str(lone.value) == "search window reached the essential spectrum at 50.0"
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dirac_ball, "_scan_roots", None)  # answered by the records, no walk
                assert largemass_eigenvalues(high, sec, 20) == levels


class TestExactIdentities:
    """Exact identities of the spectra, as properties over R in [0.5, 3],
    m in [50, 1e6] and |kappa_j| <= 50 (ROADMAP item 5)."""

    @settings(max_examples=60, deadline=None)
    @given(
        R=st.floats(min_value=0.5, max_value=3.0),
        m=MASSES,
        kj=st.integers(min_value=1, max_value=50).flatmap(lambda k: st.sampled_from([-k, k])),
        count=st.integers(min_value=1, max_value=3),
    )
    def test_radius_scaling(self, R, m, kj, count):
        # At m0 = 0 the operators on the ball of radius R are those of the
        # unit ball at mass m R, scaled by 1/R: E(R, m) = E(1, m R) / R.
        sec = AngularSector(kj)
        bag = mit_eigenvalues(DiracParams(R=R), sec, count)
        assert bag == pytest.approx([e / R for e in mit_eigenvalues(DiracParams(R=1.0), sec, count)], rel=1e-12)
        try:
            scaled = largemass_eigenvalues(DiracParams(R=R, m=m), sec, count)
            unit = largemass_eigenvalues(DiracParams(R=1.0, m=m * R), sec, count)
        except EssentialSpectrumError:
            return  # a level at the threshold m: the two windows need not agree there
        assert scaled == pytest.approx([e / R for e in unit], rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        R=st.floats(min_value=0.5, max_value=3.0),
        m=MASSES,
        kj=st.integers(min_value=1, max_value=50).flatmap(lambda k: st.sampled_from([-k, k])),
        count=st.integers(min_value=1, max_value=4),
    )
    def test_robin_levels_lie_below_the_squared_bag_levels(self, R, m, kj, count):
        # The k-th Robin level of a sector is at most the square of the k-th
        # bag level (distinct levels), up to the rounding the report's
        # robin.upper_bound row allows.
        sec = AngularSector(kj)
        bag = mit_eigenvalues(DiracParams(R=R), sec, count)
        robin = robin_laplacian_eigenvalues(DiracParams(R=R, m=m), sec, count)
        assert len(set(bag)) == count
        for lam, lam_int in zip(bag, robin, strict=True):
            assert lam_int <= lam**2 + 1e-9 * (lam**2 + 1.0)
