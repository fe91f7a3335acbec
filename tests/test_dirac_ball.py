"""Ball eigensolvers and boundary functionals, cross-checked against
independent closed-form evaluations (plain bisection + scipy Bessel)."""

import math

import numpy as np
import pytest
import scipy.special as sp

from mitbag.dirac_ball import (
    AngularSector,
    DiracParams,
    EssentialSpectrumError,
    SpectralResult,
    boundary_identity_check,
    charge_conjugation_check,
    eta_functional,
    hermitian_form_eigenvalues,
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
    singular_values_merged,
)
from mitbag.numerics import ToleranceConfig

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


class TestBagSolver:
    def test_ground_state_against_oracle(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        assert lam1 == pytest.approx(bisection_ground_state(), abs=1e-10)

    def test_lowest_sector_matching_is_j0_eq_j1(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        assert float(sp.spherical_jn(0, lam1)) == pytest.approx(
            float(sp.spherical_jn(1, lam1)), rel=1e-12
        )

    def test_radius_scaling(self):
        lam_r1 = mit_eigenvalues(P0, GROUND, 3).energies()
        lam_r2 = mit_eigenvalues(DiracParams(R=2.0), GROUND, 3).energies()
        np.testing.assert_allclose(lam_r2, np.array(lam_r1) / 2.0, rtol=1e-12)

    def test_singular_values_sorted_and_interlaced(self):
        values = mit_eigenvalues(P0, GROUND, 4).energies()
        assert values == sorted(values)
        assert len(values) == 4

    def test_spectrum_symmetry(self):
        signed = mit_spectrum_signed(P0, [AngularSector(k) for k in (-2, -1, 1, 2)], 3)
        assert charge_conjugation_check(signed) <= 1e-12

    def test_count_validation(self):
        with pytest.raises(ValueError):
            mit_eigenvalues(P0, GROUND, 21)

    def test_merged_degeneracy_expansion(self):
        merged = singular_values_merged(P0, (-1, 1), 6, mit_eigenvalues)
        # Lowest level appears 4 times: both sectors, degeneracy 2 each.
        lam1 = merged[0][0]
        assert [abs(e - lam1) <= 1e-12 for e, _ in merged[:4]] == [True] * 4


class TestBagEigenpair:
    def test_normalization(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
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
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        pair = mit_eigenpair(P0, GROUND, lam1)
        fR, gR, dfR, dgR = pair.boundary_values
        assert dfR + fR == pytest.approx(dgR + gR, abs=1e-12)

    @pytest.mark.parametrize("kind", ("mit", "largemass", "robin"))
    def test_interior_values_match_samples(self, kind):
        # The stored samples and interior_values come from one sampler, so
        # they agree exactly.
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        if kind == "mit":
            pair = mit_eigenpair(P0, GROUND, mit_eigenvalues(P0, GROUND, 1).energies()[0])
        elif kind == "largemass":
            pair = largemass_eigenpair(pm, GROUND, largemass_eigenvalues(pm, GROUND, 1).energies()[0])
        else:
            pair = robin_eigenpair(pm, GROUND, robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0])
        f, g = pair.interior_values(pair.r)
        np.testing.assert_array_equal(f, pair.f)
        np.testing.assert_array_equal(g, pair.g)


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
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        mu1 = mu_functional(mit_eigenpair(P0, GROUND, lam1), P0)
        p2 = DiracParams(R=2.0)
        lam2 = mit_eigenvalues(p2, GROUND, 1).energies()[0]
        mu2 = mu_functional(mit_eigenpair(p2, GROUND, lam2), p2)
        assert mu2 == pytest.approx(mu1 / 8.0, rel=1e-10)

    def test_vanishing_trace_gives_zero(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        pair = mit_eigenpair(P0, GROUND, lam1)
        silent = pair.__class__(
            energy=pair.energy,
            sector=pair.sector,
            kind=pair.kind,
            r=pair.r,
            f=pair.f,
            g=pair.g,
            weights=pair.weights,
            boundary_values=(1.0, 1.0, -1.0, -1.0),  # Robin traces vanish: df = -(1/R+m0) f
            residual=pair.residual,
            radial_params=pair.radial_params,
        )
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
        assert hermitian_form_eigenvalues(np.diag([-1.0, -3.0])) == [-3.0, -1.0]

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            hermitian_form_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_orthonormal_rejected(self):
        ref = ground_closed_form()
        pair = mit_eigenpair(P0, GROUND, ref["lam"])
        bad = pair.__class__(
            energy=pair.energy,
            sector=pair.sector,
            kind=pair.kind,
            r=pair.r,
            f=2.0 * pair.f,
            g=2.0 * pair.g,
            weights=pair.weights,
            boundary_values=pair.boundary_values,
            residual=pair.residual,
            radial_params=pair.radial_params,
        )
        with pytest.raises(ValueError):
            nu_minmax([bad], ref["lam"], P0)

    def test_too_many_copies_rejected(self):
        ref = ground_closed_form()
        copies = [mit_eigenpair(P0, GROUND, ref["lam"]) for _ in range(3)]
        with pytest.raises(ValueError):
            nu_minmax(copies, ref["lam"], P0)


class TestLargeMass:
    def test_converges_to_bag_value(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        pm = DiracParams(R=1.0, m0=0.0, m=1e6)
        lam_m = largemass_eigenvalues(pm, GROUND, 1).energies()[0]
        assert abs(lam_m - lam1) <= 1e-4

    def test_gap_shrinks_like_inverse_mass(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        gaps = []
        for m in (1e2, 1e3, 1e4):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            gaps.append(abs(largemass_eigenvalues(pm, GROUND, 1).energies()[0] - lam1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[0] / gaps[1] == pytest.approx(10.0, rel=0.05)

    def test_spectrum_symmetry(self):
        pm = DiracParams(R=1.0, m0=0.0, m=100.0)
        signed = largemass_spectrum_signed(pm, [GROUND, AngularSector(1)], 2)
        assert charge_conjugation_check(signed) <= 1e-10

    def test_eigenpair_normalized_with_tail(self):
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_m = largemass_eigenvalues(pm, GROUND, 1).energies()[0]
        pair = largemass_eigenpair(pm, GROUND, lam_m)
        assert pair.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # Exterior mass is a genuine O(1/m) fraction.
        assert 0.0 < pair.exterior_norm_sq() < 5.0 / 200.0

    def test_tail_continuity(self):
        # The lower component's interface continuity is the eigenvalue
        # condition itself: the exterior closed form evaluated at r = R must
        # reproduce the interior boundary value.
        from mitbag.special import modified_spherical_bessel_k_scaled

        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_m = largemass_eigenvalues(pm, GROUND, 1).energies()[0]
        pair = largemass_eigenpair(pm, GROUND, lam_m)
        fR, gR, _, _ = pair.boundary_values
        M = pm.m0 + pm.m
        q = math.sqrt(M * M - lam_m * lam_m)
        ek_upper = modified_spherical_bessel_k_scaled(GROUND.ell_upper, q * pm.R)
        ek_lower = modified_spherical_bessel_k_scaled(GROUND.ell_lower, q * pm.R)
        g_out_at_R = -(q / (lam_m + M)) * fR * ek_lower / ek_upper
        assert g_out_at_R == pytest.approx(gR, rel=1e-10)

    def test_window_touching_threshold_reported(self):
        with pytest.raises(EssentialSpectrumError):
            largemass_eigenvalues(DiracParams(R=1.0, m0=0.0, m=1.5), GROUND, 1)

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            largemass_eigenvalues(P0, GROUND, 1)


class TestRobinSolver:
    def test_upper_bound(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        for m in (50.0, 400.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
            assert lam_int <= lam1**2 + 1e-10

    def test_large_mass_limit_is_bag_square(self):
        lam1 = mit_eigenvalues(P0, GROUND, 1).energies()[0]
        pm = DiracParams(R=1.0, m0=0.0, m=1e6)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
        assert abs(lam_int - lam1**2) / lam1**2 <= 1e-3

    def test_boundary_conditions_satisfied(self):
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
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
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
            values.append(m * (lam_int - ref["lam"] ** 2))
        # m (lambda_int - lambda^2) approaches mu monotonically from above.
        assert values[-1] == pytest.approx(ref["mu"], rel=2e-3)

    def test_intrinsic_mass_supported(self):
        p = DiracParams(R=1.0, m0=0.5, m=1e5)
        lam1 = mit_eigenvalues(p, GROUND, 1).energies()[0]
        lam_int = robin_laplacian_eigenvalues(p, GROUND, 1).energies()[0]
        assert abs(lam_int - lam1**2) / lam1**2 <= 1e-3


class TestBoundaryIdentity:
    def test_residual_small(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        for m in (200.0, 800.0):
            pm = DiracParams(R=1.0, m0=0.0, m=m)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
            u_int = robin_eigenpair(pm, GROUND, lam_int)
            assert boundary_identity_check(u_int, u_mit, m, pm) <= 1e-9

    def test_orthogonal_sectors_give_zero(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        sec2 = AngularSector(-2)
        lam_int = robin_laplacian_eigenvalues(pm, sec2, 1).energies()[0]
        u_int = robin_eigenpair(pm, sec2, lam_int)
        assert boundary_identity_check(u_int, u_mit, 200.0, pm) == 0.0

    def test_residual_shrinks_with_solver_tolerance(self):
        ref = ground_closed_form()
        u_mit = mit_eigenpair(P0, GROUND, ref["lam"])
        pm = DiracParams(R=1.0, m0=0.0, m=200.0)
        residuals = []
        for rel in (1e-6, 1e-12):
            tol = ToleranceConfig(abs_tol=0.0, rel_tol=rel, max_iter=300)
            lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1, tol=tol).energies()[0]
            u_int = robin_eigenpair(pm, GROUND, lam_int)
            residuals.append(boundary_identity_check(u_int, u_mit, 200.0, pm))
        assert residuals[1] < residuals[0]


class TestIntrinsicMass:
    """The first-order laws carry the intrinsic mass through every formula."""

    M0 = 0.5
    P = DiracParams(R=1.0, m0=0.5, m=0.0)

    def test_slope_laws_at_nonzero_intrinsic_mass(self):
        lam1 = mit_eigenvalues(self.P, GROUND, 1).energies()[0]
        u1 = mit_eigenpair(self.P, GROUND, lam1)
        eta1 = eta_functional(u1, lam1, self.P)
        mu1 = mu_functional(u1, self.P)
        m = 12800.0
        pm = DiracParams(R=1.0, m0=self.M0, m=m)
        lam_m = largemass_eigenvalues(pm, GROUND, 1).energies()[0]
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
        assert m * (lam_m**2 - lam1**2) == pytest.approx(eta1, rel=2e-4)
        assert m * (lam_int - lam1**2) == pytest.approx(mu1, rel=2e-4)

    def test_boundary_identity_at_nonzero_intrinsic_mass(self):
        lam1 = mit_eigenvalues(self.P, GROUND, 1).energies()[0]
        u1 = mit_eigenpair(self.P, GROUND, lam1)
        pm = DiracParams(R=1.0, m0=self.M0, m=400.0)
        lam_int = robin_laplacian_eigenvalues(pm, GROUND, 1).energies()[0]
        u_int = robin_eigenpair(pm, GROUND, lam_int)
        assert boundary_identity_check(u_int, u1, 400.0, pm) <= 1e-9

    def test_interior_wavenumber_below_intrinsic_mass_rejected(self):
        with pytest.raises(ValueError):
            mit_eigenpair(self.P, GROUND, 0.25)


class TestSpectralResult:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            SpectralResult(
                eigenvalues=((2.0, GROUND), (1.0, GROUND)),
                solver_residuals=(0.0, 0.0),
            )

    def test_charge_conjugation_empty(self):
        empty = SpectralResult(eigenvalues=(), solver_residuals=())
        assert charge_conjugation_check(empty) == 0.0
