"""Transverse boundary-layer problem: closed forms, expansion, residuals."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.special import i0e, i1e, k0e, k1e

from mitbag import cli, transverse
from mitbag.numerics import NumericsError, panel_nodes
from mitbag.transverse import (
    ELEMENT_PANEL,
    SERIES_TERMS,
    TAU_CUT,
    _ansatz_poly,
    _cutoff,
    CurvatureData,
    SeriesTailError,
    TransverseProblem,
    collar_is_valid,
    expansion_lambda,
    min_rescaled_weight,
    residual_of_ansatz,
    solve_transverse,
    transverse_form,
    transverse_mass_check,
)

FLAT = CurvatureData.flat()


def valid_problems(m, kappa=st.floats(-3.0, 3.0), gauss=st.floats(-2.0, 2.0)):
    """(m, kappa, K) triples from the given strategies, valid for a TransverseProblem."""
    return st.tuples(m, kappa, gauss).filter(lambda t: collar_is_valid(CurvatureData(t[1], t[2]), t[0]))


# The largest mass whose square (in the collar weight) does not overflow.
LARGEST_MASS = 1.3407807929942596e154


def zero_distance(prob: TransverseProblem) -> float:
    """Distance from the collar [0, sqrt(m)] to the nearest complex zero of
    the weight, from numpy's polynomial roots: an independent route to the
    solver's closed-form roots.  The zeros are tau = m / y for the roots y of
    y^2 + kappa y + K, the weight times (m / tau)^2, which is monic."""
    kappa, K, m = prob.curv.kappa, prob.curv.gauss, prob.m
    T = math.sqrt(m)
    zeros = [m / complex(y) for y in np.roots([1.0, kappa, K]) if abs(y) > 1e-300 * m]
    return min((abs(complex(min(max(z.real, 0.0), T), 0.0) - z) for z in zeros), default=math.inf)


def kept_segments(prob: TransverseProblem) -> tuple[int, float, int]:
    """Number and length of the kept segments, and the number of the uncut
    collar: n equal segments no longer than ELEMENT_PANEL nor than a quarter
    of the distance to the weight's nearest zero, of which those that start
    before TAU_CUT are kept."""
    T = math.sqrt(prob.m)
    n = max(1, math.ceil(T / ELEMENT_PANEL), math.ceil(T / (0.25 * zero_distance(prob))))
    h = T / n
    return (n if T <= TAU_CUT else min(n, math.ceil(TAU_CUT / h))), h, n


# sqrt(m) <= 4 gives one segment unless the weight's zero is near; a cut
# collar whose segments are shorter than 4 keeps 7.
ONE_ELEMENT = valid_problems(
    st.sampled_from((4.0, 9.0, 16.0)) | st.floats(1.0, 16.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5)
)
LONG_COLLAR = valid_problems(
    (st.sampled_from((729.0, 6561.0, 1e4 + 1.0)) | st.floats(577.0, 2e4)).filter(
        lambda m: kept_segments(TransverseProblem(m=m, curv=FLAT))[0] == 7
    )
)
ANY_COLLAR = valid_problems(st.sampled_from((9.0, 36.0, 100.0, 1600.0)) | st.floats(1.0, 1e4))


def flat_lambda(m: float) -> float:
    return 1.0 / math.tanh(math.sqrt(m))


def flat_mass(m: float) -> float:
    # (sinh(2T)/4 - T/2)/sinh(T)^2, written so that it stays finite up to T = 600.
    T = math.sqrt(m)
    return 0.5 / math.tanh(T) - 0.5 * T / math.sinh(T) / math.sinh(T)


class TestFlatClosedForms:
    def test_energy_m4(self):
        sol = solve_transverse([TransverseProblem(m=4.0, curv=FLAT)])[0]
        assert sol.lam == pytest.approx(1.0 / math.tanh(2.0), abs=1e-11)
        assert sol.flux[0] == -sol.lam

    def test_mass_m4(self):
        # mass = (sinh 4 / 4 - 1)/sinh^2 2 = 0.44263553...
        sol = solve_transverse([TransverseProblem(m=4.0, curv=FLAT)])[0]
        expected = (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
        assert sol.mass == pytest.approx(expected, abs=1e-10)
        assert transverse_mass_check(sol) == pytest.approx(0.5 - expected, abs=1e-10)

    @pytest.mark.parametrize("m", (1.0, 9.0, 64.0, 900.0))
    def test_energy_any_interval(self, m):
        sol = solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0]
        assert sol.lam == pytest.approx(flat_lambda(m), rel=1e-11)
        assert sol.mass == pytest.approx(flat_mass(m), rel=1e-9)

    def test_large_mass_limit(self):
        sol = solve_transverse([TransverseProblem(m=1e4, curv=FLAT)])[0]
        assert abs(sol.lam - 1.0) <= 1e-8

    def test_profile_matches_closed_form(self):
        m = 16.0
        sol = solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0]
        taus = np.linspace(0.0, 4.0, 9)
        u, du = sol.evaluate(taus)
        np.testing.assert_allclose(u, np.sinh(4.0 - taus) / math.sinh(4.0), rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(du, -np.cosh(4.0 - taus) / math.sinh(4.0), rtol=1e-9, atol=1e-12)

    def test_closed_forms_to_rounding(self):
        # One call over several masses: lambda = coth sqrt(m) and
        # mass = (sinh(2 sqrt m)/4 - sqrt(m)/2)/sinh^2 sqrt(m), to a few ulp.
        masses = (4.0, 16.0, 100.0, 1600.0, 1e4, 1e5)
        sols = solve_transverse([TransverseProblem(m=m, curv=FLAT) for m in masses])
        for m, sol in zip(masses, sols):
            assert abs(sol.lam - flat_lambda(m)) <= 1e-15, m
            assert abs(sol.mass - flat_mass(m)) <= 5e-15, m

    def test_boundary_samples_pinned(self):
        sol = solve_transverse([TransverseProblem(m=4.0, curv=FLAT)])[0]
        assert sol.u[0] == 1.0 and sol.u[-1] == 0.0 and sol.flux[0] == -sol.lam


def cylinder_lambda(kappa: float, m: float) -> float:
    """Lambda for a = 1 + kappa tau / m (K = 0, kappa != 0), by scipy's
    scaled modified Bessel functions.  In s = m/|kappa| +- tau the equation
    (a u')' = a u is (s u_s)_s = s u, so u = A I0(s) + B K0(s) between
    s0 = m/|kappa| and s1 = s0 +- sqrt(m), and Lambda = -u'(0) is a ratio of
    I0, I1, K0, K1 at s0 and s1; q = e^{-2 sqrt(m)} undoes the scaling."""
    s0, T = m / abs(kappa), math.sqrt(m)
    q = math.exp(-2.0 * T)
    if kappa > 0.0:
        s1 = s0 + T
        return (i1e(s0) * k0e(s1) * q + k1e(s0) * i0e(s1)) / (k0e(s0) * i0e(s1) - i0e(s0) * k0e(s1) * q)
    s1 = s0 - T
    return (i1e(s0) * k0e(s1) + k1e(s0) * i0e(s1) * q) / (i0e(s0) * k0e(s1) - k0e(s0) * i0e(s1) * q)


class TestCurvedClosedForms:
    """Two curved families the solver meets with exact references."""

    def test_sphere_type_weights(self):
        # K = kappa^2/4 makes a = rho^2 with rho = 1 + kappa tau/(2m) linear,
        # and u = v / rho turns (a u')' = a u into v'' = v: so
        # Lambda = coth sqrt(m) + kappa/(2m), and the weighted mass int v^2
        # is the flat one.  Every valid problem goes to one stacked solve.
        probs = [
            TransverseProblem(m=m, curv=CurvatureData(kappa, kappa**2 / 4.0))
            for kappa in (1.0, -1.0, 2.0, -2.0, 3.0)
            for m in (36.0, 64.0, 100.0, 400.0, 1600.0)
            if collar_is_valid(CurvatureData(kappa, kappa**2 / 4.0), m)
        ]
        assert len(probs) == 24
        for prob, sol in zip(probs, solve_transverse(probs), strict=True):
            lam = flat_lambda(prob.m) + prob.curv.kappa / (2.0 * prob.m)
            assert abs(sol.lam - lam) <= 1e-14 * lam, prob
            assert abs(sol.mass - flat_mass(prob.m)) <= 1e-13 * flat_mass(prob.m), prob

    def test_cylinder_type_weights(self):
        # The four K = 0 curved pairs of the default grid at their valid
        # masses, as the transverse suite solves them.
        pairs = tuple(pair for pair in cli.DEFAULT_CURVATURE_GRID if pair[0] != 0.0 and pair[1] == 0.0)
        sweep = cli.SuiteConfig(suite="transverse", curvature_grid=pairs).transverse_sweep
        probs = [prob for _, pair_probs in sweep for prob in pair_probs]
        assert len(pairs) == 4 and len(probs) == 18
        for prob, sol in zip(probs, solve_transverse(probs), strict=True):
            lam = cylinder_lambda(prob.curv.kappa, prob.m)
            assert abs(sol.lam - lam) <= 1e-14 * lam, prob


class TestRitzSolver:
    """The solver's closed forms, stacking, layout and evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.floats(1.0, 600.0**2))
    def test_flat_closed_forms_over_the_whole_range(self, m):
        sol = solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0]
        assert sol.lam == pytest.approx(flat_lambda(m), rel=1e-12)
        assert sol.mass == pytest.approx(flat_mass(m), rel=1e-12)
        assert sol.flux[0] == -sol.lam

    @settings(max_examples=40, deadline=None)
    @given(m=st.floats(1.0, 600.0**2))
    def test_ritz_value_is_an_upper_bound(self, m):
        sol = solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0]
        assert sol.lam >= flat_lambda(m) - 1e-14

    @settings(max_examples=30, deadline=None)
    @given(
        problems=st.tuples(ONE_ELEMENT, LONG_COLLAR, st.lists(ANY_COLLAR, max_size=6))
        .map(lambda t: [t[0], t[1], *t[2]])
        .flatmap(st.permutations)
    )
    def test_stacked_solve_is_bitwise_the_lone_solve(self, problems):
        # Every stack mixes a short collar, a cut collar of 7 segments and
        # several masses, so the sweep steps cover different problem counts.
        probs = [TransverseProblem(m=m, curv=CurvatureData(kappa, K)) for m, kappa, K in problems]
        sols = solve_transverse(probs)
        assert max(len(sol.tau) for sol in sols) >= 8
        for prob, sol in zip(probs, sols, strict=True):
            (lone,) = solve_transverse([prob])
            assert (sol.lam, sol.mass, sol.tau, sol.u, sol.flux) == (lone.lam, lone.mass, lone.tau, lone.u, lone.flux)
            t = np.linspace(0.0, prob.half_width, 9)
            assert all(np.array_equal(a, b) for a, b in zip(sol.evaluate(t), lone.evaluate(t)))

    def test_empty_stack(self):
        assert solve_transverse([]) == []

    def test_interval_cap(self):
        # The cut collar does not grow with the mass: the last mass whose
        # square the weight can form is solved on 6 or 7 segments, and the
        # next one is refused when the problem is built.
        probs = [TransverseProblem(m=m, curv=CurvatureData(1.0, 1.0)) for m in (600.0**2, 1e100, LARGEST_MASS)]
        for prob, sol in zip(probs, solve_transverse(probs)):
            assert sol.lam == pytest.approx(expansion_lambda(prob), rel=1e-15)
            assert len(sol.tau) <= 8
        with pytest.raises(ValueError, match="overflows"):
            TransverseProblem(m=math.nextafter(LARGEST_MASS, math.inf), curv=FLAT)

    def test_samples_are_element_nodes(self):
        # The samples are the segment ends, where evaluate returns the
        # solution's own values and fluxes.
        T = 5.5 * ELEMENT_PANEL  # six segments of length 11/12 ELEMENT_PANEL
        m = T * T
        prob = TransverseProblem(m=m, curv=CurvatureData(2.0, 1.0))
        sol = solve_transverse([prob])[0]
        assert len(sol.tau) == len(sol.u) == len(sol.flux) == 7
        assert sol.tau[0] == 0.0 and sol.tau[-1] == math.sqrt(m)
        np.testing.assert_allclose(sol.tau, np.linspace(0.0, T, 7), rtol=0.0, atol=1e-14)
        u, du = sol.evaluate(np.array(sol.tau))
        assert np.array_equal(u, sol.u) and np.array_equal(du, np.array(sol.flux) / prob.weight(np.array(sol.tau)))

    @pytest.mark.parametrize("m", (9.0, 16.0, 20.25, 1e4))
    def test_evaluate_is_confined_to_the_collar(self, m):
        # One-segment (sqrt(m) <= 4) and multi-segment collars, and at
        # m = 1e4 a collar cut at tau = 24: the domain stays [0, sqrt(m)],
        # with the profile 0 past the cut.
        sol = solve_transverse([TransverseProblem(m=m, curv=CurvatureData(0.5, 0.25))])[0]
        T = math.sqrt(m)
        assert sol.half_width == T and sol.tau[-1] == (T if T <= TAU_CUT else 24.0)
        inner = np.linspace(0.0, T, 33)[1:-1]
        (u_ends, _), (u, du) = sol.evaluate(np.array([0.0, T])), sol.evaluate(inner)
        assert u_ends[0] == 1.0 and abs(u_ends[1]) <= 1e-12
        beyond = inner > sol.tau[-1]
        assert beyond.any() == (T > TAU_CUT)
        assert np.all(u[beyond] == 0.0) and np.all(du[beyond] == 0.0) and np.all(u[~beyond] > 0.0)
        if T > TAU_CUT:
            assert sol.evaluate(sol.tau[-1])[0] == 0.0 and abs(sol.evaluate(sol.tau[-1])[1]) > 0.0
            assert sol.evaluate(np.nextafter(sol.tau[-1], np.inf)) == (0.0, 0.0)
        # Interior values keep their bits with the endpoints beside them and
        # one point at a time.
        u_all, du_all = sol.evaluate(np.concatenate([[0.0], inner, [T]]))
        assert np.array_equal(u_all[1:-1], u) and np.array_equal(du_all[1:-1], du)
        assert all(sol.evaluate(t) == (u[k], du[k]) for k, t in enumerate(inner))
        for outside in (np.nextafter(0.0, -1.0), -1.0, np.nextafter(T, np.inf), 2.0 * T, math.nan, math.inf):
            with pytest.raises(ValueError, match="collar"):
                sol.evaluate(outside)
            with pytest.raises(ValueError, match="collar"):
                sol.evaluate(np.append(inner, outside))


class TestCollarCut:
    """Each collar keeps the segments of its uncut layout that start before
    TAU_CUT, and u = 0 is pinned at the end of the last kept one."""

    @staticmethod
    def suite_problems(m_grid):
        # The problems of one transverse suite on the default curvature grid.
        sweep = cli.SuiteConfig(suite="transverse", m_grid=m_grid).transverse_sweep
        pairs = [prob for _, probs in sweep for prob in probs]
        flat = [TransverseProblem(m=m, curv=FLAT) for m in (4.0, 16.0, 64.0, 1e4)]
        return [*flat, *pairs, TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))]

    @pytest.mark.parametrize(
        "m_grid, count, elements",
        ((cli.TRANSVERSE_M_GRID, 97, (816, 437)), ((9.0, 20.25, 81.0, 729.0, 6561.0), 85, (694, 395))),
    )
    def test_cut_moves_the_solve_by_rounding_only(self, monkeypatch, m_grid, count, elements):
        # The default suite and the short grid, whose masses 729 and 6561
        # have segments shorter than 4.  The sweep of a cut collar starts from
        # u = 0 at tau_end instead of from the tail's state there, whose
        # effect on Lambda is below 2^-60 Lambda (module docstring), so the
        # two solves differ by their rounding only: at most 2 ulp of Lambda
        # and 13 ulp of the mass are seen.
        probs = self.suite_problems(m_grid)
        cut = solve_transverse(probs)
        monkeypatch.setattr(transverse, "TAU_CUT", math.inf)
        uncut = solve_transverse(probs)
        assert len(probs) == count
        for a, b in zip(cut, uncut, strict=True):
            assert abs(a.lam - b.lam) <= 4.0 * math.ulp(b.lam)
            assert abs(a.mass - b.mass) <= 32.0 * math.ulp(b.mass)
            assert a.half_width == b.half_width == b.tau[-1] >= a.tau[-1]
        sizes = [sum(len(sol.tau) - 1 for sol in sols) for sols in (uncut, cut)]
        assert tuple(sizes) == elements

    @settings(max_examples=60, deadline=None)
    @given(m=st.floats(1.0, 1e4) | st.floats(1.0, LARGEST_MASS) | st.sampled_from((576.0, 577.0, 729.0, LARGEST_MASS)))
    def test_flat_excess_of_the_cut_is_below_rounding(self, m):
        # The minimum over functions vanishing past tau_end exceeds
        # coth sqrt(m) by coth tau_end - coth sqrt(m), formed as a difference
        # of coth x - 1 = 2 / expm1(2x) (which is below 1e-300 where expm1
        # would overflow).
        (sol,) = solve_transverse([TransverseProblem(m=m, curv=FLAT)])
        end, T = sol.tau[-1], math.sqrt(m)
        excess = 2.0 / math.expm1(2.0 * end) - (2.0 / math.expm1(2.0 * T) if T < 354.0 else 0.0)
        assert 0.0 <= excess <= 2.0**-60
        assert excess == 0.0 or T > TAU_CUT

    @settings(max_examples=60, deadline=None)
    @given(
        problem=valid_problems(st.floats(1.0, LARGEST_MASS) | st.floats(1.0, 1e5))
        | valid_problems(st.floats(1.0, 1e3), st.floats(-30.0, 30.0), st.floats(-500.0, 500.0))
    )
    def test_kept_panels_are_the_uncut_panels(self, problem):
        # The kept segments are the first ones of the uncut layout, each no
        # longer than ELEMENT_PANEL nor than a quarter of the distance to the
        # weight's nearest zero (the second strategy reaches the validity
        # floor, where the zero is near), and the collar ends at or past
        # min(sqrt(m), TAU_CUT).
        # The count n is the least that meets both bounds, up to the rounding
        # of the two routes to the zero (a zero at a segment boundary can
        # take either count).
        m, kappa, K = problem
        prob = TransverseProblem(m=m, curv=CurvatureData(kappa, K))
        (sol,) = solve_transverse([prob])
        T, rho = math.sqrt(m), zero_distance(prob)
        h = sol.tau[1]
        n = round(T / h)
        kept = len(sol.tau) - 1
        assert h == T / n and len(sol.u) == len(sol.flux) == kept + 1 <= 11
        assert kept == (n if T <= TAU_CUT else min(n, math.ceil(TAU_CUT / h)))
        assert sol.tau[:-1] == tuple((h * np.arange(kept)).tolist())
        assert sol.tau[-1] == (T if kept == n else kept * h)
        assert sol.tau[-1] >= min(T, TAU_CUT) and sol.half_width == T
        assert h <= ELEMENT_PANEL and h <= 0.25 * rho * (1.0 + 1e-12)
        assert n == 1 or T / (n - 1) > min(ELEMENT_PANEL, 0.25 * rho) * (1.0 - 1e-12)

    def test_form_of_the_zero_extension_is_the_energy(self):
        # transverse_form integrates over all of [0, sqrt(m)]; past the cut
        # the profile is 0, and its energy is the solver's lam.
        prob = TransverseProblem(m=1e4, curv=CurvatureData(0.5, 0.25))
        (sol,) = solve_transverse([prob])
        assert sol.tau[-1] == 24.0 < prob.half_width
        assert transverse_form(prob, sol.evaluate) == pytest.approx(sol.lam, rel=1e-14)


class TestExpansion:
    def test_flat_is_one(self):
        assert expansion_lambda(TransverseProblem(m=123.0, curv=FLAT)) == 1.0

    def test_direct_arithmetic(self):
        prob = TransverseProblem(m=100.0, curv=CurvatureData(3.0, 1.0))
        assert expansion_lambda(prob) == pytest.approx(1.0149375, abs=1e-15)

    def test_sphere_value(self):
        # kappa = 2/R, K = 1/R^2 at R=1: the m^-2 coefficient cancels exactly.
        prob = TransverseProblem(m=25.0, curv=CurvatureData(2.0, 1.0))
        assert expansion_lambda(prob) == pytest.approx(1.04, abs=0.0)

    @pytest.mark.parametrize("kappa", (0.5, 1.0, 2.0, 3.0))
    def test_sphere_cancellation_exact(self, kappa):
        prob = TransverseProblem(m=64.0, curv=CurvatureData(kappa, kappa**2 / 4.0))
        assert expansion_lambda(prob) == 1.0 + kappa / 128.0

    def test_solver_matches_expansion_to_third_order(self):
        prob = TransverseProblem(m=100.0, curv=CurvatureData(3.0, 1.0))
        sol = solve_transverse([prob])[0]
        # The next-order coefficient is kappa^3/8 - kappa K/2 = 1.875 here.
        assert abs(sol.lam - 1.0149375) <= 2.5e-6
        assert abs(sol.lam - 1.0149375) >= 1.0e-6

    def test_reflection_structure(self):
        # Mirroring kappa only flips the expansion's odd terms; the solved
        # energy tracks the mirrored expansion to third order.
        m = 400.0
        for kappa in (2.0, 3.0):
            prob = TransverseProblem(m=m, curv=CurvatureData(-kappa, 1.0))
            sol = solve_transverse([prob])[0]
            c3 = abs((-kappa) ** 3 / 8.0 - (-kappa) * 1.0 / 2.0)
            assert abs(sol.lam - expansion_lambda(prob)) <= (c3 + 0.5) / m**3


class TestFormalProfiles:
    # _ansatz_poly sums the profiles u0 + u1/m + u2/m^2 into
    # (c0 + c1 tau + c2 tau^2) e^{-tau}.
    def test_leading_profile(self):
        # Flat: the ansatz is u0 = e^{-tau} alone.
        assert _ansatz_poly(TransverseProblem(m=4.0, curv=FLAT)) == (1.0, 0.0, 0.0)
        assert _ansatz_poly(TransverseProblem(m=64.0, curv=CurvatureData(3.0, 1.0)))[0] == 1.0

    def test_first_correction(self):
        # On a sphere, K = kappa^2/4 cancels the tau e^{-tau} term of u2, so c1
        # is u1's -kappa/(2m) alone; u2 leaves (kappa^2/4) tau^2 e^{-tau} / m^2.
        _, c1, c2 = _ansatz_poly(TransverseProblem(m=32.0, curv=CurvatureData(2.0, 1.0)))
        assert (c1, c2) == (-1.0 / 32.0, 1.0 / 1024.0)

    def test_second_correction(self):
        # kappa = 0: u1 vanishes and u2 = -(K/2)(tau + tau^2) e^{-tau}.
        _, c1, c2 = _ansatz_poly(TransverseProblem(m=4.0, curv=CurvatureData(0.0, 2.0)))
        assert (c1, c2) == (-0.0625, -0.0625)

    @settings(max_examples=40, deadline=None)
    @given(
        kappa=st.integers(-12, 12).map(lambda n: n / 4.0),
        gauss=st.integers(-8, 8).map(lambda n: n / 4.0),
        m=st.integers(7, 13).map(lambda n: 2.0**n),
    )
    def test_derivative_at_zero_reproduces_expansion(self, kappa, gauss, m):
        # -(u0 + u1/m + u2/m^2)'(0) = 1 - c1 is the three-term energy
        # expansion; on dyadic data both sides are computed without rounding.
        prob = TransverseProblem(m=m, curv=CurvatureData(kappa, gauss))
        _, c1, _ = _ansatz_poly(prob)
        assert 1.0 - c1 == expansion_lambda(prob)


class TestCutoff:
    def test_plateaus(self):
        s = np.array([0.0, 0.25, 0.5, 1.0, 1.5])
        chi, chi1, chi2 = _cutoff(s)
        np.testing.assert_array_equal(chi, [1.0, 1.0, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(chi1, 0.0)
        np.testing.assert_array_equal(chi2, 0.0)

    def test_smoothness_at_junctions(self):
        for s0 in (0.5, 1.0):
            for d in (1, 2):
                left = float(_cutoff(np.array([s0 - 1e-9]))[d][0])
                right = float(_cutoff(np.array([s0 + 1e-9]))[d][0])
                assert abs(left - right) <= 1e-5

    def test_derivatives_by_finite_differences(self):
        def chi(s):
            return _cutoff(s)[0]

        s = np.linspace(0.55, 0.95, 9)
        _, chi1, chi2 = _cutoff(s)
        h = 1e-6
        d1 = (chi(s + h) - chi(s - h)) / (2.0 * h)
        np.testing.assert_allclose(chi1, d1, atol=1e-6)
        h2 = 1e-4  # second differences need a larger step to beat roundoff
        d2 = (chi(s + h2) - 2.0 * chi(s) + chi(s - h2)) / h2**2
        np.testing.assert_allclose(chi2, d2, atol=1e-4)


class TestAnsatzResidual:
    def test_flat_residual_is_cutoff_only(self):
        # Without curvature the ansatz solves the equation exactly; what is
        # left decays like exp(-sqrt(m)/4) with a constant fitted coarsely.
        (r25,) = residual_of_ansatz([TransverseProblem(m=25.0, curv=FLAT)])
        c = r25 / math.exp(-math.sqrt(25.0) / 4.0)
        (r100,) = residual_of_ansatz([TransverseProblem(m=100.0, curv=FLAT)])
        assert r100 <= c * math.exp(-math.sqrt(100.0) / 4.0)

    def test_flat_residual_vanishes_for_wide_interval(self):
        assert residual_of_ansatz([TransverseProblem(m=2500.0, curv=FLAT)])[0] <= 1e-12

    @pytest.mark.parametrize("m", (5.5e5, 1e6))
    def test_flat_residual_whose_squares_underflow_against_mpmath(self, m):
        # The node terms e^{-2 tau} (2 chi' - chi'')^2 are far below the
        # double range here; the residual is not 0 and keeps its accuracy.
        (value,) = residual_of_ansatz([TransverseProblem(m=m, curv=FLAT)])
        reference = mp_flat_residual(m)
        assert abs(value - reference) <= 1e-12 * reference

    def test_residual_below_the_normal_range_is_refused(self):
        # At m = 3e6 every node value e^{-tau} (...) on [T/2, T] underflows.
        with pytest.raises(ValueError, match=r"^the ansatz residual at m=3000000.0 peaks at 0.0, below the normal"):
            residual_of_ansatz([TransverseProblem(m=1e6, curv=FLAT), TransverseProblem(m=3e6, curv=FLAT)])

    def test_third_order_rate_curved(self):
        masses = (100.0, 400.0, 1600.0)
        values = [
            residual_of_ansatz([TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0))])[0] * m**3
            for m in masses
        ]
        envelope = values[0]
        assert all(v <= envelope * (1.0 + 1e-9) for v in values[1:])


class TestVariationalStructure:
    def test_minimality_against_test_family(self):
        prob = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))
        sol = solve_transverse([prob])[0]
        T = prob.half_width
        for c in (-0.4, 0.0, 0.3):
            def w(tau, c=c):
                value = np.exp(-tau) * (1.0 - tau / T) + c * np.sin(math.pi * tau / T)
                deriv = (
                    -np.exp(-tau) * (1.0 - tau / T)
                    - np.exp(-tau) / T
                    + c * math.pi / T * np.cos(math.pi * tau / T)
                )
                return value, deriv

            assert transverse_form(prob, w) >= sol.lam - 1e-9

    def test_pythagoras_identity(self):
        prob = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))
        sol = solve_transverse([prob])[0]
        T = prob.half_width

        def w(tau):
            value = np.exp(-tau) * (1.0 - tau / T) + 0.2 * np.sin(2.0 * math.pi * tau / T)
            deriv = (
                -np.exp(-tau) * (1.0 - tau / T)
                - np.exp(-tau) / T
                + 0.4 * math.pi / T * np.cos(2.0 * math.pi * tau / T)
            )
            return value, deriv

        def diff(tau):
            (value, deriv), (u, du) = w(tau), sol.evaluate(tau)
            return value - u, deriv - du

        q_w = transverse_form(prob, w)
        q_diff = transverse_form(prob, diff)
        assert abs(q_w - sol.lam - q_diff) <= 1e-8
        # A stack of test functions integrates row by row.
        stacked = transverse_form(prob, lambda tau: tuple(np.stack(pair) for pair in zip(w(tau), diff(tau))))
        assert stacked.shape == (2,)
        assert stacked == pytest.approx([q_w, q_diff], rel=1e-14)


class TestMassCheck:
    def test_flat_deviation_m4(self):
        sol = solve_transverse([TransverseProblem(m=4.0, curv=FLAT)])[0]
        expected = 0.5 - (math.sinh(4.0) / 4.0 - 1.0) / math.sinh(2.0) ** 2
        assert transverse_mass_check(sol) == pytest.approx(expected, abs=1e-9)

    def test_flat_deviation_shrinks(self):
        devs = [
            transverse_mass_check(solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0])
            for m in (4.0, 16.0, 64.0)
        ]
        assert devs[0] > devs[1] > devs[2]

    def test_curved_rate(self):
        masses = (49.0, 196.0, 784.0)
        devs = [
            transverse_mass_check(solve_transverse([TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0))])[0])
            for m in masses
        ]
        scaled = [d * m for d, m in zip(devs, masses)]
        assert all(s <= scaled[0] * (1.0 + 1e-9) for s in scaled[1:])


class TestValidation:
    def test_below_validity_floor_rejected(self):
        with pytest.raises(ValueError):
            TransverseProblem(m=25.0, curv=CurvatureData(3.0, 1.0))

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.floats(5e-324, 1.5e-162) | st.sampled_from((5e-324, 1e-200, 1e-170)),
        curv=st.sampled_from((FLAT, CurvatureData(1.0, 1.0), CurvatureData(-1e-170, 0.0))),
    )
    def test_mass_whose_square_underflows_is_refused(self, m, curv):
        # The weight divides by m**2, which is 0 below m ~ 1.57e-162.
        match = rf"^m must be positive, with m\*m in the collar weight not 0, got {m!r}$"
        for build in (min_rescaled_weight, collar_is_valid, lambda curv, m: TransverseProblem(m=m, curv=curv)):
            with pytest.raises(ValueError, match=match):
                build(curv, m)

    @pytest.mark.parametrize("m", (1.6e-162, 1e-160, 1e-100))
    def test_tiny_flat_masses_with_a_square_are_solved(self, m):
        prob = TransverseProblem(m=m, curv=FLAT)
        (sol,) = solve_transverse([prob])
        assert sol.lam == pytest.approx(flat_lambda(m), rel=1e-15)
        assert math.isfinite(residual_of_ansatz([prob])[0])

    def test_solver_invariants(self):
        sol = solve_transverse([TransverseProblem(m=49.0, curv=CurvatureData(3.0, 1.0))])[0]
        assert sol.lam > 0.0 and sol.mass > 0.0
        assert sol.flux[0] == -sol.lam and sol.u[0] == 1.0


def floor_corners() -> list[TransverseProblem]:
    """Problems at the validity floor, 1 - |kappa|/sqrt(m) - |K|/m = 0.5005,
    the curvature budget all on kappa, all on K or split, with every sign:
    where the weight's zero is nearest the collar."""
    probs = []
    for m in (1.0, 4.0, 25.0, 400.0, 6400.0):
        T = math.sqrt(m)
        for share in (0.0, 0.5, 1.0):
            for s_kappa, s_gauss in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                curv = CurvatureData(s_kappa * share * 0.4995 * T, s_gauss * (1.0 - share) * 0.4995 * m)
                probs.append(TransverseProblem(m=m, curv=curv))
    return list(dict.fromkeys(probs))


def ivp_reference(prob: TransverseProblem) -> tuple[float, float]:
    """Lambda and the weighted mass by scipy's DOP853, an independent oracle:
    u' = w/a, w' = a u and q' = -a u^2 from u = 0, w = -1, q = 0 at the end of
    the collar (or at tau = 30, past which the profile moves Lambda by less
    than e^-60) back to 0; Lambda = -w(0)/u(0) and the mass is q(0)/u(0)^2, a
    direct integral, not the solver's lam-derivative.  The step is capped at
    1/50 of the interval: on the short collars at the floor, DOP853's own
    error estimate lets the mass drift by 2e-13."""
    end = min(prob.half_width, 30.0)
    kappa, gauss, m = prob.curv.kappa, prob.curv.gauss, prob.m

    def rhs(t, y):
        a = 1.0 + kappa * t / m + gauss * t * t / (m * m)
        return [y[1] / a, a * y[0], -a * y[0] * y[0]]

    sol = solve_ivp(rhs, (end, 0.0), [0.0, -1.0, 0.0], method="DOP853", rtol=1e-13, atol=1e-30, max_step=end / 50)
    u0, w0, q0 = sol.y[:, -1]
    return -w0 / u0, q0 / (u0 * u0)


class TestSeriesSolve:
    """The Taylor-series solve against independent references, its
    variational bound, and its tail check."""

    def test_floor_corners_and_random_problems_against_dop853(self):
        rng = np.random.default_rng(7)
        probs = floor_corners()
        assert len(probs) == 40
        while len(probs) < 60:
            m, kappa, K = 10.0 ** rng.uniform(0.0, 4.0), rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
            if collar_is_valid(CurvatureData(kappa, K), m):
                probs.append(TransverseProblem(m=m, curv=CurvatureData(kappa, K)))
        for prob, sol in zip(probs, solve_transverse(probs), strict=True):
            lam, mass = ivp_reference(prob)
            assert abs(sol.lam - lam) <= 1e-14 * lam, prob
            assert abs(sol.mass - mass) <= 1e-14 * mass, prob

    @settings(max_examples=40, deadline=None)
    @given(problem=ANY_COLLAR | valid_problems(st.floats(1.0, 400.0), st.floats(-10.0, 10.0), st.floats(-200.0, 200.0)))
    def test_form_of_the_profile_bounds_the_flux_value(self, problem):
        # Lambda is the flux -w(0), not a Ritz value, so the quadratic form of
        # the evaluated profile (admissible: u(0) = 1, u(tau_end) = 0) must lie
        # above it, up to the form's rounding, and meet it to 1e-14.
        m, kappa, K = problem
        prob = TransverseProblem(m=m, curv=CurvatureData(kappa, K))
        (sol,) = solve_transverse([prob])
        q = transverse_form(prob, sol.evaluate)
        assert q >= sol.lam - 4.0 * math.ulp(sol.lam)
        assert abs(q - sol.lam) <= 1e-14 * sol.lam

    def test_a_short_series_is_refused(self, monkeypatch):
        # Twenty terms leave the tail of a segment of length 4 near 1e-7 of
        # its values: the solve raises instead of returning it.
        assert SERIES_TERMS == 40 and issubclass(SeriesTailError, NumericsError)
        monkeypatch.setattr(transverse, "SERIES_TERMS", 20)
        with pytest.raises(SeriesTailError, match=r"m=400.0, \(kappa, K\)=\(0.0, 0.0\)"):
            solve_transverse([TransverseProblem(m=4.0, curv=FLAT), TransverseProblem(m=400.0, curv=FLAT)])

    def test_longest_segment_at_the_nearest_zero_passes_the_tail_check(self):
        # Segments of length 4 whose weight has a zero 16.5 from the collar:
        # the case the term count is chosen for (module docstring).
        m = 24.0**2
        K = -m * m / 40.5**2  # a = 1 + K tau^2/m^2 vanishes at tau = 40.5
        prob = TransverseProblem(m=m, curv=CurvatureData(0.0, K))
        assert zero_distance(prob) == pytest.approx(16.5) and kept_segments(prob)[:2] == (6, 4.0)
        (sol,) = solve_transverse([prob])
        lam, mass = ivp_reference(prob)
        assert abs(sol.lam - lam) <= 1e-14 * lam and abs(sol.mass - mass) <= 1e-14 * mass


def mp_residual(prob: TransverseProblem) -> mpmath.mpf:
    """The ansatz residual at 40 digits, an independent route: the ansatz's
    coefficients from the exact inputs, L(chi F) term by term as L reads,
    with (P e^-tau)'' = (2 c2 - 2 P' + P) e^-tau, and mpmath's quadrature on
    16 pieces.  The quadrature's own error estimate must be below 1e-20 of
    the squared residual; for a tiny residual (flat, m = 5e5) it is not, and
    the reference is refused rather than served wrong."""
    with mpmath.workdps(40):
        kappa, K, m = mpmath.mpf(prob.curv.kappa), mpmath.mpf(prob.curv.gauss), mpmath.mpf(prob.m)
        c1 = -kappa / (2 * m) + (kappa**2 / 8 - K / 2) / m**2
        c2 = (3 * kappa**2 / 8 - K / 2) / m**2
        T = mpmath.sqrt(m)

        def integrand(tau):
            poly, slope, decay = 1 + c1 * tau + c2 * tau**2, c1 + 2 * c2 * tau, mpmath.exp(-tau)
            f0, f1, f2 = poly * decay, (slope - poly) * decay, (2 * c2 - 2 * slope + poly) * decay
            t = min(max(2 * tau / T - 1, 0), 1)
            chi = 1 - t**3 * (10 - 15 * t + 6 * t**2)
            chi1 = -60 * t**2 * (1 - t) ** 2 / T
            chi2 = -240 * t * (1 - t) * (1 - 2 * t) / T**2
            a, da = 1 + kappa * tau / m + K * tau**2 / m**2, kappa / m + 2 * K * tau / m**2
            v, dv, d2v = chi * f0, chi1 * f0 + chi * f1, chi2 * f0 + 2 * chi1 * f1 + chi * f2
            return (-d2v - da / a * dv + v) ** 2 * a

        squared, error = mpmath.quad(integrand, [T * i / 16 for i in range(17)], error=True)
        assert error < 1e-20 * squared, f"mpmath.quad error estimate {error} on {squared} for {prob}"
        return mpmath.sqrt(squared)


def mp_flat_residual(m: float) -> mpmath.mpf:
    """The flat ansatz residual at 40 digits in closed form.  With a = 1 and
    F = e^-tau, L(chi F) = (2 chi' - chi'') e^-tau, nonzero on [T/2, T] only;
    there tau = T (1 + t) / 2 and 2 chi' - chi'' is the polynomial P(t) below,
    so the squared norm is e^-T (T/2) sum_n c_n int_0^1 t^n e^{-T t} dt over
    the coefficients c_n of P^2, each integral gamma(n + 1, T) / T^(n + 1)."""
    with mpmath.workdps(40):
        T = mpmath.sqrt(mpmath.mpf(m))
        # 2 chi' = -120 t^2 (1 - t)^2 / T, -chi'' = 240 t (1 - t) (1 - 2 t) / T^2.
        P = [0, 240 / T**2, -720 / T**2 - 120 / T, 480 / T**2 + 240 / T, -120 / T]
        squared = [sum(P[i] * P[n - i] for i in range(max(0, n - 4), min(n, 4) + 1)) for n in range(9)]
        moments = (mpmath.gammainc(n + 1, 0, T) / T ** (n + 1) for n in range(9))
        return mpmath.sqrt(mpmath.exp(-T) * T / 2 * sum(c * mu for c, mu in zip(squared, moments)))


# The five problems of the transverse suite's residual rows.
SUITE_RESIDUAL_PROBLEMS = (
    *(TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0)) for m in (100.0, 400.0, 1600.0)),
    *(TransverseProblem(m=m, curv=FLAT) for m in (25.0, 100.0)),
)


class TestCollarRule:
    """The collar rule and the stacked, cancellation-free ansatz residual."""

    def test_suite_residuals_against_mpmath(self):
        # At m = 1600 the residual is 5e-9 while the terms of L F are O(1/m):
        # summed term by term in doubles it is 3.1e-10 off (5.4e-13 at
        # m = 400), and with L F in closed form within rounding.
        for prob, value in zip(SUITE_RESIDUAL_PROBLEMS, residual_of_ansatz(SUITE_RESIDUAL_PROBLEMS), strict=True):
            reference = mp_residual(prob)
            assert abs(value - reference) <= 1e-14 * reference, prob

    def test_mpmath_reference_refuses_an_unresolved_integral(self):
        # The flat squared residual at m = 5e5 (4e-320) comes out of
        # mpmath.quad 7.5% off its closed form, with an error estimate of
        # 0.95 of the value: the reference raises instead of answering.
        with pytest.raises(AssertionError, match="error estimate"):
            mp_residual(TransverseProblem(m=5e5, curv=FLAT))

    def test_suite_rules_have_448_nodes(self):
        # 26 panels for the five residuals and 2 for the seeded form (m = 36).
        seeded = TransverseProblem(m=36.0, curv=CurvatureData(2.0, 1.0))
        counts = transverse._collar_rule([*SUITE_RESIDUAL_PROBLEMS, seeded])[2]
        assert counts == [64, 96, 160, 32, 64, 32] and sum(counts) == 448

    @settings(max_examples=30, deadline=None)
    @given(problems=st.lists(ANY_COLLAR, min_size=1, max_size=6).flatmap(st.permutations))
    def test_stacked_residual_is_bitwise_the_lone_residual(self, problems):
        probs = [TransverseProblem(m=m, curv=CurvatureData(kappa, K)) for m, kappa, K in problems]
        assert residual_of_ansatz(probs) == [residual_of_ansatz([prob])[0] for prob in probs]

    def test_empty_stack(self):
        assert residual_of_ansatz([]) == []

    @settings(max_examples=40, deadline=None)
    @given(
        problem=valid_problems(st.floats(0.01, 1e5), st.floats(-4.0, 4.0), st.floats(-3.0, 3.0))
        | st.sampled_from([(p.m, p.curv.kappa, p.curv.gauss) for p in floor_corners()])
    )
    def test_rule_agrees_with_a_four_times_finer_rule(self, problem):
        # Past m ~ 4.5e5 the flat residual's squares leave the double range;
        # its value there is held against a closed form instead
        # (TestAnsatzResidual).
        m, kappa, K = problem
        prob = TransverseProblem(m=m, curv=CurvatureData(kappa, K))
        (sol,) = solve_transverse([prob])
        values = residual_of_ansatz([prob]), transverse_form(prob, sol.evaluate)
        nodes = transverse._collar_rule([prob])[2]
        with pytest.MonkeyPatch.context() as patch:
            # Each panel of each half cut in four.
            patch.setattr(transverse, "panel_nodes", lambda a, b, max_panel: panel_nodes(
                a, b, max_panel=(b - a) / (4 * math.ceil((b - a) / max_panel))))
            finer = residual_of_ansatz([prob]), transverse_form(prob, sol.evaluate)
            assert transverse._collar_rule([prob])[2][0] >= 4 * nodes[0]
        assert values[0][0] == pytest.approx(finer[0][0], rel=1e-13, abs=0.0)
        assert values[1] == pytest.approx(finer[1], rel=1e-13, abs=0.0)
