"""Transverse boundary-layer problem: closed forms, expansion, residuals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.special import i0e, i1e, k0e, k1e

from mitbag import cli, transverse
from mitbag.transverse import (
    ELEMENT_DEGREE,
    ELEMENT_PANEL,
    TAU_CUT,
    _ansatz_poly,
    _cutoff,
    _element_matrices,
    CurvatureData,
    TransverseProblem,
    collar_is_valid,
    expansion_lambda,
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


def kept_panels(m: float) -> tuple[int, float]:
    """Number and length of the kept panels: the panels of the uncut collar,
    ceil(sqrt(m) / ELEMENT_PANEL) of them, that start before TAU_CUT."""
    T = math.sqrt(m)
    n_el = math.ceil(T / ELEMENT_PANEL)
    h = T / n_el
    return (n_el if T <= TAU_CUT else math.ceil(TAU_CUT / h)), h


# sqrt(m) <= 4 gives one element; a cut collar whose panels are shorter than
# 4 keeps 7, the longest collar after the cut.
ONE_ELEMENT = valid_problems(
    st.sampled_from((4.0, 9.0, 16.0)) | st.floats(1.0, 16.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5)
)
LONG_COLLAR = valid_problems(
    (st.sampled_from((729.0, 6561.0, 1e4 + 1.0)) | st.floats(577.0, 2e4)).filter(lambda m: kept_panels(m)[0] == 7)
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
        assert sol.deriv0 == pytest.approx(-1.0 / math.tanh(2.0), abs=1e-10)

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
        assert sol.u[0] == 1.0 and sol.u[-1] == 0.0


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
    @settings(max_examples=40, deadline=None)
    @given(m=st.floats(1.0, 600.0**2))
    def test_flat_closed_forms_over_the_whole_range(self, m):
        sol = solve_transverse([TransverseProblem(m=m, curv=FLAT)])[0]
        assert sol.lam == pytest.approx(flat_lambda(m), rel=1e-12)
        assert sol.mass == pytest.approx(flat_mass(m), rel=1e-12)
        assert abs(sol.deriv0 + sol.lam) <= 1e-12

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
        # Every stack mixes a one-element problem (its products are one-row
        # products), a cut collar of 7 elements (the longest) and several masses.
        probs = [TransverseProblem(m=m, curv=CurvatureData(kappa, K)) for m, kappa, K in problems]
        sols = solve_transverse(probs)
        assert min(len(sol.u) for sol in sols) == ELEMENT_DEGREE + 1
        assert max(len(sol.u) for sol in sols) == 7 * ELEMENT_DEGREE + 1
        for prob, sol in zip(probs, sols, strict=True):
            (lone,) = solve_transverse([prob])
            assert (sol.lam, sol.mass, sol.deriv0) == (lone.lam, lone.mass, lone.deriv0)
            assert np.array_equal(sol.u, lone.u) and np.array_equal(sol.tau, lone.tau)
            t = np.linspace(0.0, prob.half_width, 9)
            assert all(np.array_equal(a, b) for a, b in zip(sol.evaluate(t), lone.evaluate(t)))

    def test_empty_stack(self):
        assert solve_transverse([]) == []

    @pytest.mark.parametrize("curv", (FLAT, CurvatureData(2.0, 1.0), CurvatureData(-3.0, 2.0)))
    def test_ritz_value_does_not_rise_under_nested_refinement(self, monkeypatch, curv):
        # sqrt(m) = 7.5: panels of 4 give two elements of 3.75, panels of 2
        # split each of them in two, so the finer space contains the coarser.
        prob = TransverseProblem(m=7.5**2, curv=curv)
        (coarse,) = solve_transverse([prob])
        monkeypatch.setattr(transverse, "ELEMENT_PANEL", 2.0)
        (fine,) = solve_transverse([prob])
        assert (len(coarse.u) - 1, len(fine.u) - 1) == (2 * ELEMENT_DEGREE, 4 * ELEMENT_DEGREE)
        assert fine.lam <= coarse.lam + 4.0 * math.ulp(coarse.lam)

    def test_interval_cap(self):
        # The cut collar does not grow with the mass: the last mass whose
        # square the weight can form is solved on 6 or 7 elements, and the
        # next one is refused when the problem is built.
        probs = [TransverseProblem(m=m, curv=CurvatureData(1.0, 1.0)) for m in (600.0**2, 1e100, LARGEST_MASS)]
        for prob, sol in zip(probs, solve_transverse(probs)):
            assert sol.lam == pytest.approx(expansion_lambda(prob), rel=1e-15)
            assert len(sol.u) <= 7 * ELEMENT_DEGREE + 1
        with pytest.raises(ValueError, match="overflows"):
            TransverseProblem(m=math.nextafter(LARGEST_MASS, math.inf), curv=FLAT)

    def test_samples_are_element_nodes(self):
        T = 5.5 * ELEMENT_PANEL  # six panels of length 11/12 ELEMENT_PANEL
        m = T * T
        sol = solve_transverse([TransverseProblem(m=m, curv=CurvatureData(2.0, 1.0))])[0]
        assert len(sol.tau) == len(sol.u) == 6 * ELEMENT_DEGREE + 1
        assert sol.tau[0] == 0.0 and sol.tau[-1] == math.sqrt(m)
        assert np.all(np.diff(sol.tau) > 0.0)
        np.testing.assert_allclose(sol.tau[:: ELEMENT_DEGREE], np.linspace(0.0, T, 7), rtol=0.0, atol=1e-15)
        u, _ = sol.evaluate(sol.tau)
        np.testing.assert_allclose(u, sol.u, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("m", (9.0, 16.0, 20.25, 1e4))
    def test_evaluate_is_confined_to_the_collar(self, m):
        # One-element (sqrt(m) <= 4) and multi-element collars, and at
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
    """Each collar keeps the panels of its uncut layout that start before
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
        ((cli.TRANSVERSE_M_GRID, 97, (815, 436)), ((9.0, 20.25, 81.0, 729.0, 6561.0), 85, (683, 384))),
    )
    def test_cut_solve_is_bitwise_the_uncut_solve(self, monkeypatch, m_grid, count, elements):
        # The default suite and the short grid, whose masses 729 and 6561
        # have panels shorter than 4.
        probs = self.suite_problems(m_grid)
        cut = solve_transverse(probs)
        monkeypatch.setattr(transverse, "TAU_CUT", math.inf)
        uncut = solve_transverse(probs)
        assert len(probs) == count
        for a, b in zip(cut, uncut, strict=True):
            assert (a.lam, a.mass, a.deriv0) == (b.lam, b.mass, b.deriv0)
            assert a.half_width == b.half_width == b.tau[-1] >= a.tau[-1]
        sizes = [sum((len(sol.u) - 1) // ELEMENT_DEGREE for sol in sols) for sols in (uncut, cut)]
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
    @given(problem=valid_problems(st.floats(1.0, LARGEST_MASS) | st.floats(1.0, 1e5)))
    def test_kept_panels_are_the_uncut_panels(self, problem):
        # At most 7 elements, each of the uncut panel length, and a collar
        # end at or past min(sqrt(m), TAU_CUT).
        m, kappa, K = problem
        (sol,) = solve_transverse([TransverseProblem(m=m, curv=CurvatureData(kappa, K))])
        n, T = ELEMENT_DEGREE, math.sqrt(m)
        kept, h = kept_panels(m)
        ends = sol.tau[::n]
        assert len(sol.u) == len(sol.tau) == kept * n + 1 <= 7 * n + 1
        assert np.array_equal(ends[:-1], h * np.arange(kept)) and sol.tau[n] == h
        assert ends[-1] == (T if kept == math.ceil(T / ELEMENT_PANEL) else kept * h)
        assert ends[-1] >= min(T, TAU_CUT) and sol.half_width == T

    def test_form_of_the_zero_extension_is_the_energy(self):
        # transverse_form integrates over all of [0, sqrt(m)]; past the cut
        # the profile is 0, and its energy is the solver's lam.
        prob = TransverseProblem(m=1e4, curv=CurvatureData(0.5, 0.25))
        (sol,) = solve_transverse([prob])
        assert sol.tau[-1] == 24.0 < prob.half_width
        assert transverse_form(prob, sol.evaluate) == pytest.approx(sol.lam, rel=1e-14)


def banded_reference(prob: TransverseProblem) -> np.ndarray:
    """Nodal minimizer from the assembled global matrix, solved as one band
    by scipy: an independent oracle for the condensed solve."""
    _, elem = _element_matrices([prob])
    n, n_el = ELEMENT_DEGREE, len(elem)
    n_dof = n_el * n + 1
    ab = np.zeros((2 * n + 1, n_dof))  # A[r, c] sits at ab[n + r - c, c]
    local = np.arange(n + 1)
    for e in range(n_el):
        cols = e * n + local
        ab[n + local[:, None] - local[None, :], cols[None, :]] += elem[e]
    first = np.zeros(n_dof)  # column 0 of A, which carries the datum u(0) = 1
    first[: n + 1] = ab[n:, 0]
    u = np.zeros(n_dof)
    u[0] = 1.0
    u[1:-1] = solve_banded((n, n), ab[:, 1:-1], -first[1:-1])
    return u


class TestCondensedSolve:
    """The condensed solve (interiors eliminated, Thomas sweep over end
    nodes) against the assembled band.  sqrt(m) = (n_el - 1/2) ELEMENT_PANEL
    gives n_el = 2 and 3, which with the short collars (n_el = 1) cover the
    sweep with no, one and two inner end nodes; m = 6400 is the largest
    mass of the pinned grid, cut to 6 of its 20 panels."""

    @pytest.mark.parametrize(
        "m, curved",
        (
            (0.5, (0.2, 0.1)),
            (2.0, (0.4, -0.2)),
            (9.0, (-1.0, 0.5)),
            (25.0, (2.0, 1.0)),
            (6400.0, (-3.0, 2.0)),
            ((1.5 * ELEMENT_PANEL) ** 2, (-1.0, 0.5)),
            ((2.5 * ELEMENT_PANEL) ** 2, (2.0, 1.0)),
        ),
    )
    @pytest.mark.parametrize("flat", (True, False))
    def test_matches_banded_solve(self, m, curved, flat):
        prob = TransverseProblem(m=m, curv=FLAT if flat else CurvatureData(*curved))
        sol = solve_transverse([prob])[0]
        assert len(sol.u) == kept_panels(m)[0] * ELEMENT_DEGREE + 1
        np.testing.assert_allclose(sol.u, banded_reference(prob), rtol=0.0, atol=1e-13)


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
        r25 = residual_of_ansatz(TransverseProblem(m=25.0, curv=FLAT))
        c = r25 / math.exp(-math.sqrt(25.0) / 4.0)
        r100 = residual_of_ansatz(TransverseProblem(m=100.0, curv=FLAT))
        assert r100 <= c * math.exp(-math.sqrt(100.0) / 4.0)

    def test_flat_residual_vanishes_for_wide_interval(self):
        assert residual_of_ansatz(TransverseProblem(m=2500.0, curv=FLAT)) <= 1e-12

    def test_third_order_rate_curved(self):
        masses = (100.0, 400.0, 1600.0)
        values = [
            residual_of_ansatz(TransverseProblem(m=m, curv=CurvatureData(3.0, 1.0))) * m**3
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

    def test_solver_invariants(self):
        sol = solve_transverse([TransverseProblem(m=49.0, curv=CurvatureData(3.0, 1.0))])[0]
        assert sol.lam > 0.0 and sol.mass > 0.0
        assert abs(sol.lam + sol.deriv0) <= 1e-8
