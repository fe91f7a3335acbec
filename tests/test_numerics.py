"""Root finding, shooting, quadrature, and 1/m fits against closed forms."""

import json
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mitbag.numerics as numerics
import mitbag.suites as suites
from mitbag.cli import config_from_dict, run_suite
from mitbag.dirac_ball import AngularSector, DiracParams, mit_eigenpair, robin_eigenpair
from mitbag.exterior import agmon_decay_check
from mitbag.numerics import (
    MAX_PANELS,
    BracketError,
    FitError,
    PoleRootError,
    SecondOrderODE,
    ShootingError,
    ToleranceConfig,
    find_root_bracketed,
    fit_inverse_m,
    fit_line,
    mesh_aligned_nodes,
    panel_nodes,
    slope_drift,
    solve_bvp_shooting,
)
from mitbag.transverse import CurvatureData, TransverseProblem, residual_of_ansatz, transverse_form


class TestToleranceConfig:
    def test_defaults_valid(self):
        ToleranceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        (
            {"abs_tol": -1.0},
            {"abs_tol": 0.0, "rel_tol": 0.0},
            {"max_iter": 0},
            {"rel_tol": math.inf},
            {"abs_tol": math.nan},
        ),
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ToleranceConfig(**kwargs)


def cos(x):
    return math.cos(x), -math.sin(x)


def _sqrt_two(x):
    return x * x - 2.0, 2.0 * x


def _bag(x):
    # The bag ground-state condition tan x = x/(1-x), and its derivative.
    return math.tan(x) - x / (1.0 - x), 1.0 / math.cos(x) ** 2 - 1.0 / (1.0 - x) ** 2


class TestRootFinding:
    """The root finder takes f(x) -> (f(x), f'(x))."""

    def test_sqrt_two(self):
        root, _ = find_root_bracketed(_sqrt_two, (1.0, 2.0))
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_cosine_zero(self):
        root, _ = find_root_bracketed(cos, (1.0, 2.0))
        assert root == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_bag_root_matches_bisection_oracle(self):
        # Independent oracle: plain bisection on tan x = x/(1-x).
        def f(x):
            return _bag(x)[0]

        a, b = 1.6, 2.5
        fa = f(a)
        for _ in range(200):
            mid = 0.5 * (a + b)
            if fa * f(mid) <= 0.0:
                b = mid
            else:
                a, fa = mid, f(mid)
        oracle = 0.5 * (a + b)
        root, _ = find_root_bracketed(_bag, (1.6, 2.5))
        assert root == pytest.approx(oracle, abs=1e-10)
        assert root == pytest.approx(2.042787, abs=5e-6)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: (x * x + 1.0, 2.0 * x), (0.0, 1.0))

    def test_pole_detection(self):
        # tan has a sign change across pi/2 that is a pole, not a root.
        with pytest.raises(PoleRootError):
            find_root_bracketed(lambda x: (math.tan(x), 1.0 / math.cos(x) ** 2), (1.5, 1.6))

    def test_refinement_stability(self):
        loose, _ = find_root_bracketed(cos, (1.0, 2.0), ToleranceConfig(1e-4, 1e-4, 200))
        tight, _ = find_root_bracketed(cos, (1.0, 2.0), ToleranceConfig(1e-14, 1e-14, 200))
        assert abs(loose - tight) <= 1e-3
        tighter, _ = find_root_bracketed(cos, (1.0, 2.0), ToleranceConfig(0.0, 1e-15, 300))
        assert abs(tight - tighter) <= 1e-12

    def test_max_iter_exhaustion_carries_bracket(self):
        from mitbag.numerics import RootConvergenceError

        with pytest.raises(RootConvergenceError) as excinfo:
            find_root_bracketed(cos, (1.0, 2.0), ToleranceConfig(0.0, 1e-15, 2))
        lo, hi = excinfo.value.bracket
        assert 1.0 <= lo <= hi <= 2.0

    def test_returns_the_value_at_the_root(self):
        root, f_root = find_root_bracketed(cos, (1.0, 2.0))
        assert f_root == math.cos(root)

    @pytest.mark.parametrize("slope", (math.inf, -math.inf, math.nan, 0.0))
    @pytest.mark.parametrize("power", (3, 2))
    def test_a_slope_not_finite_and_nonzero_bisects(self, slope, power):
        # x^p - 2 on (1, 2) with a slope that gives no Newton step.  The
        # correction f/inf = 0 says nothing of a root (on x^3 - 2 it would
        # stop at x = 8/7, where f = -0.507), and a NaN correction must not
        # keep the half-width test from stopping (no double makes x^2 - 2
        # exactly 0): each iteration bisects, and the returned point is
        # within tol_x of the root.
        tol = ToleranceConfig()
        root, f_root = find_root_bracketed(lambda x: (x**power - 2.0, slope), (1.0, 2.0), tol)
        tol_x = 2.0 * numerics._EPS * abs(root) + 0.5 * tol.rel_tol * abs(root) + 1e-300
        assert abs(root - 2.0 ** (1.0 / power)) <= tol_x + math.ulp(root)
        assert f_root == root**power - 2.0

    @settings(max_examples=100, deadline=None)
    @given(c=st.floats(min_value=1.0, max_value=2.0), slope=st.sampled_from((math.inf, -math.inf, math.nan, 0.0)))
    def test_a_slopeless_stop_returns_a_point_within_tol_x(self, c, slope):
        # tanh(4(x - c)) vanishes only at the double c.  When the half-width
        # stops a bisection, the iterate ends a bracket up to 2*tol_x wide,
        # as far as 2*tol_x from c for about a third of the c; the returned
        # point is the bracket's midpoint, within tol_x.
        tol = ToleranceConfig()
        root, f_root = find_root_bracketed(lambda x: (math.tanh(4.0 * (x - c)), slope), (1.0, 2.0), tol)
        tol_x = 2.0 * numerics._EPS * c + 0.5 * tol.rel_tol * c + 1e-300
        assert abs(root - c) <= tol_x + math.ulp(c)
        assert f_root == math.tanh(4.0 * (root - c))

    @pytest.mark.parametrize(
        "f, bracket",
        (
            (cos, (1.0, 2.0)),
            (lambda x: (x * x - 2.0, 2.0 * x), (1.0, 2.0)),
            (lambda x: (math.sin(math.pi * x), math.pi * math.cos(math.pi * x)), (0.5, 3.5)),
            (lambda x: (x - 1.95, 1.0), (1.0, 2.0)),  # root near the right end
            (lambda x: (x - 1.5, 1.0), (1.0, 2.0)),  # root on the secant start point
            (lambda x: (x - 1.0, 1.0), (1.0, 2.0)),  # root at the left end
        ),
    )
    def test_given_bracket_values_are_not_recomputed(self, f, bracket):
        a, b = bracket
        seen = []

        def counted(x):
            seen.append(x)
            return f(x)

        plain = find_root_bracketed(f, bracket)
        given = find_root_bracketed(counted, bracket, f_bracket=(f(a)[0], f(b)[0]))
        assert a not in seen and b not in seen
        assert len(set(seen)) == len(seen)
        assert given == plain

    @settings(max_examples=60, deadline=None)
    @given(root=st.floats(min_value=-0.999, max_value=0.999), scale=st.floats(min_value=1e-3, max_value=1e3))
    def test_given_bracket_values_same_root_bits(self, root, scale):
        def f(x):
            return scale * (x - root) * (1.0 + x * x), scale * (1.0 + x * x + 2.0 * x * (x - root))

        seen = []

        def counted(x):
            seen.append(x)
            return f(x)

        plain = find_root_bracketed(f, (-1.0, 1.0))
        given = find_root_bracketed(counted, (-1.0, 1.0), f_bracket=(f(-1.0)[0], f(1.0)[0]))
        assert -1.0 not in seen and 1.0 not in seen
        assert math.copysign(1.0, given[0]) == math.copysign(1.0, plain[0]) and given == plain
        assert given[1] == f(given[0])[0]


EXP_ODE = SecondOrderODE(p=lambda t: 0.0, q=lambda t: -1.0)  # u'' = u


class TestShooting:
    @pytest.mark.parametrize("T", (1.0, 2.0, 5.0, 10.0))
    def test_constant_coefficient_closed_form(self, T):
        # u = sinh(T - tau)/sinh(T): left derivative is -coth(T).
        sol = solve_bvp_shooting(EXP_ODE, (0.0, T), 1.0, 0.0)
        assert sol.deriv_left == pytest.approx(-1.0 / math.tanh(T), rel=1e-11)
        taus = np.linspace(0.0, T, 7)
        u, _ = sol.evaluate(taus)
        expected = np.sinh(T - taus) / math.sinh(T)
        np.testing.assert_allclose(u, expected, rtol=1e-10, atol=1e-12)

    def test_large_interval_limit(self):
        sol = solve_bvp_shooting(EXP_ODE, (0.0, 10.0), 1.0, 0.0)
        assert sol.deriv_left == pytest.approx(-1.0 / math.tanh(10.0), rel=1e-12)
        assert abs(sol.deriv_left + 1.0) < 1e-8

    def test_zero_data_gives_zero(self):
        sol = solve_bvp_shooting(EXP_ODE, (0.0, 3.0), 0.0, 0.0)
        assert np.max(np.abs(sol.u)) <= 1e-12

    def test_boundary_values_pinned(self):
        sol = solve_bvp_shooting(EXP_ODE, (0.0, 2.0), 1.0, 0.0)
        assert sol.u[0] == 1.0 and sol.u[-1] == 0.0

    def test_inhomogeneous_right_hand_side(self):
        # u'' = 1 with u(0) = u(1) = 0 gives u = tau(tau-1)/2, u'(0) = -1/2.
        ode = SecondOrderODE(p=lambda t: 0.0, q=lambda t: 0.0, r=lambda t: 1.0)
        sol = solve_bvp_shooting(ode, (0.0, 1.0), 0.0, 0.0)
        assert sol.deriv_left == pytest.approx(-0.5, abs=1e-11)

    def test_resonant_problem_reported(self):
        # u'' = -u on (0, pi): the terminal-homogeneous solution sin(pi - tau)
        # vanishes at 0, so no shot can reach a nonzero left value.
        ode = SecondOrderODE(p=lambda t: 0.0, q=lambda t: 1.0)
        with pytest.raises(ShootingError):
            solve_bvp_shooting(ode, (0.0, math.pi), 1.0, 0.0)


class TestQuadrature:
    def test_exponential_integral(self):
        x, w = panel_nodes(0.0, 1.0)
        value = float(np.dot(w, np.exp(x)))
        assert value == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_panel_weights_sum(self):
        x, w = panel_nodes(0.0, 3.0, max_panel=0.25)
        assert w.sum() == pytest.approx(3.0, rel=1e-14)
        assert np.all((x > 0.0) & (x < 3.0))

    def test_mesh_aligned_exact_on_polynomials(self):
        mesh = np.array([0.0, 0.4, 1.1, 2.0])
        x, w = mesh_aligned_nodes(mesh)
        # Degree-16 polynomial integrated exactly on each panel.
        value = float(np.dot(w, x**16))
        assert value == pytest.approx(2.0**17 / 17.0, rel=1e-14)

    def test_mesh_validation(self):
        with pytest.raises(ValueError):
            mesh_aligned_nodes(np.array([0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("mesh", ([0.0, np.inf], [np.nan, 1.0], [0.0, 0.5, np.nan], [-np.inf, 0.0]))
    def test_non_finite_mesh_rejected(self, mesh):
        # np.diff gives inf > 0 across an infinite point, and a NaN compares
        # false: neither may pass as an ascending mesh and yield NaN nodes.
        with pytest.raises(ValueError, match="finite"):
            mesh_aligned_nodes(np.array(mesh))

    def test_tabulated_rules_are_numpys(self):
        # One panel on [-1, 1] returns the tabulated rule itself, which is
        # numpy's up to the rounding of its weights.
        from numpy.polynomial.legendre import leggauss

        n = 16
        x, w = panel_nodes(-1.0, 1.0, max_panel=2.0)
        ref_x, ref_w = leggauss(n)
        assert np.all(np.abs(x - ref_x) <= np.spacing(np.abs(ref_x)))
        assert np.all(np.abs(w - ref_w) <= 64 * np.spacing(ref_w))
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(w, x**k)) - exact) <= 1e-15


    def test_tabulated_rule_is_correctly_rounded(self):
        # Each node and weight is the double nearest its 60-digit value:
        # Newton's iteration on P_16 from the Chebyshev-like guesses
        # cos(pi (i - 1/4) / (n + 1/2)), and w = 2 / ((1 - x^2) P_16'(x)^2).
        import mpmath

        n = 16
        x, w = panel_nodes(-1.0, 1.0, max_panel=2.0)
        with mpmath.workdps(60):
            for i in range(1, n + 1):
                z = mpmath.cos(mpmath.pi * (i - mpmath.mpf(1) / 4) / (n + mpmath.mpf(1) / 2))
                for _ in range(12):
                    p_prev, p = mpmath.mpf(1), z
                    for k in range(2, n + 1):
                        p_prev, p = p, ((2 * k - 1) * z * p - (k - 1) * p_prev) / k
                    dp = n * (z * p - p_prev) / (z * z - 1)
                    z -= p / dp
                p_prev, p = mpmath.mpf(1), z
                for k in range(2, n + 1):
                    p_prev, p = p, ((2 * k - 1) * z * p - (k - 1) * p_prev) / k
                dp = n * (z * p - p_prev) / (z * z - 1)
                assert x[n - i] == float(z) and w[n - i] == float(2 / ((1 - z * z) * dp * dp)), i


def refused_without_allocating(call, match):
    """``call()`` raises a ValueError matching ``match`` having traced less
    than 1 MiB at its peak (numpy reports its array data to tracemalloc)."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestPanelLimit:
    @pytest.mark.parametrize(
        "a, b, max_panel, match",
        (
            (0.0, math.inf, 0.25, r"finite ends with b > a, got \[0.0, inf\]"),
            (-math.inf, 0.0, 0.25, r"finite ends with b > a, got \[-inf, 0.0\]"),
            (math.nan, 1.0, 0.25, r"finite ends with b > a, got \[nan, 1.0\]"),
            (1.0, 1.0, 0.25, r"finite ends with b > a, got \[1.0, 1.0\]"),
            (0.0, 1.0, 0.0, "max_panel must be finite and > 0 .*, got 0.0$"),
            (0.0, 1.0, -1.0, "max_panel must be finite and > 0 .*, got -1.0$"),
            (0.0, 1.0, math.inf, "max_panel must be finite and > 0 .*, got inf$"),
            (0.0, 1.0, math.nan, "max_panel must be finite and > 0 .*, got nan$"),
            (0.0, 3.0, math.nextafter(3.0 / MAX_PANELS, 0.0), "MAX_PANELS = 65536 panels, got 4.577636718749999e-05$"),
            (0.0, 1.0, 5e-324, "MAX_PANELS = 65536 panels, got 5e-324$"),
            (-1e308, 1e308, 1.0, r"cut \[-1e\+308, 1e\+308\] into at most MAX_PANELS = 65536 panels, got 1.0$"),
        ),
    )
    def test_refusals_come_before_any_allocation(self, a, b, max_panel, match):
        refused_without_allocating(lambda: panel_nodes(a, b, max_panel=max_panel), match)

    def test_rule_at_the_limit_keeps_its_bits(self):
        # MAX_PANELS panels exactly: the affine map of the one-panel rule on
        # [-1, 1] onto each panel of the equispaced mesh.
        x, w = panel_nodes(0.0, 3.0, max_panel=3.0 / MAX_PANELS)
        xi, wi = panel_nodes(-1.0, 1.0, max_panel=2.0)
        edges = np.linspace(0.0, 3.0, MAX_PANELS + 1)
        half, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
        assert np.array_equal(x, (mid[:, None] + half[:, None] * xi[None, :]).ravel())
        assert np.array_equal(w, (half[:, None] * wi[None, :]).ravel())
        assert np.array_equal((x, w), mesh_aligned_nodes(edges))

    def test_public_inputs_past_the_limit_are_refused(self):
        # Every composite rule comes from panel_nodes, so its limit bounds
        # the transverse quadrature: each half of the collar rule has panels
        # of at most 4 (sqrt(m) / 2 > 4 MAX_PANELS, m > 2.75e11).
        flat = CurvatureData.flat()
        for m in (2.75e11, 1e150):
            prob = TransverseProblem(m=m, curv=flat)
            refused_without_allocating(lambda: residual_of_ansatz([prob]), "MAX_PANELS")
            refused_without_allocating(lambda: transverse_form(prob, lambda t: (t, t)), "MAX_PANELS")

    def test_eigenpairs_have_no_panel_limit(self):
        # The interior norm is a closed form at k R, with no rule to outgrow:
        # past k R = 0.7 MAX_PANELS = 45875.2 an eigenpair is built and has
        # unit norm.
        p, ground = DiracParams(R=1.0, m=1.0), AngularSector(-1)
        for kR in (5e4, 1e100):
            for u in (mit_eigenpair(p, ground, kR), robin_eigenpair(p, ground, kR * kR)):
                assert u.radial_params[0] == kR
                assert u.norm_sq() == pytest.approx(1.0, rel=0.0, abs=1e-15)

    def test_agmon_tail_has_no_panel_limit(self):
        # The Agmon tail is a closed form, with no rule to outgrow.
        gamma = 0.9994
        assert agmon_decay_check(100.0, 1.0, 0, gamma) == pytest.approx(1.0 / (1.0 - gamma), rel=1e-14, abs=0.0)


class TestInverseMassFit:
    def test_line_fit(self):
        assert fit_line([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]) == pytest.approx((1.0, 2.0), abs=1e-14)
        with pytest.raises(FitError):
            fit_line([2.0, 2.0, 2.0], [1.0, 3.0, 5.0])

    def test_exact_affine_data(self):
        points = [(m, 5.0 + 3.0 / m) for m in (2.0, 5.0, 10.0, 40.0)]
        limit, slope = fit_inverse_m(points)
        assert limit == pytest.approx(5.0, abs=1e-12)
        assert slope == pytest.approx(3.0, abs=1e-11)
        assert max(abs(limit + slope / m - v) for m, v in points) <= 1e-12

    def test_constant_data(self):
        limit, slope = fit_inverse_m([(m, 7.25) for m in (1.0, 2.0, 4.0)])
        assert limit == pytest.approx(7.25, abs=1e-13)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_second_order_pollution_and_drift(self):
        # value = 1 + 1/m + 1/m^2 over decade masses from 10: the exact
        # least-squares slope bias at this grid is 10.3%, and it shrinks by
        # an order of magnitude once the coarsest mass is dropped.
        grid = (10.0, 100.0, 1000.0, 10000.0)
        points = [(m, 1.0 + 1.0 / m + 1.0 / m**2) for m in grid]
        slope, drift = slope_drift(points)
        assert slope == pytest.approx(1.0, rel=0.11)
        slope_trunc = fit_inverse_m(points[1:])[1]
        assert slope_trunc == pytest.approx(1.0, rel=0.02)
        assert drift == abs(slope_trunc - slope) / abs(slope)
        longer = points + [(100000.0, 1.0 + 1.0 / 1e5 + 1.0 / 1e10)]
        _, drift_finer = slope_drift(longer[1:])
        assert drift_finer < drift

    @pytest.mark.parametrize(
        "points",
        (
            [(1.0, 0.0), (2.0, 0.0)],
            [(1.0, 0.0), (1.0, 1.0), (2.0, 0.0)],
            [(-1.0, 0.0), (2.0, 0.0), (3.0, 0.0)],
            [(1.0, math.nan), (2.0, 0.0), (3.0, 0.0)],
            # An infinite mass, which 1/m = 0 would turn into a finite point.
            [(math.inf, 1.0), (1.0, 2.0), (2.0, 3.0)],
        ),
    )
    def test_degenerate_inputs(self, points):
        with pytest.raises(FitError):
            fit_inverse_m(points)

    @settings(max_examples=30, deadline=None)
    @given(
        limit=st.floats(-10.0, 10.0),
        slope=st.floats(-10.0, 10.0),
    )
    def test_affine_exactness_property(self, limit, slope):
        grid = (3.0, 7.0, 19.0, 61.0, 143.0)
        points = [(m, limit + slope / m) for m in grid]
        fit_limit, fit_slope = fit_inverse_m(points)
        assert fit_limit == pytest.approx(limit, abs=1e-9)
        assert fit_slope == pytest.approx(slope, abs=1e-8)
        assert math.sqrt(sum((fit_limit + fit_slope / m - v) ** 2 for m, v in points)) <= 1e-9


def _exact_line(x, y):
    """Exact least-squares (intercept, slope) of the doubles, as Fractions."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys)) / sum((a - x_mean) ** 2 for a in xs)
    return y_mean - slope * x_mean, slope


def _assert_correctly_rounded_fit(x, y):
    intercept, slope = _exact_line(x, y)
    # The double nearest each exact value, stricter than 2 ulp of the slope
    # and 2 ulp of max(|mean y|, |slope mean x|) for the intercept.
    assert fit_line(x, y) == (float(intercept), float(slope))


class TestLineFit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
                st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
            ),
            min_size=2,
            max_size=12,
        )
    )
    def test_exact_least_squares_property(self, points):
        x, y = [p[0] for p in points], [p[1] for p in points]
        if len(set(x)) == 1:
            with pytest.raises(FitError, match="all be equal"):
                fit_line(x, y)
            return
        try:
            expected = tuple(float(v) for v in _exact_line(x, y))
        except OverflowError:
            with pytest.raises(FitError, match="overflows"):
                fit_line(x, y)
            return
        assert fit_line(x, y) == expected

    def test_cancelling_series(self):
        # Slopes far below the data's size, where rounded products lose
        # them: a centred fsum of rounded products gives 2.27e-16 for the
        # first series (exact slope 1.27e-16) and is 18,724 ulp off the
        # second's.
        _assert_correctly_rounded_fit([-3.3, -9.5, -5.8, -9.4, -6.5], [-2.8, 3.8, -5.4, -9.4, 6.0])
        _assert_correctly_rounded_fit([1e8, 1e8 + 1.0, 1e8 + 3.0], [1.0, 1.0 + 2.0**-40, 1.0])

    def test_golden_series(self, tmp_path, monkeypatch):
        # Every line fit of the four golden runs (23 in the transverse suite,
        # 7 in the 1/m fits of the dirac and robin suites) is correctly rounded.
        series, fit = [], numerics.fit_line

        def spy(x, y):
            series.append((list(x), list(y)))
            return fit(x, y)

        monkeypatch.setattr(numerics, "fit_line", spy)
        monkeypatch.setattr(suites, "fit_line", spy)
        golden = Path(__file__).resolve().parent / "golden"
        for radius in ("0.5", "1", "1.7", "3"):
            config = json.loads((golden / f"config_R{radius}.json").read_text())
            assert run_suite(config_from_dict({**config, "output_path": str(tmp_path / "report.csv")})).passed
        assert len(series) == 120
        for x, y in series:
            _assert_correctly_rounded_fit(x, y)

    @pytest.mark.parametrize(
        "x, y, reason",
        (
            ([], [], "at least 2 points"),
            ([1.0], [2.0], "at least 2 points"),
            ([1.0, 2.0, 3.0], [1.0, 2.0], "one y per x"),
            ([1.0, 2.0], [1.0, 2.0, 3.0], "one y per x"),
            ([2.0, 2.0, 2.0], [1.0, 3.0, 5.0], "all be equal"),
            ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0], "finite"),
            ([1.0, 2.0, 3.0], [1.0, 2.0, math.nan], "finite"),
            ([1.0, math.inf, 3.0], [1.0, 2.0, 3.0], "finite"),
            ([1.0, 2.0, 3.0], [-math.inf, 2.0, 3.0], "finite"),
            ([0.0, 5e-324], [0.0, 1e300], "overflows"),
        ),
    )
    def test_refused_data(self, x, y, reason):
        with pytest.raises(FitError, match=reason):
            fit_line(x, y)
