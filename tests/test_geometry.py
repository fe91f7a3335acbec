"""Collar weights, model geometries, and the mass validity floor."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mitbag.exterior import sphere_datum, torus_datum
from mitbag.cli import BallInterior
from mitbag.transverse import CurvatureData, TransverseProblem, min_rescaled_weight


def weight(c, m, tau):
    """Rescaled collar weight a_{m,kappa,K}(tau) of the transverse problem."""
    return float(TransverseProblem(m=m, curv=c).weight(tau))


class TestTubularWeight:
    # The tubular weight 1 + t kappa + t^2 K at depth t is the rescaled
    # weight at tau = m t.
    def test_flat_is_one(self):
        c = CurvatureData.flat()
        for t in (0.0, 0.3, 2.0, 17.5):
            assert weight(c, 100.0, 100.0 * t) == 1.0

    def test_direct_arithmetic(self):
        assert weight(CurvatureData(2.0, 1.0), 25.0, 25.0) == 4.0

    def test_sphere_factorization(self):
        # On a sphere of radius R the weight is exactly (1 + t/R)^2.
        # With a power-of-two mass the rescaling tau = m t is exact.
        assert weight(CurvatureData(2.0, 1.0), 1024.0, 512.0) == pytest.approx(2.25, abs=0.0)
        for R in (0.5, 1.0, 2.0, 3.7):
            c = CurvatureData(2.0 / R, 1.0 / R**2)
            for t in (0.0, 0.1, 1.0, 4.0):
                assert weight(c, 1024.0, 1024.0 * t) == pytest.approx((1.0 + t / R) ** 2, rel=1e-15)

    def test_zero_offset_normalization(self):
        for c in (CurvatureData(3.0, -2.0), CurvatureData(-1.0, 0.5)):
            assert weight(c, 100.0, 0.0) == 1.0


class TestRescaledWeight:
    def test_flat(self):
        assert weight(CurvatureData.flat(), 9.0, 3.0) == 1.0

    def test_direct_arithmetic(self):
        assert weight(CurvatureData(3.0, 1.0), 100.0, 10.0) == pytest.approx(1.31, abs=1e-15)
        assert weight(CurvatureData(-2.0, 1.0), 25.0, 5.0) == pytest.approx(0.64, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(-3.0, 3.0),
        gauss=st.floats(-2.0, 2.0),
        m=st.floats(100.0, 1e4),
        s=st.floats(0.0, 1.0),
    )
    def test_matches_tubular_at_rescaled_depth(self, kappa, gauss, m, s):
        c = CurvatureData(kappa, gauss)
        tau = s * math.sqrt(m)
        t = tau / m
        assert weight(c, m, tau) == pytest.approx(1.0 + t * kappa + t * t * gauss, rel=1e-14)


def four_corner_floor(A, B, m):
    """The least weight found by search: over the four corners (+-A, +-B),
    the collar ends and, where it lies inside, the vertex of each parabola."""
    T = math.sqrt(m)

    def interval_min(kappa, gauss):
        candidates = [1.0, 1.0 + kappa * T / m + gauss * T * T / (m * m)]
        if gauss > 0.0:
            tau_vertex = -kappa * m / (2.0 * gauss)
            if 0.0 < tau_vertex < T:
                candidates.append(1.0 + kappa * tau_vertex / m + gauss * (tau_vertex / m) ** 2)
        return min(candidates)

    return min(interval_min(k, g) for k, g in ((-A, -B), (-A, B), (A, -B), (A, B)))


class TestValidityFloor:
    # The floor is the least mass with min_rescaled_weight >= 1/2; the
    # binding corner (-|kappa|, -|K|) at tau = sqrt(m) puts it at
    # sqrt(m_1) = |kappa| + sqrt(kappa^2 + 2|K|).
    def test_flat(self):
        assert min_rescaled_weight(CurvatureData.flat(), 1.0) == 1.0

    def test_pure_mean_curvature(self):
        # 1 - 3/sqrt(m) >= 1/2 first holds at m = 36.
        for kappa in (3.0, -3.0):
            assert min_rescaled_weight(CurvatureData(kappa, 0.0), 36.0) == 0.5
            assert min_rescaled_weight(CurvatureData(kappa, 0.0), 35.0) < 0.5

    def test_mixed_bounds(self):
        # sqrt(m) >= A + sqrt(A^2 + 2B) = 2 + sqrt(6), so m_1 = ceil(19.79...) = 20.
        for curv in (CurvatureData(2.0, 1.0), CurvatureData(-2.0, -1.0), CurvatureData(2.0, -1.0)):
            assert min_rescaled_weight(curv, 20.0) >= 0.5
            assert min_rescaled_weight(curv, 19.0) < 0.5

    @settings(max_examples=300, deadline=None)
    @given(
        kappa=st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 2.0, -3.0)),
        gauss=st.floats(-1e6, 1e6) | st.sampled_from((0.0, -0.0, 1.0, -2.0)),
        m=st.floats(1e-6, 1e12) | st.sampled_from((1.0, 19.0, 20.0, 36.0)),
    )
    def test_closed_form_is_the_four_corner_search(self, kappa, gauss, m):
        # Bit for bit: rounding is monotone in each operand, so no other
        # corner or depth rounds below the binding one.
        assert min_rescaled_weight(CurvatureData(kappa, gauss), m) == four_corner_floor(abs(kappa), abs(gauss), m)

    @settings(max_examples=40, deadline=None)
    @given(A=st.floats(0.0, 4.0), B=st.floats(0.0, 3.0))
    def test_floor_guarantees_half(self, A, B):
        curv = CurvatureData(A, B)
        m1 = (A + math.sqrt(A * A + 2.0 * B)) ** 2
        assert min_rescaled_weight(curv, max(m1, 1.0) * (1.0 + 1e-9)) >= 0.5 - 1e-12
        if m1 > 1e-3:
            assert min_rescaled_weight(curv, m1 * (1.0 - 1e-6)) < 0.5

    @pytest.mark.parametrize("A,B", ((0.0, 0.0), (1.0, 2.0), (3.0, 2.0), (2.5, 0.0)))
    def test_weight_at_least_half_on_dense_grid(self, A, B):
        # At the integer floor every corner and midpoint of the bounds box
        # keeps the weight >= 1/2 over the whole collar.
        curv = CurvatureData(A, B)
        m = max(1, math.ceil((A + math.sqrt(A * A + 2.0 * B)) ** 2))
        while m > 1 and min_rescaled_weight(curv, float(m - 1)) >= 0.5:
            m -= 1
        while min_rescaled_weight(curv, float(m)) < 0.5:
            m += 1
        taus = np.linspace(0.0, math.sqrt(m), 400)
        for kappa in (-A, 0.0, A):
            for gauss in (-B, 0.0, B):
                c = CurvatureData(kappa, gauss)
                values = TransverseProblem(m=float(m), curv=c).weight(taus)
                assert values.min() >= 0.5 - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(-4.0, 4.0),
        gauss=st.floats(-3.0, 3.0),
        m=st.floats(1.0, 1e4),
    )
    def test_weight_at_least_half_within_bounds(self, kappa, gauss, m):
        # Any (m, kappa, K) the transverse problem accepts keeps the weight
        # >= 1/2 over the whole collar.
        c = CurvatureData(kappa, gauss)
        try:
            prob = TransverseProblem(m=m, curv=c)
        except ValueError:
            assume(False)
        taus = np.linspace(0.0, math.sqrt(m), 400)
        assert prob.weight(taus).min() >= 0.5 - 1e-12


class TestModelGeometries:
    # The ball, and the radius or period of the exterior boundary data.
    @pytest.mark.parametrize("bad", (0.0, -1.0, math.inf))
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            sphere_datum(bad, {})
        with pytest.raises(ValueError):
            BallInterior(bad)
        with pytest.raises(ValueError):
            torus_datum(bad, {})

    def test_curvature_validation(self):
        with pytest.raises(ValueError):
            CurvatureData(math.inf, 0.0)
