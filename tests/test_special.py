"""Spherical Bessel families: closed forms, scipy cross-checks, Wronskian."""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mitbag.special import (
    BesselOverflowError,
    SpecialFunctionDomainError,
    modified_spherical_bessel_k_scaled,
    modified_spherical_bessel_k_scaled_deriv,
    spherical_bessel_j,
    spherical_bessel_j_deriv,
)

X_GRID = np.concatenate([np.linspace(0.05, 3.0, 9), np.linspace(4.0, 100.0, 11)])
ELLS = (0, 1, 2, 3, 5, 10, 20, 35, 50)


class TestSphericalJ:
    def test_j0_zero_at_pi(self):
        assert abs(spherical_bessel_j(0, math.pi)) <= 1e-12

    def test_j0_closed_form(self):
        assert spherical_bessel_j(0, 1.0) == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_j1_closed_form(self):
        expected = math.sin(1.0) - math.cos(1.0)  # sin x / x^2 - cos x / x at x=1
        assert spherical_bessel_j(1, 1.0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("ell", ELLS)
    def test_against_scipy(self, ell):
        for x in X_GRID:
            mine = spherical_bessel_j(ell, float(x))
            ref = float(sp.spherical_jn(ell, x))
            assert mine == pytest.approx(ref, rel=1e-11, abs=1e-15)

    @pytest.mark.parametrize("ell", (0, 1, 2, 7, 25))
    def test_derivative_against_scipy(self, ell):
        for x in (0.3, 1.7, 9.0, 40.0):
            mine = spherical_bessel_j_deriv(ell, x)
            ref = float(sp.spherical_jn(ell, x, derivative=True))
            assert mine == pytest.approx(ref, rel=1e-10, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(SpecialFunctionDomainError):
            spherical_bessel_j(-1, 1.0)
        with pytest.raises(SpecialFunctionDomainError):
            spherical_bessel_j(51, 1.0)
        with pytest.raises(SpecialFunctionDomainError):
            spherical_bessel_j(0, 0.0)
        with pytest.raises(SpecialFunctionDomainError):
            spherical_bessel_j(0, math.nan)


class TestModifiedK:
    def test_k0_closed_form(self):
        value = modified_spherical_bessel_k_scaled(0, 1.0) * math.exp(-1.0)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_k1_closed_form(self):
        # k_1(x) = e^{-x}(x+1)/x^2, giving e^{-2}(1/2 + 1/4) at x=2
        value = modified_spherical_bessel_k_scaled(1, 2.0) * math.exp(-2.0)
        assert value == pytest.approx(math.exp(-2.0) * 0.75, rel=1e-14)

    @pytest.mark.parametrize("x", (0.5, 1.0, 3.7, 20.0, 300.0))
    def test_scaled_normalization(self, x):
        # x e^x k_0(x) = 1 identically
        assert modified_spherical_bessel_k_scaled(0, x) * x == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("ell", (0, 1, 2, 5, 10, 25, 50))
    def test_against_scipy(self, ell):
        # Our normalization: k_l(x) = sqrt(2/(pi x)) K_{l+1/2}(x).
        for x in (0.5, 1.0, 4.0, 15.0, 80.0):
            mine = modified_spherical_bessel_k_scaled(ell, x) * math.exp(-x)
            ref = math.sqrt(2.0 / (math.pi * x)) * float(sp.kv(ell + 0.5, x))
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_underflow_never_zero(self):
        # e^{-5000} underflows; the scaled form stays positive.
        assert modified_spherical_bessel_k_scaled(3, 5000.0) > 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_is_reported(self):
        # k_50 at tiny argument exceeds double range, alone or as one element.
        with pytest.raises(BesselOverflowError):
            modified_spherical_bessel_k_scaled(50, 1e-5)
        with pytest.raises(BesselOverflowError):
            modified_spherical_bessel_k_scaled(50, np.array([1.0, 1e-5, 2.0]))
        # At x = 4e-5, k_50 still fits but its derivative (~51/x times it) does not.
        assert math.isfinite(modified_spherical_bessel_k_scaled(50, 4e-5))
        for x in (4e-5, np.array([1.0, 4e-5])):
            with pytest.raises(BesselOverflowError):
                modified_spherical_bessel_k_scaled_deriv(50, x)

    @settings(max_examples=60, deadline=None)
    @given(
        ell=st.integers(min_value=0, max_value=50),
        xs=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=40),
    )
    def test_array_matches_scalar_bitwise(self, ell, xs):
        x = np.array(xs)
        for fn in (modified_spherical_bessel_k_scaled, modified_spherical_bessel_k_scaled_deriv):
            np.testing.assert_array_equal(fn(ell, x), np.array([fn(ell, v) for v in xs]))

    @pytest.mark.parametrize("bad", (0.0, -1.0, math.nan, math.inf))
    def test_array_domain_errors(self, bad):
        for fn in (modified_spherical_bessel_k_scaled, modified_spherical_bessel_k_scaled_deriv):
            with pytest.raises(SpecialFunctionDomainError):
                fn(2, np.array([1.0, bad, 3.0]))

    def test_scaled_deriv_matches_scipy(self):
        for ell in (0, 1, 4, 9):
            for x in (0.7, 2.0, 30.0):
                mine = modified_spherical_bessel_k_scaled_deriv(ell, x) * math.exp(-x)
                kvp = float(sp.kvp(ell + 0.5, x))
                kv = float(sp.kv(ell + 0.5, x))
                # d/dx [sqrt(2/(pi x)) K_{l+1/2}(x)]
                ref = math.sqrt(2.0 / math.pi) * (kvp / math.sqrt(x) - 0.5 * kv * x**-1.5)
                assert mine == pytest.approx(ref, rel=1e-11)


def _scipy_i(ell, x):
    """Growing modified spherical Bessel function and its derivative (oracle)."""
    return float(sp.spherical_in(ell, x)), float(sp.spherical_in(ell, x, derivative=True))


class TestWronskian:
    @pytest.mark.parametrize("ell", range(0, 11))
    @pytest.mark.parametrize("x", (0.5, 1.0, 2.0, 5.0, 10.0, 20.0))
    def test_cross_wronskian(self, ell, x):
        # i_l k_l' - i_l' k_l = -1/x^2 in this normalization.
        i, di = _scipy_i(ell, x)
        ek = modified_spherical_bessel_k_scaled(ell, x)
        dek = modified_spherical_bessel_k_scaled_deriv(ell, x)
        scale = math.exp(-x)
        wronskian = i * dek * scale - di * ek * scale
        assert wronskian == pytest.approx(-1.0 / x**2, rel=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=0, max_value=12),
        x=st.floats(min_value=0.3, max_value=40.0, allow_nan=False),
    )
    def test_cross_wronskian_property(self, ell, x):
        i, di = _scipy_i(ell, x)
        scale = math.exp(-x)
        ek = modified_spherical_bessel_k_scaled(ell, x)
        dek = modified_spherical_bessel_k_scaled_deriv(ell, x)
        assert i * dek * scale - di * ek * scale == pytest.approx(-1.0 / x**2, rel=1e-9)
