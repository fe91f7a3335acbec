"""Spherical Bessel families: closed forms, scipy cross-checks, Wronskian."""

import math
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from mitbag.special import (
    BesselOverflowError,
    SpecialFunctionDomainError,
    ek_kernel,
    modified_spherical_bessel_k_scaled,
    modified_spherical_bessel_k_scaled_deriv,
    modified_spherical_bessel_k_scaled_pair,
    spherical_bessel_j,
    spherical_bessel_j_deriv,
    spherical_bessel_j_pair,
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

    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(min_value=0, max_value=50),
        xs=st.lists(
            st.one_of(
                st.floats(min_value=1e-9, max_value=1e-3),  # series, tiny arguments
                st.floats(min_value=1e-3, max_value=1.0),  # series
                st.floats(min_value=1.0, max_value=52.0),  # Miller below x = l + 1, upward above
                st.floats(min_value=52.0, max_value=1e4),  # upward
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_array_matches_scalar_bitwise(self, ell, xs):
        # The regime edges x = 1 and x = l + 1 are always among the elements.
        x = np.array(xs + [1.0, ell + 1.0])
        for fn in (spherical_bessel_j, spherical_bessel_j_deriv):
            scalar = np.array([fn(ell, v) for v in x.tolist()])
            np.testing.assert_array_equal(fn(ell, x).view(np.int64), scalar.view(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(
        ell=st.integers(min_value=1, max_value=50),
        xs=st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=40),
    )
    def test_series_matches_early_stopping_sum_bitwise(self, ell, xs):
        # The series regime (x <= 1, l >= 1) sums a fixed number of terms; the
        # reference stops once a term falls below 1e-18 of the sum.
        def reference(x):
            term = total = 1.0
            for k in range(1, 60):
                term *= -(x * x) / (2.0 * k * (2.0 * (ell + k) + 1.0))
                total += term
                if abs(term) < 1e-18 * abs(total):
                    break
            return x**ell / float(math.prod(range(2 * ell + 1, 0, -2))) * total

        x = np.array(xs + [1.0])  # x = 1 needs the most terms
        expected = np.array([reference(v) for v in x.tolist()])
        scalar = np.array([spherical_bessel_j(ell, v) for v in x.tolist()])
        np.testing.assert_array_equal(scalar.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(spherical_bessel_j(ell, x).view(np.int64), expected.view(np.int64))

    def test_array_keeps_its_shape(self):
        x = np.linspace(0.1, 30.0, 12).reshape(3, 4)
        out = spherical_bessel_j(3, x)
        assert out.shape == (3, 4)
        assert out[2, 1] == spherical_bessel_j(3, float(x[2, 1]))

    @pytest.mark.parametrize("ell", ELLS)
    def test_array_against_scipy(self, ell):
        mine = spherical_bessel_j(ell, X_GRID)
        np.testing.assert_allclose(mine, sp.spherical_jn(ell, X_GRID), rtol=1e-11, atol=1e-15)
        mine = spherical_bessel_j_deriv(ell, X_GRID)
        np.testing.assert_allclose(mine, sp.spherical_jn(ell, X_GRID, derivative=True), rtol=1e-10, atol=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        ell=st.integers(min_value=0, max_value=50),
        xs=st.lists(st.floats(min_value=1e-3, max_value=100.0), min_size=0, max_size=10),
        bad=st.sampled_from([0.0, -0.0, -1e-300, -2.5, math.nan, math.inf, -math.inf]),
        where=st.integers(min_value=0, max_value=10),
    )
    def test_array_domain_errors(self, ell, xs, bad, where):
        x = np.array(xs[:where] + [bad] + xs[where:])
        for fn in (spherical_bessel_j, spherical_bessel_j_deriv):
            with pytest.raises(SpecialFunctionDomainError):
                fn(ell, x)


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

    def test_overflow_is_reported(self):
        # k_50 at tiny argument exceeds double range, alone or as one element.
        # The typed error is the only signal: numpy's overflow warnings, made
        # errors here, must not escape first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e-5, np.float64(1e-5), np.array([1.0, 1e-5, 2.0])):
                with pytest.raises(BesselOverflowError):
                    modified_spherical_bessel_k_scaled(50, x)
            # At x = 4e-5, k_50 still fits but its derivative (~51/x times it) does not.
            assert math.isfinite(modified_spherical_bessel_k_scaled(50, 4e-5))
            for x in (4e-5, np.float64(4e-5), np.array([1.0, 4e-5])):
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


def _outcome(call):
    """The bits of each value ``call()`` returns, or the overflow it raises."""
    try:
        return [v.hex() for v in call()]
    except BesselOverflowError as exc:
        return f"BesselOverflowError: {exc}"


PAIRS = (
    (spherical_bessel_j_pair, spherical_bessel_j),
    (modified_spherical_bessel_k_scaled_pair, modified_spherical_bessel_k_scaled),
)


class TestPairKernels:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=49),
        xs=st.lists(
            st.one_of(
                st.floats(min_value=1e-9, max_value=1e-3),  # series; k overflows at large n
                st.floats(min_value=1e-3, max_value=1.0),  # series
                st.floats(min_value=1.0, max_value=52.0),  # Miller, mixed or upward, by n
                st.floats(min_value=52.0, max_value=1e4),  # upward
            ),
            max_size=20,
        ),
    )
    def test_pair_is_two_single_calls_bitwise(self, n, xs):
        # Each regime edge (x = 1, n + 1, n + 2) and its float neighbours.
        edges = [1.0, n + 1.0, n + 2.0]
        xs = xs + [y for e in edges for y in (math.nextafter(e, 0.0), e, math.nextafter(e, math.inf))]
        for pair, single in PAIRS:
            for x in xs:
                assert _outcome(lambda: pair(n, x)) == _outcome(lambda: (single(n, x), single(n + 1, x)))

    def test_k_pair_overflow_names_the_first_order_that_overflows(self):
        assert math.isfinite(modified_spherical_bessel_k_scaled(49, 3e-5))
        with pytest.raises(BesselOverflowError, match="k_50 "):
            modified_spherical_bessel_k_scaled_pair(49, 3e-5)
        with pytest.raises(BesselOverflowError, match="k_49 "):
            modified_spherical_bessel_k_scaled_pair(49, 2e-5)

    @pytest.mark.parametrize("pair", [p for p, _ in PAIRS])
    def test_domain_errors(self, pair):
        # n = 50 fails as the single call at order 51 does.
        with pytest.raises(SpecialFunctionDomainError, match="order 51 outside"):
            pair(50, 2.0)
        for n, x in ((-1, 2.0), (True, 2.0), (1.0, 2.0), (2, 0.0), (2, -1.0), (2, math.nan), (2, math.inf)):
            with pytest.raises(SpecialFunctionDomainError):
                pair(n, x)

    @pytest.mark.parametrize("pair, single", PAIRS)
    def test_other_argument_types_match_single_calls(self, pair, single):
        x = np.array([0.5, 3.0, 40.0])
        for arg in (x, np.float64(3.0), 3):
            lo, hi = pair(2, arg)
            np.testing.assert_array_equal(lo, single(2, arg))
            np.testing.assert_array_equal(hi, single(3, arg))


def _scipy_i(ell, x):
    """Growing modified spherical Bessel function and its derivative (oracle)."""
    return float(sp.spherical_in(ell, x)), float(sp.spherical_in(ell, x, derivative=True))


class TestUncheckedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        ell=st.integers(min_value=0, max_value=50),
        xs=st.lists(
            st.one_of(
                st.floats(min_value=1e-6, max_value=1e-2),  # overflows at large l
                st.floats(min_value=1e-2, max_value=10.0),
                st.floats(min_value=10.0, max_value=1e8),
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_kernel_is_the_checked_function_bitwise(self, ell, xs):
        # Wherever the checked function is finite, the kernel gives its bits,
        # on floats and on an ndarray of the finite points.
        kernel = ek_kernel(ell)
        finite = []
        for x in xs:
            try:
                value = modified_spherical_bessel_k_scaled(ell, x)
            except BesselOverflowError:
                continue
            assert type(kernel(x)) is float and kernel(x).hex() == value.hex()
            finite.append(x)
        if finite:
            x = np.array(finite)
            assert kernel(x).tobytes() == modified_spherical_bessel_k_scaled(ell, x).tobytes()

    def test_order_checked_once_when_bound(self):
        assert ek_kernel(3) is ek_kernel(3)
        for ell in (-1, 51, True, 2.0):
            with pytest.raises(SpecialFunctionDomainError):
                ek_kernel(ell)


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
