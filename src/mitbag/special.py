"""Spherical Bessel functions: regular and modified decaying.

Every transcendental eigenvalue condition in this package (bag matching on
the ball, exterior decay matching, Robin determinants, exterior
Dirichlet-to-Neumann quotients) is built from two radial families:

    j_l(x)   regular at 0,        j_0(x) = sin x / x
    k_l(x)   decaying modified,   k_0(x) = exp(-x) / x

The decaying family is normalized so that k_0(x) = e^{-x}/x exactly (this is
2/pi times the convention built on K_{l+1/2}); with that choice its cross
Wronskian with the growing family i_l (i_0 = sinh x / x) is

    i_l(x) k_l'(x) - i_l'(x) k_l(x) = -1/x^2

and k_1(x) = e^{-x}(x+1)/x^2.  k_l is exposed only in the exponentially
scaled form e^x k_l(x), so that Dirichlet-to-Neumann quotients at arguments
as large as x = m R ~ 1e6 never underflow.

Implementations are self-contained (recurrences, Taylor series and exact
finite sums; the j_l recurrences are those of DLMF 10.51); only double
precision is used and the supported order range is l <= 50.  Each function
is one kernel of a float argument (a numpy scalar is converted to float when
it is checked); an ndarray argument is that checked float call mapped over
its elements (``numerics.libm``), so each element equals the float result
bit for bit and the first bad element raises its own typed error.
``j_pair_kernel(n)`` and ``ek_pair_kernel(n)`` bind one order
pair n, n + 1 (checked once, when bound) and return a function of a float
argument x > 0 that gives both values, the two a matching determinant needs,
bit-equal to two single-order calls; the argument is the caller's to check.
A root scan binds its sector's pair once and calls it at every point, an
eigenpair at x = kR (boundary values and norm) or qR, and the boundary
identity at each quadrature node.  The exterior tail
integrals are closed-form sums over the exact integer coefficients of e^x k_l
(``_k_poly_ints``), after one checked call at x = mR.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .numerics import libm

MAX_ELL = 50


class SpecialFunctionDomainError(ValueError):
    """Argument outside the supported domain (l < 0, l > 50, x <= 0, non-finite)."""


class BesselOverflowError(ArithmeticError):
    """The requested value overflows double precision (raised, never a silent inf/nan)."""


def _check_order_arg(ell: int, x: float) -> float:
    """The checked argument, as a float."""
    if type(ell) is int and type(x) is float and 0 <= ell <= MAX_ELL and 0.0 < x < math.inf:
        return x  # a float call (a DtN value, a tail anchor, a kernel bind), in one expression
    if not isinstance(ell, int) or isinstance(ell, bool):
        raise SpecialFunctionDomainError(f"order must be an integer, got {ell!r}")
    if ell < 0 or ell > MAX_ELL:
        raise SpecialFunctionDomainError(f"order {ell} outside supported range [0, {MAX_ELL}]")
    if not math.isfinite(x) or x <= 0.0:
        raise SpecialFunctionDomainError(f"argument must be finite and > 0, got {x!r}")
    return float(x)


def _map(fn: Callable[[int, float], float], ell: int, x: np.ndarray) -> np.ndarray:
    # fn's checked float call at each element of x; the order is checked
    # even when x is empty.
    _check_order_arg(ell, 1.0)
    return libm(partial(fn, ell), x)


@lru_cache(maxsize=None)
def _double_factorial(n: int) -> float:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return float(out)


# The divisors 2k (2(l + k) + 1), k = 1..10, of the series terms of order l.
_SERIES_DIVISORS = tuple(tuple(2.0 * k * (2.0 * (ell + k) + 1.0) for k in range(1, 11)) for ell in range(MAX_ELL + 1))


def _j_series(ell: int, x: float) -> float:
    # j_l(x) = x^l/(2l+1)!! * sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1))
    # Alternating but rapidly decaying for x <= 1; used only there.  For
    # x <= 1 and l >= 1 the terms after k = 10 are below 1e-18 of the sum, so
    # below half an ulp of it: a longer sum is the same bit for bit.
    minus_x2 = -(x * x)
    term = 1.0
    total = 1.0
    for divisor in _SERIES_DIVISORS[ell]:
        term = term * (minus_x2 / divisor)
        total = total + term
    return x**ell / _double_factorial(2 * ell + 1) * total


# The factors 2l + 1 of the upward steps that end at order ell, as floats.
_UPWARD_FACTORS = tuple(tuple(2.0 * l + 1.0 for l in range(1, ell)) for ell in range(MAX_ELL + 1))


def _j_upward(ell: int, x: float) -> tuple[float, float]:
    # Upward recurrence j_{l+1} = (2l+1)/x j_l - j_{l-1} from the closed
    # forms j_0 = sin x / x and j_1 = sin x / x^2 - cos x / x; returns
    # (j_{l-1}, j_l) for l >= 1.
    s = math.sin(x)
    jm = s / x
    jc = s / (x * x) - math.cos(x) / x
    for factor in _UPWARD_FACTORS[ell]:
        jm, jc = jc, factor / x * jc - jm
    return jm, jc


def _j_miller(ell: int, x: float) -> float:
    # Downward recurrence from a start order high enough that the regular
    # solution dominates, then normalization against the l=0 or l=1 closed form.
    start = ell + 20 + int(1.2 * x)
    jp = 0.0
    jc = 1.0
    target = 0.0
    j1_un = 0.0
    j0_un = 0.0
    for l in range(start, 0, -1):
        jm = (2.0 * l + 1.0) / x * jc - jp
        jp, jc = jc, jm
        if l - 1 == ell:
            target = jc
        if l - 1 == 1:
            j1_un = jc
        if abs(jc) > 1e250:
            jp /= 1e250
            jc /= 1e250
            target /= 1e250
            j1_un /= 1e250
    j0_un = jc
    s = math.sin(x)
    j0_true = s / x
    j1_true = s / (x * x) - math.cos(x) / x
    # Anchor on whichever closed form is farther from a zero.
    if abs(j0_true) >= abs(j1_true):
        scale = j0_true / j0_un
    else:
        scale = j1_true / j1_un
    return target * scale


def spherical_bessel_j(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """Regular spherical Bessel function j_l(x), relative accuracy ~1e-13.

    Upward recurrence in the oscillatory regime x > l, downward (Miller)
    recurrence below the turning point, Taylor series for small arguments.
    An ndarray ``x`` gives each element the float result.
    """
    if isinstance(x, np.ndarray):
        return _map(spherical_bessel_j, ell, x)
    return _j_scalar(ell, _check_order_arg(ell, x))


def _j_scalar(ell: int, x: float) -> float:
    # The regime split for one checked argument.
    if ell == 0:
        return math.sin(x) / x
    if x <= 1.0:
        return _j_series(ell, x)
    if ell == 1 or x >= ell + 1:
        return _j_upward(ell, x)[1]
    return _j_miller(ell, x)


@lru_cache(maxsize=None, typed=True)
def j_pair_kernel(n: int) -> Callable[[float], tuple[float, float]]:
    """The function x -> (j_n(x), j_{n+1}(x)) of a float x > 0 (the caller
    checks x), each value bit-equal to its ``spherical_bessel_j`` value.

    Both orders are checked here, once.  Where both are in the upward regime
    (x > 1, and x >= n + 2 unless n = 0) one recurrence gives both; elsewhere
    each order runs its own regime's kernel.
    """
    _check_order_arg(n, 1.0)
    _check_order_arg(n + 1, 1.0)
    upward_from = 1.0 if n == 0 else n + 2.0

    def pair(x: float) -> tuple[float, float]:
        if x > 1.0 and x >= upward_from:
            return _j_upward(n + 1, x)
        return _j_scalar(n, x), _j_scalar(n + 1, x)

    return pair


def spherical_bessel_j_deriv(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """d/dx j_l(x), via j_l' = j_{l-1} - (l+1)/x j_l (and j_0' = -j_1),
    for a float or an ndarray ``x``."""
    if isinstance(x, np.ndarray):
        return _map(spherical_bessel_j_deriv, ell, x)
    x = _check_order_arg(ell, x)
    if ell == 0:
        return -spherical_bessel_j(1, x)
    return spherical_bessel_j(ell - 1, x) - (ell + 1.0) / x * spherical_bessel_j(ell, x)


def _finite(value: float, ell: int, x: float) -> float:
    if not math.isfinite(value):
        raise BesselOverflowError(f"e^x k_{ell} or its derivative overflows double precision at x={x!r}")
    return value


@lru_cache(maxsize=None)
def _k_poly_ints(ell: int) -> tuple[int, ...]:
    # e^x k_l(x) = (1/x) sum_{j=0}^{l} a_{l,j} x^{-j} with the exact integers
    # a_{l,j} = (l+j)! / (j! (l-j)! 2^j)  (Bessel polynomial coefficients).
    return tuple(math.factorial(ell + j) // (math.factorial(j) * math.factorial(ell - j) << j) for j in range(ell + 1))


@lru_cache(maxsize=None)
def _k_poly_coeffs(ell: int) -> tuple[float, ...]:
    return tuple(map(float, _k_poly_ints(ell)))


def _k_horner(ell: int, x: float) -> float:
    u = 1.0 / x
    acc = 0.0
    for a in reversed(_k_poly_coeffs(ell)):
        acc = acc * u + a
    return acc * u


def modified_spherical_bessel_k_scaled(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """Exponentially scaled decaying function e^x k_l(x) = (1/x) sum_j a_{l,j} x^{-j}.

    The finite sum has positive terms only, so it is exact to rounding for
    any x > 0; it overflows only for genuinely huge values (small x, large l),
    which is reported as an explicit error.  An ndarray ``x`` gives each
    element the float result.
    """
    if isinstance(x, np.ndarray):
        return _map(modified_spherical_bessel_k_scaled, ell, x)
    x = _check_order_arg(ell, x)
    return _finite(_k_horner(ell, x), ell, x)


@lru_cache(maxsize=None, typed=True)
def ek_pair_kernel(n: int) -> Callable[[float], tuple[float, float]]:
    """The function x -> (e^x k_n(x), e^x k_{n+1}(x)) of a float x > 0 (the
    caller checks x), each value bit-equal to its
    ``modified_spherical_bessel_k_scaled`` value.

    Both orders are checked and their Horner coefficients bound here, once.
    An overflow raises BesselOverflowError for the first order that
    overflows, as the single-order calls do.
    """
    _check_order_arg(n, 1.0)
    _check_order_arg(n + 1, 1.0)
    lo_coeffs = _k_poly_coeffs(n)[::-1]
    hi_coeffs = _k_poly_coeffs(n + 1)[::-1]
    isfinite = math.isfinite

    def pair(x: float) -> tuple[float, float]:
        # _k_horner's operations for both orders, 1/x taken once.
        u = 1.0 / x
        lo = hi = 0.0
        for a in lo_coeffs:
            lo = lo * u + a
        for a in hi_coeffs:
            hi = hi * u + a
        lo, hi = lo * u, hi * u
        if isfinite(lo) and isfinite(hi):
            return lo, hi
        return _finite(lo, n, x), _finite(hi, n + 1, x)

    return pair


def modified_spherical_bessel_k_scaled_deriv(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """Exponentially scaled derivative e^x k_l'(x), for a float or an ndarray ``x``.

    Uses k_l' = -k_{l-1} - (l+1)/x k_l with k_{-1} = k_0, so k_0' = -k_1.
    """
    if isinstance(x, np.ndarray):
        return _map(modified_spherical_bessel_k_scaled_deriv, ell, x)
    x = _check_order_arg(ell, x)
    if ell == 0:
        return _finite(-_k_horner(1, x), ell, x)
    return _finite(-_k_horner(ell - 1, x) - (ell + 1.0) / x * _k_horner(ell, x), ell, x)
