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
finite sums); only double precision is used and the supported order range is
l <= 50.  The k_l functions take a float or an ndarray of arguments (the same
Horner loop, element by element); j_l takes a float.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

MAX_ELL = 50


class SpecialFunctionDomainError(ValueError):
    """Argument outside the supported domain (l < 0, l > 50, x <= 0, non-finite)."""


class BesselOverflowError(ArithmeticError):
    """The requested value overflows double precision (raised, never a silent inf/nan)."""


def _check_order_arg(ell: int, x: float | np.ndarray) -> None:
    if not isinstance(ell, (int,)) or isinstance(ell, bool):
        raise SpecialFunctionDomainError(f"order must be an integer, got {ell!r}")
    if ell < 0 or ell > MAX_ELL:
        raise SpecialFunctionDomainError(f"order {ell} outside supported range [0, {MAX_ELL}]")
    if isinstance(x, np.ndarray):
        if not np.all(np.isfinite(x) & (x > 0.0)):
            raise SpecialFunctionDomainError("arguments must be finite and > 0")
    elif not math.isfinite(x) or x <= 0.0:
        raise SpecialFunctionDomainError(f"argument must be finite and > 0, got {x!r}")


@lru_cache(maxsize=None)
def _double_factorial(n: int) -> float:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return float(out)


def _j_series(ell: int, x: float) -> float:
    # j_l(x) = x^l/(2l+1)!! * sum_k (-x^2/2)^k / (k! (2l+3)(2l+5)...(2l+2k+1))
    # Alternating but rapidly decaying for x <= 1; used only there.
    prefactor = x**ell / _double_factorial(2 * ell + 1)
    term = 1.0
    total = 1.0
    for k in range(1, 60):
        term *= -(x * x) / (2.0 * k * (2.0 * (ell + k) + 1.0))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return prefactor * total


def _j_upward(ell: int, x: float) -> float:
    jm = math.sin(x) / x
    jc = math.sin(x) / (x * x) - math.cos(x) / x
    for l in range(1, ell):
        jm, jc = jc, (2.0 * l + 1.0) / x * jc - jm
    return jc


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
    j0_true = math.sin(x) / x
    j1_true = math.sin(x) / (x * x) - math.cos(x) / x
    # Anchor on whichever closed form is farther from a zero.
    if abs(j0_true) >= abs(j1_true):
        scale = j0_true / j0_un
    else:
        scale = j1_true / j1_un
    return target * scale


def spherical_bessel_j(ell: int, x: float) -> float:
    """Regular spherical Bessel function j_l(x), relative accuracy ~1e-13.

    Upward recurrence in the oscillatory regime x > l, downward (Miller)
    recurrence below the turning point, Taylor series for small arguments.
    """
    _check_order_arg(ell, x)
    if ell == 0:
        return math.sin(x) / x
    if x <= 1.0:
        return _j_series(ell, x)
    if ell == 1:
        return math.sin(x) / (x * x) - math.cos(x) / x
    if x >= ell + 1:
        return _j_upward(ell, x)
    return _j_miller(ell, x)


def spherical_bessel_j_deriv(ell: int, x: float) -> float:
    """d/dx j_l(x), via j_l' = j_{l-1} - (l+1)/x j_l (and j_0' = -j_1)."""
    _check_order_arg(ell, x)
    if ell == 0:
        return -spherical_bessel_j(1, x)
    return spherical_bessel_j(ell - 1, x) - (ell + 1.0) / x * spherical_bessel_j(ell, x)


def _finite(value: float | np.ndarray, ell: int, x: float | np.ndarray) -> float | np.ndarray:
    if not (np.all(np.isfinite(value)) if isinstance(value, np.ndarray) else math.isfinite(value)):
        x_min = float(np.min(x))
        raise BesselOverflowError(f"e^x k_{ell} or its derivative overflows double precision at x={x_min!r}")
    return value


@lru_cache(maxsize=None)
def _k_poly_coeffs(ell: int) -> tuple[float, ...]:
    # e^x k_l(x) = (1/x) sum_{j=0}^{l} a_{l,j} x^{-j} with the exact integers
    # a_{l,j} = (l+j)! / (j! (l-j)! 2^j)  (Bessel polynomial coefficients).
    coeffs = []
    for j in range(ell + 1):
        num = math.factorial(ell + j)
        den = math.factorial(j) * math.factorial(ell - j) * (1 << j)
        if num % den != 0:  # pragma: no cover - the quotient is a known integer
            raise AssertionError("Bessel polynomial coefficient not integral")
        coeffs.append(float(num // den))
    return tuple(coeffs)


def _k_horner(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    u = 1.0 / x
    acc = 0.0
    for a in reversed(_k_poly_coeffs(ell)):
        acc = acc * u + a
    return acc * u


def modified_spherical_bessel_k_scaled(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """Exponentially scaled decaying function e^x k_l(x) = (1/x) sum_j a_{l,j} x^{-j}.

    The finite sum has positive terms only, so it is exact to rounding for
    any x > 0; it overflows only for genuinely huge values (small x, large l),
    which is reported as an explicit error.  An ndarray ``x`` runs the same
    operations element-wise, so each element equals the scalar value bit for
    bit; a float stays on plain-float arithmetic.
    """
    _check_order_arg(ell, x)
    return _finite(_k_horner(ell, x), ell, x)


def modified_spherical_bessel_k_scaled_deriv(ell: int, x: float | np.ndarray) -> float | np.ndarray:
    """Exponentially scaled derivative e^x k_l'(x), for a float or an ndarray ``x``.

    Uses k_l' = -k_{l-1} - (l+1)/x k_l with k_{-1} = k_0, so k_0' = -k_1.
    """
    _check_order_arg(ell, x)
    if ell == 0:
        value = -_k_horner(1, x)
    else:
        value = -_k_horner(ell - 1, x) - (ell + 1.0) / x * _k_horner(ell, x)
    return _finite(value, ell, x)
