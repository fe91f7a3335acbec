"""Exact exterior energies on the two model boundaries.

A boundary datum is a finite mode expansion on one of the two model
boundaries, and its type says which: a ``SphereDatum`` holds the radius R
and (degree l, coefficient) pairs on the sphere r = R, a ``FlatDatum`` holds
(|xi|, coefficient) pairs of the Fourier modes of the flat torus
(``torus_datum`` forms |xi| from the period once).  For such a datum v the
exterior minimization

    Lambda_m(v) = inf { ||grad u||^2 + m^2 ||u||^2 : u = v on the boundary,
                        u decaying }

diagonalizes mode by mode:

  * flat model (2-torus cross half-line): a tangential Fourier mode of
    frequency xi contributes sqrt(m^2 + |xi|^2) per unit boundary norm
    (profile e^{-sqrt(m^2+|xi|^2) t});

  * ball exterior: a spherical mode of degree l contributes the exact
    Dirichlet-to-Neumann value -m k_l'(mR)/k_l(mR) of -Delta + m^2 outside
    the ball.

The effective boundary functional

    Lambda_tilde_m(v) = m ||v||^2 + int (kappa/2)|v|^2
                        + m^-1 int ( |grad_s v|^2/2 + (K/2 - kappa^2/8)|v|^2 )

is evaluated from the same mode data, with (kappa, K) = (2/R, 1/R^2) on the
sphere and (0, 0) on the flat model (grad_s integrates to l(l+1)/R^2 per
unit-norm spherical mode, |xi|^2 per flat mode).  e^x k_l is a polynomial in
1/x, so each DtN value has an exact expansion in 1/m (``dtn_series``) and each
radial tail integral is a finite sum of z e^z E_n(z) terms.  The flat gap and
the masses' deviations from ||v||^2/(2m) are formed without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from typing import Mapping, Union

from .numerics import NumericsError, memoized
from .special import (
    _k_poly_ints,
    modified_spherical_bessel_k_scaled,
    modified_spherical_bessel_k_scaled_deriv,
)


class AgmonDivergenceError(NumericsError):
    """The Agmon-weighted mass integral diverges (rate gamma >= 1)."""


@dataclass(frozen=True)
class SphereDatum:
    """Boundary trace on the sphere of radius R: (degree l, coefficient) pairs.

    Coefficients are against unit-norm modes, so ||v||^2 on the boundary is
    the plain coefficient square sum (Parseval).
    """

    R: float
    modes: tuple[tuple[int, complex], ...]

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")
        degrees = [ell for ell, _ in self.modes]
        if any(ell < 0 for ell in degrees):
            raise ValueError("ell must be nonnegative")
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate degrees in boundary datum")


@dataclass(frozen=True)
class FlatDatum:
    """Boundary trace on the flat torus: (|xi|, coefficient) pairs, one per
    unit-norm Fourier mode (distinct modes may share a frequency |xi|)."""

    modes: tuple[tuple[float, complex], ...]


BoundaryDatum = Union[SphereDatum, FlatDatum]


def sphere_datum(R: float, coefficients: Mapping[int, complex]) -> SphereDatum:
    """Boundary datum on the sphere of radius R from {degree: coefficient}."""
    return SphereDatum(R, tuple((ell, complex(c)) for ell, c in sorted(coefficients.items())))


def torus_datum(period: float, coefficients: Mapping[tuple[int, int], complex]) -> FlatDatum:
    """Boundary datum on the flat torus of the given period from
    {(n1, n2): coefficient}; the mode (n1, n2) has |xi| = 2 pi |n| / period."""
    if not (math.isfinite(period) and period > 0.0):
        raise ValueError("period must be positive")
    return FlatDatum(tuple(
        (2.0 * math.pi * math.hypot(n1, n2) / period, complex(c)) for (n1, n2), c in sorted(coefficients.items())
    ))


@dataclass(frozen=True)
class ExteriorSolution:
    """Coefficient-weighted totals of the per-mode exterior energies and masses."""

    energy: float
    exterior_mass: float


def halfspace_mode_energy(m: float, xi_norm: float) -> float:
    """Exact per-mode exterior energy sqrt(m^2 + |xi|^2) on the flat model.

    The per-mode profile solves -u'' + (m^2 + |xi|^2) u = 0 on the half-line
    with decay, so the Dirichlet energy of the unit trace is the decay rate.
    """
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got {m!r}")
    if not 0.0 <= xi_norm < math.inf:
        raise ValueError(f"xi_norm must be nonnegative and finite, got {xi_norm!r}")
    return math.hypot(m, xi_norm)


def _check_mass_and_radius(m: float, R: float) -> None:
    if not (0.0 < m < math.inf and 0.0 < R < math.inf):
        raise ValueError(f"m and R must be positive and finite, got m={m!r}, R={R!r}")


def ball_exterior_dtn(m: float, R: float, ell: int) -> float:
    """Exact exterior Dirichlet-to-Neumann eigenvalue -m k_l'(mR)/k_l(mR).

    Computed from exponentially scaled Bessel quotients, so it is exact for
    mR up to ~1e6 and reduces to m + 1/R at l = 0.
    """
    _check_mass_and_radius(m, R)
    x = m * R
    ek = modified_spherical_bessel_k_scaled(ell, x)
    dek = modified_spherical_bessel_k_scaled_deriv(ell, x)
    return -m * dek / ek


def effective_energy(v: BoundaryDatum, m: float) -> float:
    """Effective boundary functional Lambda_tilde_m(v) from exact mode data."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got {m!r}")
    # Curvatures (kappa, K) and the eigenvalue of -Laplace_s of each unit mode.
    if isinstance(v, SphereDatum):
        kappa, gauss = 2.0 / v.R, 1.0 / v.R**2
        tangential = [ell * (ell + 1.0) / (v.R * v.R) for ell, _ in v.modes]
    else:
        kappa, gauss = 0.0, 0.0
        tangential = [xi * xi for xi, _ in v.modes]
    zeroth = gauss / 2.0 - kappa**2 / 8.0
    total = 0.0
    for t, (_, c) in zip(tangential, v.modes):
        total += abs(c) ** 2 * (m + kappa / 2.0 + (t / 2.0 + zeroth) / m)
    return total


def flat_effective_gap(v: FlatDatum, m: float) -> float:
    """m^3 times the exact minus effective energy of a flat-model datum: per
    unit mode m^3 (omega - m - xi^2/(2m)) = -(xi^4/2) (m/(omega + m))^2,
    omega = ``halfspace_mode_energy(m, xi)``, finite for every finite m."""
    if not isinstance(v, FlatDatum):
        raise TypeError("the closed-form gap holds on the flat model only")
    return _weighted_total([-xi**4 / 2.0 * (m / (halfspace_mode_energy(m, xi) + m)) ** 2 for xi, _ in v.modes], v)


def dtn_series(ell: int, count: int = 4) -> tuple[int, ...]:
    """The integers Q_0 .. Q_{count-1} of DtN_l = m + 1/R + sum_n Q_n R^-(n+2) m^-(n+1):
    P'/P = sum_n Q_n u^n for x e^x k_l(x) = P(1/x) = sum_j a_j x^-j (``_k_poly_ints``),
    so Q_n = (n+1) a_{n+1} - sum_{i<n} Q_i a_{n-i} (a_0 = 1).  Q_0 = -Q_1 = l(l+1)/2."""
    a, q = (*_k_poly_ints(ell), *(0,) * count), []
    for n in range(count):
        q.append((n + 1) * a[n + 1] - sum(q[i] * a[n - i] for i in range(n)))
    return tuple(q)


# Tail sums run at 34 digits, so each double they give is correctly rounded.
_DIGITS, _STEP = Context(prec=34), Decimal("1e-24")  # a continued fraction stops at a step below _STEP
_INFINITY = Decimal("Infinity")


def _scaled_expints(top: int, z: Decimal) -> list[Decimal]:
    # [H_0(z), ..., H_top(z)], H_n(z) = z e^z E_n(z), E_n(z) = int_1^inf e^{-z t} t^-n dt
    # (DLMF 8.19).  H_{n+1} = z (1 - H_n)/n (DLMF 8.19.12) keeps its digits upward
    # for n >= z and downward for n < z, so it runs both ways from k = min(top,
    # ceil(z)): H_1 by the series of E_1 if z < 1 (DLMF 6.6.2, Euler's constant),
    # else H_k by its continued fraction in modified Lentz steps (Numerical Recipes 6.3).
    h = [Decimal(1)] * (top + 1)
    if top:
        k = min(top, math.ceil(z))
        if z < 1:
            series = sum((-z) ** j / (j * math.factorial(j)) for j in range(1, 31))
            h[1] = z * z.exp() * (Decimal("-0.5772156649015328606065120900824024") - z.ln() - series)
        else:
            b, c, d, delta, i = z + k, _INFINITY, 1 / (z + k), 0, 0  # c = inf: first c = b
            h[k] = z * d
            while abs(delta - 1) > _STEP:
                i += 1
                a, b = -i * (k - 1 + i), b + 2
                d, c = 1 / (a * d + b), b + a / c
                delta = c * d
                h[k] *= delta
        for n in range(k, top):
            h[n + 1] = z * (1 - h[n]) / n
        for n in range(k - 1, 0, -1):
            h[n] = 1 - n * h[n + 1] / z
    return h


def _tail_integral(m: float, R: float, ell: int, gamma: float) -> tuple[Decimal, Decimal]:
    # T = (m/R^2) int_R^inf e^{2 m gamma (r - R)} (k_l(m r)/k_l(m R))^2 r^2 dr =
    # int_0^inf e^{-rate s} (P(1/(X + s))/P(1/X))^2 ds, X = mR, rate = 2 - 2 gamma,
    # e^x k_l(x) = P(1/x)/x, P(u) = sum_j a_j u^j (DLMF 10.49.12).  The square is
    # sum_n beta_n (X/(X + s))^n / P(1/X)^2, beta the self-convolution of the
    # positive a_j X^-j, and each power integrates to H_n(z)/rate, z = rate X.
    # With sum beta_n = P^2 and 1 - H_n = n H_{n+1}/z (DLMF 8.19.12), returns
    # T = 1/rate - S/(rate z P^2), S = sum_{n>=1} n beta_n H_{n+1}, and the
    # deviation m^2 (T - 1/rate) without cancellation.  The checked call vets
    # l and mR, overflow included.
    modified_spherical_bessel_k_scaled(ell, m * R)
    with localcontext(_DIGITS):
        u, rate = 1 / (Decimal(m) * Decimal(R)), 2 - 2 * Decimal(gamma)
        terms = [a * u**j for j, a in enumerate(_k_poly_ints(ell))]
        # Plain loops, cheaper than generator sums: each total starts from
        # the int 0 and adds its terms in order, every addition rounded.
        beta = []
        for n in range(2 * ell + 1):
            total = 0
            for i in range(max(0, n - ell), min(n, ell) + 1):
                total += terms[i] * terms[n - i]
            beta.append(total)
        h = _scaled_expints(2 * ell + 1 if ell else 0, rate / u)
        total = 0
        for n in range(1, 2 * ell + 1):
            total += n * beta[n] * h[n + 1]
        shift = total * u / (rate * rate * sum(terms) ** 2)
        return 1 / rate - shift, -Decimal(m) ** 2 * shift


def ball_mode_mass(m: float, R: float, ell: int) -> float:
    """Exterior mass int_R^inf (k_l(m r)/k_l(m R))^2 r^2 dr / R^2 of the
    decaying l-mode of unit boundary value, per unit area of the sphere r = R."""
    _check_mass_and_radius(m, R)
    # Once per run per argument tuple: the Agmon ratios reuse the plain tails.
    return float(_DIGITS.divide(memoized(_tail_integral, m, R, ell, 0.0)[0], Decimal(m)))


def _weighted_total(per_mode: list[float], v: BoundaryDatum) -> float:
    # sum |c|^2 x over the modes, in order from 0.0.
    total = 0.0
    for x, (_, c) in zip(per_mode, v.modes):
        total += abs(c) ** 2 * x
    return total


def exterior_energy_only(v: BoundaryDatum, m: float) -> float:
    """The energy of ``exterior_energy`` without the exterior mass, so on the
    sphere without a radial tail integral."""
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got {m!r}")
    # Per-mode energy: the DtN value on the sphere, the decay rate on the flat model.
    if isinstance(v, SphereDatum):
        return _weighted_total([ball_exterior_dtn(m, v.R, ell) for ell, _ in v.modes], v)
    return _weighted_total([halfspace_mode_energy(m, xi) for xi, _ in v.modes], v)


def exterior_energy(v: BoundaryDatum, m: float) -> ExteriorSolution:
    """Exact exterior energy and mass of the minimizer for the given trace."""
    energy = exterior_energy_only(v, m)
    # Per-mode mass: the radial tail on the sphere, 1/(2 omega) on the flat model.
    if isinstance(v, SphereDatum):
        masses = [ball_mode_mass(m, v.R, ell) for ell, _ in v.modes]
    else:
        masses = [1.0 / (2.0 * halfspace_mode_energy(m, xi)) for xi, _ in v.modes]
    return ExteriorSolution(energy=energy, exterior_mass=_weighted_total(masses, v))


def sobolev_h32_norm_sq(v: BoundaryDatum) -> float:
    """Mode-wise H^{3/2} boundary norm: sum (1 + l(l+1))^{3/2} |c|^2 on the
    sphere, sum (1 + |xi|^2)^{3/2} |c|^2 on the torus."""
    if isinstance(v, SphereDatum):
        weights = [1.0 + ell * (ell + 1.0) for ell, _ in v.modes]
    else:
        weights = [1.0 + xi**2 for xi, _ in v.modes]
    total = 0.0
    for s, (_, c) in zip(weights, v.modes):
        total += abs(c) ** 2 * s**1.5
    return total


def mass_estimate_check(sol: ExteriorSolution, v: BoundaryDatum, m: float) -> float:
    """Scaled deviation m^2 |mass - ||v||^2/(2m)| / ||v||^2_{H^{3/2}}.

    Zero for a pure l=0 spherical datum (that radial mass is exactly
    ||v||^2/(2m)); bounded uniformly in m in general.  On the flat model
    ``sol`` is not read: the deviation is ``mass_deviation``'s.
    """
    if not 0.0 < m < math.inf:
        raise ValueError(f"m must be positive and finite, got {m!r}")
    norm_sq = float(sum(abs(c) ** 2 for _, c in v.modes))
    if norm_sq == 0.0:
        return 0.0
    if isinstance(v, FlatDatum):
        return -mass_deviation(v, m) / m / sobolev_h32_norm_sq(v)
    return m * (m * abs(sol.exterior_mass - norm_sq / (2.0 * m))) / sobolev_h32_norm_sq(v)


def mass_deviation(v: BoundaryDatum, m: float) -> float:
    """m^3 (exterior mass - ||v||^2/(2m)), per mode without subtracting 1/(2m):
    m^2 (T - 1/2) of the sphere mode's 34-digit tail T, and on the flat model
    -(xi^2/2) (m/omega) (m/(omega + m)); finite for every finite m."""
    if isinstance(v, SphereDatum):
        _check_mass_and_radius(m, v.R)
        return _weighted_total([float(memoized(_tail_integral, m, v.R, ell, 0.0)[1]) for ell, _ in v.modes], v)
    omegas = [halfspace_mode_energy(m, xi) for xi, _ in v.modes]
    return _weighted_total([-xi * xi / 2.0 * (m / w) * (m / (w + m)) for (xi, _), w in zip(v.modes, omegas)], v)


def agmon_decay_check(m: float, R: float, ell: int, gamma: float) -> float:
    """Ratio of the e^{2 m gamma (r-R)}-weighted to plain exterior mass.

    Computed in closed form from the exact decaying profile; finite for
    gamma < 1 and close to 1/(1-gamma) (exactly that at l = 0, where the
    r^2 volume factor cancels the 1/r^2 of the profile).
    """
    if not (0.0 < gamma):
        raise ValueError("gamma must be positive")
    if gamma >= 1.0:
        raise AgmonDivergenceError(f"weighted mass diverges for gamma={gamma} >= 1")
    _check_mass_and_radius(m, R)
    weighted, plain = (memoized(_tail_integral, m, R, ell, g)[0] for g in (gamma, 0.0))
    return float(_DIGITS.divide(weighted, plain))
