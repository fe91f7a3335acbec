"""Exact exterior energies on the two model geometries.

For boundary data v with a finite mode expansion, the exterior minimization

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

is evaluated from the same mode data (grad_s integrates to l(l+1)/R^2 per
unit-norm spherical mode, |xi|^2 per flat mode), so exact-vs-effective gaps
can be measured at machine precision.  The exterior mass and the weighted
Agmon mass ratio come from closed forms or radial quadrature of the exact
profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .geometry import BallExterior, FlatTorusHalfSpace, ModelGeometry
from .numerics import NumericsError, panel_nodes
from .special import (
    modified_spherical_bessel_k_scaled,
    modified_spherical_bessel_k_scaled_deriv,
)


class AgmonDivergenceError(NumericsError):
    """The Agmon-weighted mass integral diverges (rate gamma >= 1)."""


@dataclass(frozen=True)
class SphereMode:
    """Spherical-harmonic degree l; unit L^2(boundary) normalization."""

    ell: int

    def __post_init__(self) -> None:
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")


@dataclass(frozen=True)
class TorusMode:
    """Integer Fourier pair on the periodic boundary; unit L^2 normalization."""

    n1: int
    n2: int


BoundaryMode = Union[SphereMode, TorusMode]


@dataclass(frozen=True)
class BoundaryDatum:
    """Finite mode expansion of a boundary trace on a model geometry.

    Coefficients are against unit-norm modes, so ||v||^2 on the boundary is
    the plain coefficient square sum (Parseval).
    """

    geometry: ModelGeometry
    modes: tuple[tuple[BoundaryMode, complex], ...]

    def __post_init__(self) -> None:
        labels = [mode for mode, _ in self.modes]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate mode labels in boundary datum")
        for mode, _ in self.modes:
            if isinstance(self.geometry, BallExterior) and not isinstance(mode, SphereMode):
                raise ValueError("ball geometry requires SphereMode labels")
            if isinstance(self.geometry, FlatTorusHalfSpace) and not isinstance(mode, TorusMode):
                raise ValueError("flat geometry requires TorusMode labels")

    @property
    def boundary_norm_sq(self) -> float:
        return float(sum(abs(c) ** 2 for _, c in self.modes))

    def tangential_eigenvalue(self, mode: BoundaryMode) -> float:
        """Eigenvalue of -Laplace_s on the boundary for the given unit mode."""
        if isinstance(mode, SphereMode):
            R = self.geometry.R
            return mode.ell * (mode.ell + 1.0) / (R * R)
        xi = self.xi_norm(mode)
        return xi * xi

    def xi_norm(self, mode: TorusMode) -> float:
        period = self.geometry.period
        return 2.0 * math.pi * math.hypot(mode.n1, mode.n2) / period


def sphere_datum(R: float, coefficients: Mapping[int, complex]) -> BoundaryDatum:
    """Boundary datum on the sphere of radius R from {degree: coefficient}."""
    modes = tuple((SphereMode(ell), complex(c)) for ell, c in sorted(coefficients.items()))
    return BoundaryDatum(geometry=BallExterior(R), modes=modes)


def torus_datum(period: float, coefficients: Mapping[tuple[int, int], complex]) -> BoundaryDatum:
    """Boundary datum on the flat torus from {(n1, n2): coefficient}."""
    modes = tuple(
        (TorusMode(n1, n2), complex(c)) for (n1, n2), c in sorted(coefficients.items())
    )
    return BoundaryDatum(geometry=FlatTorusHalfSpace(period), modes=modes)


@dataclass(frozen=True)
class ExteriorSolution:
    """Per-mode exterior energies/masses and their coefficient-weighted totals."""

    per_mode: tuple[tuple[BoundaryMode, float, float], ...]  # (mode, energy, mass) per unit norm
    energy: float
    exterior_mass: float


def halfspace_mode_energy(m: float, xi_norm: float) -> float:
    """Exact per-mode exterior energy sqrt(m^2 + |xi|^2) on the flat model.

    The per-mode profile solves -u'' + (m^2 + |xi|^2) u = 0 on the half-line
    with decay, so the Dirichlet energy of the unit trace is the decay rate.
    """
    if m <= 0.0:
        raise ValueError("m must be positive")
    if xi_norm < 0.0:
        raise ValueError("xi_norm must be nonnegative")
    return math.hypot(m, xi_norm)


def ball_exterior_dtn(m: float, R: float, ell: int) -> float:
    """Exact exterior Dirichlet-to-Neumann eigenvalue -m k_l'(mR)/k_l(mR).

    Computed from exponentially scaled Bessel quotients, so it is exact for
    mR up to ~1e6 and reduces to m + 1/R at l = 0.
    """
    if m <= 0.0 or R <= 0.0:
        raise ValueError("m and R must be positive")
    x = m * R
    ek = modified_spherical_bessel_k_scaled(ell, x)
    dek = modified_spherical_bessel_k_scaled_deriv(ell, x)
    return -m * dek / ek


def effective_energy(v: BoundaryDatum, m: float) -> float:
    """Effective boundary functional Lambda_tilde_m(v) from exact mode data."""
    if m <= 0.0:
        raise ValueError("m must be positive")
    curv = v.geometry.curvature()
    zeroth = curv.gauss / 2.0 - curv.kappa**2 / 8.0
    total = 0.0
    for mode, c in v.modes:
        t = v.tangential_eigenvalue(mode)
        total += abs(c) ** 2 * (m + curv.kappa / 2.0 + (t / 2.0 + zeroth) / m)
    return total


def _tail_integral(m: float, R: float, ell: int, rate: float, length: float) -> float:
    # int_0^length e^{-rate sigma} (e^x k_l)(m r)^2 / (e^x k_l)(mR)^2 r^2 dsigma,
    # r = R + sigma/m; with rate = 2 it is m int_R^inf (k_l(mr)/k_l(mR))^2 r^2 dr.
    sigma, w = panel_nodes(0.0, length, max_panel=0.5, n_nodes=12)
    r = R + sigma / m
    ratio = modified_spherical_bessel_k_scaled(ell, m * r) / modified_spherical_bessel_k_scaled(ell, m * R)
    return float(np.dot(w, np.exp(-rate * sigma) * ratio**2 * r**2))


def _ball_mode_mass(m: float, R: float, ell: int) -> float:
    # int_R^inf (k_l(mr)/k_l(mR))^2 r^2 dr / R^2.
    return _tail_integral(m, R, ell, 2.0, 40.0) / m / (R * R)


def exterior_energy(v: BoundaryDatum, m: float) -> ExteriorSolution:
    """Exact exterior energy and mass of the minimizer for the given trace."""
    if m <= 0.0:
        raise ValueError("m must be positive")
    per_mode = []
    energy = 0.0
    mass = 0.0
    for mode, c in v.modes:
        c2 = abs(c) ** 2
        if isinstance(mode, SphereMode):
            e = ball_exterior_dtn(m, v.geometry.R, mode.ell)
            mu = _ball_mode_mass(m, v.geometry.R, mode.ell)
        else:
            omega = halfspace_mode_energy(m, v.xi_norm(mode))
            e = omega
            mu = 1.0 / (2.0 * omega)
        per_mode.append((mode, e, mu))
        energy += c2 * e
        mass += c2 * mu
    return ExteriorSolution(per_mode=tuple(per_mode), energy=energy, exterior_mass=mass)


def sobolev_h32_norm_sq(v: BoundaryDatum) -> float:
    """Mode-wise H^{3/2} boundary norm: sum (1 + l(l+1))^{3/2} |c|^2 on the
    sphere, sum (1 + |xi|^2)^{3/2} |c|^2 on the torus."""
    total = 0.0
    for mode, c in v.modes:
        if isinstance(mode, SphereMode):
            s = 1.0 + mode.ell * (mode.ell + 1.0)
        else:
            s = 1.0 + v.xi_norm(mode) ** 2
        total += abs(c) ** 2 * s**1.5
    return total


def mass_estimate_check(sol: ExteriorSolution, v: BoundaryDatum, m: float) -> float:
    """Scaled deviation m^2 |mass - ||v||^2/(2m)| / ||v||^2_{H^{3/2}}.

    Zero for a pure l=0 spherical datum (that radial mass is exactly
    ||v||^2/(2m)); bounded uniformly in m in general.
    """
    norm_sq = v.boundary_norm_sq
    if norm_sq == 0.0:
        return 0.0
    h32 = sobolev_h32_norm_sq(v)
    return m * m * abs(sol.exterior_mass - norm_sq / (2.0 * m)) / h32


def agmon_decay_check(m: float, R: float, ell: int, gamma: float) -> float:
    """Ratio of the e^{2 m gamma (r-R)}-weighted to plain exterior mass.

    Computed by radial quadrature of the exact decaying profile; finite for
    gamma < 1 and close to 1/(1-gamma) (exactly that at l = 0, where the
    r^2 volume factor cancels the 1/r^2 of the profile).
    """
    if not (0.0 < gamma):
        raise ValueError("gamma must be positive")
    if gamma >= 1.0:
        raise AgmonDivergenceError(f"weighted mass diverges for gamma={gamma} >= 1")
    if m <= 0.0 or R <= 0.0:
        raise ValueError("m and R must be positive")
    weighted = _tail_integral(m, R, ell, 2.0 - 2.0 * gamma, 40.0 / (2.0 * (1.0 - gamma)))
    return weighted / _tail_integral(m, R, ell, 2.0, 40.0)
