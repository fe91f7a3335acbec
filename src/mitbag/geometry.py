"""Curvature data, model geometries, and the validity bound of the collar weight.

A collar neighborhood of a smooth surface carries the exact volume weight

    a(s, t) = 1 + t kappa(s) + t^2 K(s)

with kappa the mean curvature (trace of the shape operator) and K the Gauss
curvature (its determinant).  After the rescaling tau = m t used throughout
the large-mass analysis this becomes

    a_{m,kappa,K}(tau) = 1 + tau kappa / m + tau^2 K / m^2,   tau in [0, sqrt(m)],

and all transverse formulas are valid once the weight stays >= 1/2 on the
collar, which ``min_rescaled_weight`` below decides for a given mass.  The
weight itself is ``transverse.TransverseProblem.weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise mean curvature kappa (1/length) and Gauss curvature K (1/length^2)."""

    kappa: float
    gauss: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and math.isfinite(self.gauss)):
            raise ValueError("curvatures must be finite")

    @classmethod
    def sphere(cls, radius: float) -> "CurvatureData":
        """Curvatures of a sphere of given radius: kappa = 2/R, K = 1/R^2."""
        if radius <= 0.0:
            raise ValueError("radius must be positive")
        return cls(kappa=2.0 / radius, gauss=1.0 / radius**2)

    @classmethod
    def flat(cls) -> "CurvatureData":
        return cls(kappa=0.0, gauss=0.0)


@dataclass(frozen=True)
class CurvatureBounds:
    """Uniform bounds A >= sup|kappa|, B >= sup|K| over the surface."""

    A: float
    B: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.A) and math.isfinite(self.B)):
            raise ValueError("bounds must be finite")
        if self.A < 0.0 or self.B < 0.0:
            raise ValueError("bounds must be nonnegative")

    @classmethod
    def for_point(cls, c: CurvatureData) -> "CurvatureBounds":
        return cls(A=abs(c.kappa), B=abs(c.gauss))


@dataclass(frozen=True)
class FlatTorusHalfSpace:
    """Flat model: 2-torus of given period crossed with a half-line.

    Boundary data have discrete Fourier (Parseval) expansions, and kappa=K=0
    isolates the tangential-gradient term of the effective boundary energy.
    """

    period: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError("period must be positive")

    def curvature(self) -> CurvatureData:
        return CurvatureData.flat()


@dataclass(frozen=True)
class BallExterior:
    """Exterior of the ball of radius R; boundary curvatures 2/R and 1/R^2."""

    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")

    def curvature(self) -> CurvatureData:
        return CurvatureData.sphere(self.R)


@dataclass(frozen=True)
class BallInterior:
    """The ball of radius R, domain of the bag and Robin interior operators."""

    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")

    def curvature(self) -> CurvatureData:
        return CurvatureData.sphere(self.R)


ModelGeometry = Union[FlatTorusHalfSpace, BallExterior, BallInterior]


def _quadratic_min_on_interval(kappa: float, gauss: float, m: float) -> float:
    # min over tau in [0, sqrt(m)] of 1 + kappa tau/m + K tau^2/m^2.
    T = math.sqrt(m)
    candidates = [1.0, 1.0 + kappa * T / m + gauss * T * T / (m * m)]
    if gauss > 0.0:
        tau_vertex = -kappa * m / (2.0 * gauss)
        if 0.0 < tau_vertex < T:
            candidates.append(1.0 + kappa * tau_vertex / m + gauss * (tau_vertex / m) ** 2)
    return min(candidates)


def min_rescaled_weight(bounds: CurvatureBounds, m: float) -> float:
    """min of a_{m,kappa,K} over tau in [0, sqrt(m)] and |kappa|<=A, |K|<=B.

    The weight is linear in (kappa, K) at fixed tau, so the minimum over the
    box is attained at a corner; the corner (-A, -B) in fact dominates
    pointwise, but all four corners are minimized analytically.
    """
    if not (math.isfinite(m) and m > 0.0):
        raise ValueError("m must be positive")
    corners = [(-bounds.A, -bounds.B), (-bounds.A, bounds.B), (bounds.A, -bounds.B), (bounds.A, bounds.B)]
    return min(_quadratic_min_on_interval(k, g, m) for k, g in corners)
