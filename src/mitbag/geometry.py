"""Curvature data, the configured ball, and the validity bound of the collar weight.

A collar neighborhood of a smooth surface carries the exact volume weight

    a(s, t) = 1 + t kappa(s) + t^2 K(s)

with kappa the mean curvature (trace of the shape operator) and K the Gauss
curvature (its determinant).  After the rescaling tau = m t used throughout
the large-mass analysis this becomes

    a_{m,kappa,K}(tau) = 1 + tau kappa / m + tau^2 K / m^2,   tau in [0, sqrt(m)],

and all transverse formulas are valid once the weight stays >= 1/2 on the
collar, which ``collar_is_valid`` below decides for a given mass, from the
least weight ``min_rescaled_weight``.  The weight itself is
``transverse.TransverseProblem.weight``.

Why one corner binds: at every tau >= 0 the weight is nondecreasing in
kappa and in K, so over curvatures with |kappa'| <= |kappa|, |K'| <= |K| it
is least at the corner (-|kappa|, -|K|).  There it reads
1 - |kappa| tau/m - |K| tau^2/m^2, which is nonincreasing in tau, so the
minimum over the collar sits at its end tau = sqrt(m):

    min a = 1 - |kappa|/sqrt(m) - |K|/m,

and the weight stays >= 1/2 exactly from sqrt(m) >= |kappa| + sqrt(kappa^2 + 2|K|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CurvatureData:
    """Pointwise mean curvature kappa (1/length) and Gauss curvature K (1/length^2)."""

    kappa: float
    gauss: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and math.isfinite(self.gauss)):
            raise ValueError("curvatures must be finite")

    @classmethod
    def flat(cls) -> "CurvatureData":
        return cls(kappa=0.0, gauss=0.0)


@dataclass(frozen=True)
class BallInterior:
    """The ball of radius R, domain of the bag and Robin interior operators."""

    R: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")


def min_rescaled_weight(curv: CurvatureData, m: float) -> float:
    """Least collar weight over tau in [0, sqrt(m)] and the curvatures bounded
    by ``curv`` in modulus: the corner (-|kappa|, -|K|) at tau = sqrt(m).

    Rounding is monotone in each operand, so the computed corner value is
    also the least of the computed weights at the other corners and depths.
    """
    if not (math.isfinite(m) and m > 0.0):
        raise ValueError("m must be positive")
    T = math.sqrt(m)
    return 1.0 - abs(curv.kappa) * T / m - abs(curv.gauss) * T * T / (m * m)


def collar_is_valid(curv: CurvatureData, m: float) -> bool:
    """The validity floor of every transverse problem: the collar weight stays
    >= 1/2 at mass m, up to rounding (1e-12), so the exact floor is valid."""
    return min_rescaled_weight(curv, m) >= 0.5 - 1e-12
