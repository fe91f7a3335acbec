"""Radial eigensolvers on the ball for the bag operator, its large-mass
regularization, and the intermediate Robin-type Laplacian, plus the boundary
correction functionals eta, mu, nu.

Angular reduction.  On the ball, a 4-spinor decomposes over spin-orbit
sectors labeled by a nonzero integer kappa_j (degeneracy 2|kappa_j|), with
orbital indices l_A (upper 2-spinor) and l_B = l_A +- 1 (lower).  Writing a
sector state as (f(r) X_A ; i g(r) X_B) with sigma.n X_A = -X_B, the matrix
B = -i beta (alpha.n) acts on the radial pair (f, g) as [[0, -1], [-1, 0]];
its +-1 projections are spanned by (1, -1) and (1, 1).  Consequently:

  * bag boundary condition  B psi = psi      <=>  f(R) + g(R) = 0,
  * Xi+ w = 0               <=>  w_f = w_g,
  * Xi- w = 0               <=>  w_f + w_g = 0.

Interior regular solutions at energy E (k^2 = E^2 - m0^2):

    f(r) = j_{l_A}(k r),   g(r) = s  k/(E + m0)  j_{l_B}(k r),

with s = sign(kappa_j).  Exterior decaying solutions under mass M = m0 + m
(q^2 = M^2 - E^2) replace j by the decaying family:

    f(r) = k_{l_A}(q r),   g(r) = -q/(E + M)  k_{l_B}(q r).

Matching f, g continuously at r = R gives the large-mass eigenvalue
determinant; its m -> infinity limit factorizes through the bag condition,
which is the internal consistency check validating every sign choice above.

The Robin-type vectorial Laplacian (-Delta + m0^2 with boundary conditions
Xi-(d_n + kappa/2 + m0 + 2m)u = 0, Xi+(d_n + kappa/2 + m0)u = 0) decouples
into two scalar radial Laplacians coupled only through the boundary rows;
with D_X = k j'_{l_X}(kR) + (1/R + m0) j_{l_X}(kR) and J_X = j_{l_X}(kR) the
2x2 determinant reads

    D_A D_B + m (D_A J_B + D_B J_A) = 0,      lambda_int = m0^2 + k^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .numerics import NumericsError, ToleranceConfig, find_root_bracketed, panel_nodes
from .special import (
    modified_spherical_bessel_k_scaled,
    spherical_bessel_j,
    spherical_bessel_j_deriv,
)


class BracketExhaustionError(NumericsError):
    """The eigenvalue scan ended before finding the requested count."""

    def __init__(self, message: str, scanned: tuple[float, float]):
        super().__init__(message)
        self.scanned = scanned


class EssentialSpectrumError(NumericsError):
    """The search window touched the essential-spectrum threshold m0 + m."""


@dataclass(frozen=True)
class AngularSector:
    """Spin-orbit sector of the radial reduction.

    kappa_j > 0 has orbital indices (l_A, l_B) = (kappa_j, kappa_j - 1);
    kappa_j < 0 has (l_A, l_B) = (-kappa_j - 1, -kappa_j).  The level
    degeneracy is 2|kappa_j| (the azimuthal copies share one radial problem).
    """

    kappa_j: int

    def __post_init__(self) -> None:
        if self.kappa_j == 0:
            raise ValueError("kappa_j must be a nonzero integer")

    @property
    def degeneracy(self) -> int:
        return 2 * abs(self.kappa_j)

    @property
    def ell_upper(self) -> int:
        return self.kappa_j if self.kappa_j > 0 else -self.kappa_j - 1

    @property
    def ell_lower(self) -> int:
        return self.kappa_j - 1 if self.kappa_j > 0 else -self.kappa_j

    @property
    def sign(self) -> int:
        return 1 if self.kappa_j > 0 else -1

    def label(self) -> str:
        return f"kj={self.kappa_j}"


@dataclass(frozen=True)
class DiracParams:
    """Ball radius, intrinsic mass m0, and exterior mass jump m."""

    R: float
    m0: float = 0.0
    m: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.R) and self.R > 0.0):
            raise ValueError("R must be positive")
        if not (math.isfinite(self.m0) and self.m0 >= 0.0):
            raise ValueError("m0 must be nonnegative")
        if not (math.isfinite(self.m) and self.m >= 0.0):
            raise ValueError("m must be nonnegative")

    @property
    def robin_offset(self) -> float:
        """Coefficient 1/R + m0 of the Robin trace d_n + kappa/2 + m0 on the sphere."""
        return 1.0 / self.R + self.m0


@dataclass(frozen=True)
class RadialEigenpair:
    """Normalized radial eigenfunction data for one sector.

    ``energy`` is the Dirac eigenvalue E for bag / large-mass pairs and the
    Laplacian eigenvalue lambda_int for Robin pairs.  Interior samples live on
    a Gauss-Legendre grid (r, weights); large-mass pairs also carry the
    exterior tail, whose mass is part of the unit normalization.
    ``boundary_values`` is (f(R), g(R), f'(R), g'(R)) from the interior side.
    """

    energy: float
    sector: AngularSector
    kind: str  # "mit" | "largemass" | "robin"
    r: np.ndarray
    f: np.ndarray
    g: np.ndarray
    weights: np.ndarray
    boundary_values: tuple[float, float, float, float]
    residual: float
    radial_params: tuple[float, float, float]  # (k, c_upper, c_lower)
    r_ext: np.ndarray | None = None
    f_ext: np.ndarray | None = None
    g_ext: np.ndarray | None = None
    ext_weights: np.ndarray | None = None

    def interior_norm_sq(self) -> float:
        return float(np.dot(self.weights, (self.f**2 + self.g**2) * self.r**2))

    def exterior_norm_sq(self) -> float:
        if self.r_ext is None:
            return 0.0
        return float(np.dot(self.ext_weights, (self.f_ext**2 + self.g_ext**2) * self.r_ext**2))

    def norm_sq(self) -> float:
        return self.interior_norm_sq() + self.exterior_norm_sq()

    def interior_values(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form interior radial components at arbitrary radii."""
        k, c_up, c_lo = self.radial_params
        ja, jb = _bessel_samples(self.sector, k, r)
        return c_up * ja, c_lo * jb


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues per sector, ordered ascending in |energy|, with solver residuals."""

    eigenvalues: tuple[tuple[float, AngularSector], ...]
    solver_residuals: tuple[float, ...]

    def __post_init__(self) -> None:
        mags = [abs(e) for e, _ in self.eigenvalues]
        if any(b < a - 1e-12 for a, b in zip(mags, mags[1:])):
            raise ValueError("eigenvalues must be sorted ascending in |energy|")

    def energies(self) -> list[float]:
        return [e for e, _ in self.eigenvalues]


# ----------------------------------------------------------------------------
# Matching determinants
# ----------------------------------------------------------------------------


def _mit_matching(E: float, p: DiracParams, sec: AngularSector) -> float:
    # f(R) + g(R) = 0 for the regular interior solution at energy E.
    k = math.sqrt(max(E * E - p.m0 * p.m0, 0.0))
    x = k * p.R
    if x <= 0.0:
        return 1.0  # no zero-energy bound state; keeps the scan well-defined
    jA = spherical_bessel_j(sec.ell_upper, x)
    jB = spherical_bessel_j(sec.ell_lower, x)
    return jA + sec.sign * (k / (E + p.m0)) * jB


def _largemass_matching(E: float, p: DiracParams, sec: AngularSector) -> float:
    # Continuity determinant of (f, g) across r = R, with the overall
    # exp(-qR) of the decaying family divided out.
    M = p.m0 + p.m
    k = math.sqrt(max(E * E - p.m0 * p.m0, 0.0))
    q = math.sqrt(max(M * M - E * E, 0.0))
    xk = k * p.R
    xq = q * p.R
    if xk <= 0.0 or xq <= 0.0:
        return 1.0
    jA = spherical_bessel_j(sec.ell_upper, xk)
    jB = spherical_bessel_j(sec.ell_lower, xk)
    ekA = modified_spherical_bessel_k_scaled(sec.ell_upper, xq)
    ekB = modified_spherical_bessel_k_scaled(sec.ell_lower, xq)
    return (q / (E + M)) * jA * ekB + sec.sign * (k / (E + p.m0)) * jB * ekA


def _robin_rows(k: float, p: DiracParams, sec: AngularSector) -> tuple[float, float, float, float]:
    jA, jB, djA, djB = _bessel_at(sec, k * p.R)
    return jA, jB, k * djA + p.robin_offset * jA, k * djB + p.robin_offset * jB


def _robin_matching(k: float, p: DiracParams, sec: AngularSector) -> float:
    if k <= 0.0:
        return 1.0
    jA, jB, dA, dB = _robin_rows(k, p, sec)
    return dA * dB + p.m * (dA * jB + dB * jA)


# ----------------------------------------------------------------------------
# Scan-and-bracket driver
# ----------------------------------------------------------------------------


def _scan_roots(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
    count: int,
    tol: ToleranceConfig,
) -> list[tuple[float, float]]:
    """Walk [lo, hi] with the given step, Brent-solve every sign change.

    Returns up to ``count`` (root, |f(root)|) pairs; raises if the window is
    exhausted first.
    """
    roots: list[tuple[float, float]] = []
    x_prev = lo
    f_prev = fn(lo)
    x = lo
    while x < hi and len(roots) < count:
        x = min(x_prev + step, hi)
        f_x = fn(x)
        if f_x == 0.0:
            roots.append((x, 0.0))
        elif math.copysign(1.0, f_prev) != math.copysign(1.0, f_x):
            root = find_root_bracketed(fn, (x_prev, x), tol)
            roots.append((root, abs(fn(root))))
        x_prev, f_prev = x, f_x
    if len(roots) < count:
        raise BracketExhaustionError(
            f"found {len(roots)} of {count} eigenvalues", (lo, hi)
        )
    return roots


_SOLVER_TOL = ToleranceConfig(abs_tol=0.0, rel_tol=1e-14, max_iter=300)


def _dirac_scan_window(p: DiracParams, count: int) -> tuple[float, float, float]:
    # Radial Bessel zeros are spaced ~pi/R; a generous cap avoids rescans.
    step = math.pi / (4.0 * p.R)
    lo = p.m0 + max(1e-9, 1e-9 * p.m0)
    hi = math.sqrt(p.m0**2 + ((count + 3) * math.pi / p.R + 4.0 / p.R) ** 2)
    return lo, hi, step


def _signed_spectrum(
    matching: Callable[[float, DiracParams, AngularSector], float],
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None,
    threshold: float | None = None,
) -> SpectralResult:
    """The first count roots of each sign per sector, sorted by |E|.

    With a ``threshold`` the scan stops just below it, and running out of
    roots there raises ``EssentialSpectrumError``.
    """
    tol = tol or _SOLVER_TOL
    stop = math.inf if threshold is None else threshold * (1.0 - 1e-12)
    entries: list[tuple[float, AngularSector, float]] = []
    for sec in sectors:
        lo, hi, step = _dirac_scan_window(p, count_per_side)
        hi = min(hi, stop)
        for sign in (1.0, -1.0):
            try:
                roots = _scan_roots(
                    lambda E: matching(sign * E, p, sec), lo, hi, step, count_per_side, tol
                )
            except BracketExhaustionError as exc:
                if hi == stop:
                    raise EssentialSpectrumError(
                        f"search window reached the essential spectrum at {threshold}"
                    ) from exc
                raise
            entries.extend((sign * e, sec, res) for e, res in roots)
    entries.sort(key=lambda t: (abs(t[0]), t[0] < 0, t[1].kappa_j))
    return SpectralResult(
        eigenvalues=tuple((e, sec) for e, sec, _ in entries),
        solver_residuals=tuple(res for _, _, res in entries),
    )


def _by_magnitude(
    signed_solver: Callable[..., SpectralResult],
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None,
) -> SpectralResult:
    """First ``count`` singular values of one sector, from its signed spectrum."""
    if count < 1 or count > 20:
        raise ValueError("count must be in [1, 20]")
    signed = signed_solver(p, [sector], count, tol)
    merged = sorted(zip(signed.energies(), signed.solver_residuals), key=lambda t: abs(t[0]))[:count]
    return SpectralResult(
        eigenvalues=tuple((abs(e), sector) for e, _ in merged),
        solver_residuals=tuple(res for _, res in merged),
    )


def mit_spectrum_signed(
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None = None,
) -> SpectralResult:
    """Signed bag eigenvalues: the first count roots of each sign per sector."""
    return _signed_spectrum(_mit_matching, p, sectors, count_per_side, tol)


def mit_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> SpectralResult:
    """First ``count`` singular values (eigenvalues of |H|) in one sector.

    Positive and negative bag eigenvalues of the sector are merged by
    absolute value; the exterior mass jump in ``p`` is ignored.
    """
    return _by_magnitude(mit_spectrum_signed, p, sector, count, tol)


def largemass_spectrum_signed(
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None = None,
) -> SpectralResult:
    """Signed eigenvalues of the large-mass operator below the threshold m0+m."""
    if p.m <= 0.0:
        raise ValueError("the large-mass solver needs m > 0")
    return _signed_spectrum(_largemass_matching, p, sectors, count_per_side, tol, threshold=p.m0 + p.m)


def largemass_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> SpectralResult:
    """First ``count`` singular values of the large-mass operator in one sector."""
    return _by_magnitude(largemass_spectrum_signed, p, sector, count, tol)


def robin_laplacian_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> SpectralResult:
    """First ``count`` eigenvalues of the Robin-type interior Laplacian in a sector.

    Roots are found in the radial wavenumber kk (lambda_int = m0^2 + kk^2);
    the 2m-weighted boundary row makes the first root sit just below the
    squared bag eigenvalue, which it reaches as m -> infinity.
    """
    if p.m <= 0.0:
        raise ValueError("the Robin solver needs m > 0")
    if count < 1 or count > 20:
        raise ValueError("count must be in [1, 20]")
    tol = tol or _SOLVER_TOL
    step = math.pi / (4.0 * p.R)
    lo = 1e-9 / p.R
    hi = (count + 3) * math.pi / p.R + 4.0 / p.R
    roots = _scan_roots(lambda k: _robin_matching(k, p, sector), lo, hi, step, count, tol)
    return SpectralResult(
        eigenvalues=tuple((p.m0**2 + k * k, sector) for k, _ in roots),
        solver_residuals=tuple(res for _, res in roots),
    )


# ----------------------------------------------------------------------------
# Eigenpair construction
# ----------------------------------------------------------------------------


def _interior_grid(R: float, k: float) -> tuple[np.ndarray, np.ndarray]:
    n_panels = max(8, int(math.ceil(R * max(k, 1.0) / 0.7)))
    return panel_nodes(0.0, R, max_panel=R / n_panels, n_nodes=16)


def _bessel_samples(sec: AngularSector, k: float, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(j_{l_A}(k r), j_{l_B}(k r)) at the radii r."""
    x = k * np.asarray(r, dtype=float)
    return (
        np.array([spherical_bessel_j(sec.ell_upper, xi) for xi in x]),
        np.array([spherical_bessel_j(sec.ell_lower, xi) for xi in x]),
    )


def _bessel_at(sec: AngularSector, x: float) -> tuple[float, float, float, float]:
    """(j_{l_A}, j_{l_B}, j_{l_A}', j_{l_B}') at one argument x."""
    return (
        spherical_bessel_j(sec.ell_upper, x),
        spherical_bessel_j(sec.ell_lower, x),
        spherical_bessel_j_deriv(sec.ell_upper, x),
        spherical_bessel_j_deriv(sec.ell_lower, x),
    )


def _eigenpair(
    p: DiracParams,
    sector: AngularSector,
    kind: str,
    energy: float,
    k: float,
    c_up: float,
    c_lo: float,
    residual: float,
    tail: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> RadialEigenpair:
    """Unit-norm pair (c_up j_{l_A}(k r), c_lo j_{l_B}(k r)) from unnormalized coefficients.

    ``tail`` is (r_ext, weights, f_ext, g_ext) of an exterior continuation
    per unit f(R); its mass is part of the normalization.
    """
    r, w = _interior_grid(p.R, k)
    ja, jb = _bessel_samples(sector, k, r)
    jA, jB, djA, djB = _bessel_at(sector, k * p.R)
    norm_sq = float(np.dot(w, ((c_up * ja) ** 2 + (c_lo * jb) ** 2) * r**2))
    if tail is not None:
        r_ext, w_ext, f_ext, g_ext = tail
        norm_sq += (c_up * jA) ** 2 * float(np.dot(w_ext, (f_ext**2 + g_ext**2) * r_ext**2))
    norm = math.sqrt(norm_sq)
    c_up, c_lo = c_up / norm, c_lo / norm
    fR = c_up * jA
    exterior = {}
    if tail is not None:
        exterior = dict(r_ext=r_ext, f_ext=fR * f_ext, g_ext=fR * g_ext, ext_weights=w_ext)
    return RadialEigenpair(
        energy=energy,
        sector=sector,
        kind=kind,
        r=r,
        f=c_up * ja,
        g=c_lo * jb,
        weights=w,
        boundary_values=(fR, c_lo * jB, c_up * k * djA, c_lo * k * djB),
        residual=residual,
        radial_params=(k, c_up, c_lo),
        **exterior,
    )


def mit_eigenpair(
    p: DiracParams,
    sector: AngularSector,
    energy: float,
) -> RadialEigenpair:
    """Normalized bag eigenfunction at a previously computed eigenvalue."""
    E = float(energy)
    if abs(E) <= p.m0:
        raise ValueError("bag eigenvalues satisfy |E| > m0")
    k = math.sqrt(E * E - p.m0 * p.m0)
    residual = abs(_mit_matching(E, p, sector))
    return _eigenpair(p, sector, "mit", E, k, 1.0, sector.sign * k / (E + p.m0), residual)


def largemass_eigenpair(
    p: DiracParams,
    sector: AngularSector,
    energy: float,
    tail_length: float = 40.0,
) -> RadialEigenpair:
    """Normalized large-mass eigenfunction, exterior tail included.

    The tail integral runs over [R, R + tail_length/q]; its mass is O(1/m)
    but shifts first-order quantities at the percent level, so it is part of
    the unit normalization.
    """
    E = float(energy)
    M = p.m0 + p.m
    if not (p.m0 < abs(E) < M):
        raise ValueError("large-mass eigenvalues satisfy m0 < |E| < m0 + m")
    k = math.sqrt(E * E - p.m0 * p.m0)
    q = math.sqrt(M * M - E * E)
    # Decaying continuation k_l(q r)/k_l(q R) of f, and the matching g.
    sigma, w_sigma = panel_nodes(0.0, tail_length, max_panel=0.5, n_nodes=12)
    r_ext = p.R + sigma / q
    decay = np.exp(-sigma) / modified_spherical_bessel_k_scaled(sector.ell_upper, q * p.R)
    f_ext = decay * modified_spherical_bessel_k_scaled(sector.ell_upper, q * r_ext)
    g_ext = -(q / (E + M)) * decay * modified_spherical_bessel_k_scaled(sector.ell_lower, q * r_ext)
    residual = abs(_largemass_matching(E, p, sector))
    c_lo = sector.sign * k / (E + p.m0)
    return _eigenpair(p, sector, "largemass", E, k, 1.0, c_lo, residual, (r_ext, w_sigma / q, f_ext, g_ext))


def robin_eigenpair(
    p: DiracParams,
    sector: AngularSector,
    lambda_int: float,
) -> RadialEigenpair:
    """Normalized Robin-Laplacian eigenfunction at a computed eigenvalue."""
    lam_int = float(lambda_int)
    if lam_int <= p.m0**2:
        raise ValueError("Robin eigenvalues satisfy lambda_int > m0^2 on the ball")
    k = math.sqrt(lam_int - p.m0**2)
    jA, jB, dA, dB = _robin_rows(k, p, sector)
    # Null vector of the two boundary rows; pick the better-conditioned row.
    row1 = (dA, -dB)
    row2 = (dA + 2.0 * p.m * jA, dB + 2.0 * p.m * jB)
    if math.hypot(*row1) >= math.hypot(*row2):
        cA, cB = dB, dA
    else:
        cA, cB = row2[1], -row2[0]
    residual = abs(_robin_matching(k, p, sector))
    return _eigenpair(p, sector, "robin", lam_int, k, cA, cB, residual)


# ----------------------------------------------------------------------------
# Boundary correction functionals
# ----------------------------------------------------------------------------


def _robin_traces(u: RadialEigenpair, p: DiracParams) -> tuple[float, float]:
    fR, gR, dfR, dgR = u.boundary_values
    return dfR + p.robin_offset * fR, dgR + p.robin_offset * gR


def mu_functional(u: RadialEigenpair, p: DiracParams) -> float:
    """Robin-trace functional -1/2 ||(d_n + kappa/2 + m0) u||^2 on the boundary.

    This is the first-order coefficient of the Robin-Laplacian eigenvalues;
    the boundary integral reduces to R^2 (Df^2 + Dg^2) for a unit-norm sector
    eigenfunction.
    """
    Df, Dg = _robin_traces(u, p)
    return -0.5 * p.R**2 * (Df * Df + Dg * Dg)


def eta_functional(u: RadialEigenpair, lam: float, p: DiracParams) -> float:
    """First-order coefficient of the squared Dirac eigenvalues.

    eta(u) = int ( |grad_s u|^2/2 - |(d_n + kappa/2 + m0) u|^2/2
                   + (K/2 - kappa^2/8 - lam^2/2) |u|^2 ) dGamma,

    with |grad_s u|^2 integrating to l(l+1)/R^2 per orbital component and
    K/2 - kappa^2/8 = 0 on any sphere (exact cancellation).
    """
    fR, gR, _, _ = u.boundary_values
    sec = u.sector
    tangential = (
        sec.ell_upper * (sec.ell_upper + 1.0) * fR * fR
        + sec.ell_lower * (sec.ell_lower + 1.0) * gR * gR
    )
    Df, Dg = _robin_traces(u, p)
    robin_sq = p.R**2 * (Df * Df + Dg * Dg)
    curv = 0.5 / p.R**2 - (2.0 / p.R) ** 2 / 8.0  # K/2 - kappa^2/8, zero on the sphere
    zeroth = (curv - 0.5 * lam * lam) * p.R**2 * (fR * fR + gR * gR)
    return 0.5 * tangential - 0.5 * robin_sq + zeroth


def nu_minmax(
    eigenspace: Sequence[RadialEigenpair],
    lam: float,
    p: DiracParams,
    norm_tol: float = 1e-6,
) -> list[float]:
    """Sorted eigenvalues of the eta form on an orthonormal eigenspace.

    Distinct entries of one sector stand for distinct azimuthal copies; all
    three boundary integrals are angularly diagonal, so the Gram matrix is
    diagonal with the per-function eta values.  Non-orthonormal input
    (bad normalization, more copies than a sector holds, mixed energies) is
    rejected.
    """
    if not eigenspace:
        raise ValueError("eigenspace must be nonempty")
    per_sector: dict[int, int] = {}
    for u in eigenspace:
        if abs(u.norm_sq() - 1.0) > norm_tol:
            raise ValueError("eigenspace entries must be L^2-normalized")
        if abs(abs(u.energy) - abs(lam)) > norm_tol * max(1.0, abs(lam)):
            raise ValueError("eigenspace entries must share the eigenvalue")
        per_sector[u.sector.kappa_j] = per_sector.get(u.sector.kappa_j, 0) + 1
        if per_sector[u.sector.kappa_j] > u.sector.degeneracy:
            raise ValueError("more copies than the sector degeneracy allows")
    gram = np.zeros((len(eigenspace), len(eigenspace)))
    for i, u in enumerate(eigenspace):
        gram[i, i] = eta_functional(u, lam, p)
    return hermitian_form_eigenvalues(gram)


def hermitian_form_eigenvalues(gram: np.ndarray) -> list[float]:
    """Sorted eigenvalues of a Hermitian form given by its Gram matrix."""
    gram = np.asarray(gram)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("Gram matrix must be square")
    if not np.allclose(gram, gram.conj().T, rtol=1e-10, atol=1e-12):
        raise ValueError("Gram matrix must be Hermitian")
    return [float(v) for v in np.linalg.eigvalsh(gram)]


def boundary_identity_check(
    u_int: RadialEigenpair,
    u_mit: RadialEigenpair,
    m: float,
    p: DiracParams,
) -> float:
    """Relative residual of the exact cross-operator boundary identity

        m (lambda_int - lam^2) <u_int, u_mit>_Omega
            = -1/2 <(d_n + kappa/2 + m0) u_int, (d_n + kappa/2 + m0) u_mit>_Gamma.

    Both sides vanish for orthogonal sectors (the residual is then 0); for
    matching sectors the residual measures solver error only.
    """
    if u_int.sector.kappa_j != u_mit.sector.kappa_j:
        return 0.0
    lam = abs(u_mit.energy)
    lam_int = u_int.energy
    k_max = max(u_int.radial_params[0], u_mit.radial_params[0])
    r, w = _interior_grid(p.R, k_max)
    a, b = u_int.interior_values(r)
    f, g = u_mit.interior_values(r)
    inner = float(np.dot(w, (a * f + b * g) * r**2))
    lhs = m * (lam_int - lam * lam) * inner
    Da, Db = _robin_traces(u_int, p)
    Df, Dg = _robin_traces(u_mit, p)
    rhs = -0.5 * p.R**2 * (Da * Df + Db * Dg)
    denom = abs(lhs) + abs(rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def charge_conjugation_check(result: SpectralResult) -> float:
    """Largest pairing gap between the spectrum and its sign-flipped image.

    Zero (to solver tolerance) certifies the charge-conjugation symmetry of
    the spectrum; an empty result has defect 0.
    """
    energies = result.energies()
    if not energies:
        return 0.0
    defect = 0.0
    for e in energies:
        opposite = [e2 for e2 in energies if e2 * e < 0.0] or [math.inf]
        gap = min(abs(e + e2) for e2 in opposite)
        defect = max(defect, gap if math.isfinite(gap) else math.inf)
    return defect


# ----------------------------------------------------------------------------
# Cross-sector helpers
# ----------------------------------------------------------------------------


def singular_values_merged(
    p: DiracParams,
    kappas: Iterable[int],
    count: int,
    solver: Callable[..., SpectralResult],
    tol: ToleranceConfig | None = None,
) -> list[tuple[float, AngularSector]]:
    """First ``count`` singular values over several sectors, degeneracy expanded.

    ``solver`` is a per-sector solver such as ``mit_eigenvalues`` or
    ``robin_laplacian_eigenvalues``.  Each radial root is repeated 2|kappa_j|
    times, matching the multiplicity convention of the ordered eigenvalue
    sequences.
    """
    per_sector = max(1, min(20, count))
    out: list[tuple[float, AngularSector]] = []
    for kj in kappas:
        for e, s in solver(p, AngularSector(kj), per_sector, tol).eigenvalues:
            out.extend([(e, s)] * s.degeneracy)
    out.sort(key=lambda t: (abs(t[0]), t[1].kappa_j))
    return out[:count]
