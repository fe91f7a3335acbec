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

Each solver brackets its levels as sign changes of its determinant on a grid
of step pi/(4R) and polishes them by Newton steps (``_scan_roots``).  The
interior factor, the sector's pair of j values at kR, depends on R, m0 and
|kappa_j| alone, not on the exterior mass, so a run keeps each sector's scan
grid of pairs (``_branch_roots``): a bag, large-mass or Robin solve reads the
pairs an earlier solve of the run evaluated, bit for bit, and evaluates only
the rest.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from .exterior import ball_mode_mass
from .numerics import (
    NumericsError,
    ToleranceConfig,
    find_root_bracketed,
    panel_nodes,
    run_table,
)
from .special import MAX_ELL, SpecialFunctionDomainError, ek_pair_kernel, j_pair_kernel


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
    Any integer is kept as a plain int; |kappa_j| is at most the Bessel
    layer's largest order.
    """

    kappa_j: int

    def __post_init__(self) -> None:
        try:
            kj = None if isinstance(self.kappa_j, bool) else operator.index(self.kappa_j)
        except TypeError:
            kj = None
        if kj is None or not 0 < abs(kj) <= MAX_ELL:
            raise ValueError(f"kappa_j must be a nonzero integer with |kappa_j| <= {MAX_ELL}, got {self.kappa_j!r}")
        object.__setattr__(self, "kappa_j", kj)

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
    """Normalized radial eigenfunction of one sector, in closed form.

    The interior components are (c_upper j_{l_A}(k r), c_lower j_{l_B}(k r))
    on the ball of radius ``R``, with ``radial_params`` = (k, c_upper,
    c_lower).  ``energy`` is the Dirac eigenvalue E for bag / large-mass
    pairs and the Laplacian eigenvalue lambda_int for Robin pairs.
    ``boundary_values`` is (f(R), g(R), f'(R), g'(R)) from the interior side.
    ``exterior_norm_sq`` is the mass of a large-mass pair's exterior tail,
    part of the unit normalization (0 for the other pairs).
    """

    energy: float
    sector: AngularSector
    R: float
    boundary_values: tuple[float, float, float, float]
    radial_params: tuple[float, float, float]  # (k, c_upper, c_lower)
    exterior_norm_sq: float = 0.0

    def norm_sq(self) -> float:
        """Squared L^2 norm, the interior by Lommel's integral at kR."""
        j = _j_pair(self.sector, self.radial_params[0] * self.R)
        return _interior_norm_sq(self.R, self.sector, *self.radial_params, j) + self.exterior_norm_sq


# ----------------------------------------------------------------------------
# Matching determinants
# ----------------------------------------------------------------------------


def _sector_j(
    sec: AngularSector, pair: Callable[[float], tuple[float, float]]
) -> Callable[[float], tuple[float, float, float, float]]:
    """The function x -> (j_{l_A}, j_{l_B}, j_{l_A}', j_{l_B}') at x > 0.

    ``pair`` gives the two sector orders (j_n(x), j_{n+1}(x)), n = |kappa_j| - 1,
    and j_n' = (n/x) j_n - j_{n+1}, j_{n+1}' = j_n - (n+2)/x j_{n+1}
    (DLMF 10.51.2).
    """
    n = abs(sec.kappa_j) - 1
    upper_is_hi = sec.kappa_j > 0  # l_A = n + 1

    def values(x: float) -> tuple[float, float, float, float]:
        lo, hi = pair(x)
        d_lo, d_hi = n / x * lo - hi, lo - (n + 2.0) / x * hi
        return (hi, lo, d_hi, d_lo) if upper_is_hi else (lo, hi, d_lo, d_hi)

    return values


def _checked(x: float) -> float:
    """x if finite and > 0: a pair kernel's domain, which it leaves to its caller."""
    if not 0.0 < x < math.inf:
        raise SpecialFunctionDomainError(f"argument must be finite and > 0, got {x!r}")
    return x


def _j_pair(sec: AngularSector, x: float) -> tuple[float, float, float, float]:
    """(j_{l_A}, j_{l_B}, j_{l_A}', j_{l_B}') at x, checked, from one pair
    call of the two sector orders."""
    return _sector_j(sec, j_pair_kernel(abs(sec.kappa_j) - 1))(_checked(x))


# A sector's determinant kernels, (at, values, value_slopes).  ``at(x)`` is
# the sector's Bessel pair at scan point x (None where the determinant is 1
# by convention), a function of R, m0 and the sector alone, which every
# walk of the sector in a run shares (``_branch_roots``), whatever the mass;
# ``values(x, at(x))`` gives the determinant of every branch there, and
# ``value_slopes`` holds each branch's value-and-slope function, for the
# Newton steps.  Both form a branch's value by the same float operations,
# so the scan and the polish read one function.
Kernels = tuple[
    Callable[[float], Any], Callable[[float, Any], tuple[float, ...]], tuple[Callable[[float], tuple[float, float]], ...]
]


def _energy_pair(p: DiracParams, j_pair: Callable[[float], tuple[float, float]]) -> Callable[[float], Any]:
    """E -> (k, j_pair(kR)), k = sqrt(E^2 - m0^2), of the bag and large-mass
    scans, with ``j_pair`` the sector's pair kernel; None where kR = 0."""
    sqrt, R, m0_sq = math.sqrt, p.R, p.m0 * p.m0

    def at(E: float) -> Any:
        k = sqrt(max(E * E - m0_sq, 0.0))
        x = k * R
        return None if x <= 0.0 else (k, j_pair(x))

    return at


def _mit_kernels(p: DiracParams, sec: AngularSector) -> Kernels:
    """Kernels of the bag determinant f(R) + g(R) of the regular interior
    solution at energy +E and at -E, E > 0: the sector's two branches, each
    a function of E, with its E-derivative (dk/dE = E/k).

    The value is 1 where k = 0: there is no zero-energy bound state, and the
    scan stays well-defined.  (-E)^2 == E^2, so both branches share k and
    one pair of Bessel values.
    """
    sqrt = math.sqrt
    R, m0, s = p.R, p.m0, float(sec.sign)
    m0_sq, s_m0 = m0 * m0, s * m0
    j_pair = j_pair_kernel(abs(sec.kappa_j) - 1)
    j_values = _sector_j(sec, j_pair)
    upper_is_hi = sec.kappa_j > 0  # l_A is the higher order

    def values(E: float, at: Any) -> tuple[float, float]:
        if at is None:
            return 1.0, 1.0
        k, (lo, hi) = at
        jA, jB = (hi, lo) if upper_is_hi else (lo, hi)
        sk = s * k
        return jA + sk / (E + m0) * jB, jA + sk / (m0 - E) * jB

    def value_slope(sign: float, E: float) -> tuple[float, float]:
        E = sign * E
        k = sqrt(max(E * E - m0_sq, 0.0))
        x = k * R
        if x <= 0.0:
            return 1.0, 0.0
        jA, jB, djA, djB = j_values(x)
        b = s * k / (E + m0)
        db = s_m0 / (k * (E + m0))
        return jA + b * jB, sign * (R * E / k * (djA + b * djB) + db * jB)

    return _energy_pair(p, j_pair), values, (partial(value_slope, 1.0), partial(value_slope, -1.0))


def _largemass_kernels(p: DiracParams, sec: AngularSector) -> Kernels:
    """Kernels of the continuity determinant of (f, g) across r = R at energy
    +E and at -E, E > 0, with the overall exp(-qR) of the decaying family
    divided out: the sector's two branches, each a function of E, with its
    E-derivative (dk/dE = E/k, dq/dE = -E/q).

    The value is 1 where k = 0 or q = 0, so that the scan stays well-defined.
    Both branches share k, q and one pair of each Bessel family's values;
    every mass shares the pair of j values.
    """
    sqrt = math.sqrt
    R, m0, s = p.R, p.m0, float(sec.sign)
    M = m0 + p.m
    m0_sq, M_sq, s_m0 = m0 * m0, M * M, s * m0
    n = abs(sec.kappa_j) - 1
    j_pair, ek_pair = j_pair_kernel(n), ek_pair_kernel(n)
    j_values = _sector_j(sec, j_pair)
    upper_is_hi = sec.kappa_j > 0  # l_A = n + 1

    def values(E: float, at: Any) -> tuple[float, float]:
        q = sqrt(max(M_sq - E * E, 0.0))
        xq = q * R
        if at is None or xq <= 0.0:
            return 1.0, 1.0
        k, (lo, hi) = at
        ek_lo, ek_hi = ek_pair(xq)
        jA, jB, ekA, ekB = (hi, lo, ek_hi, ek_lo) if upper_is_hi else (lo, hi, ek_lo, ek_hi)
        sk = s * k
        return (
            q / (E + M) * jA * ekB + sk / (E + m0) * jB * ekA,
            q / (M - E) * jA * ekB + sk / (m0 - E) * jB * ekA,
        )

    def value_slope(sign: float, E: float) -> tuple[float, float]:
        E = sign * E
        k = sqrt(max(E * E - m0_sq, 0.0))
        q = sqrt(max(M_sq - E * E, 0.0))
        xk = k * R
        xq = q * R
        if xk <= 0.0 or xq <= 0.0:
            return 1.0, 0.0
        jA, jB, djA, djB = j_values(xk)
        ek_lo, ek_hi = ek_pair(xq)
        # k_n' = (n/x) k_n - k_{n+1}, k_{n+1}' = -k_n - (n+2)/x k_{n+1}
        # (DLMF 10.51), plus the derivative of the factor e^x.
        dek_lo, dek_hi = (1.0 + n / xq) * ek_lo - ek_hi, (1.0 - (n + 2.0) / xq) * ek_hi - ek_lo
        if upper_is_hi:
            ekA, ekB, dekA, dekB = ek_hi, ek_lo, dek_hi, dek_lo
        else:
            ekA, ekB, dekA, dekB = ek_lo, ek_hi, dek_lo, dek_hi
        a = q / (E + M)
        b = s * k / (E + m0)
        da = -M / (q * (E + M))
        db = s_m0 / (k * (E + m0))
        dxk = R * E / k
        dxq = -R * E / q
        slope = (
            da * jA * ekB + a * (dxk * djA * ekB + dxq * jA * dekB)
            + db * jB * ekA + b * (dxk * djB * ekA + dxq * jB * dekA)
        )
        return a * jA * ekB + b * jB * ekA, sign * slope

    return _energy_pair(p, j_pair), values, (partial(value_slope, 1.0), partial(value_slope, -1.0))


def _robin_kernels(p: DiracParams, sec: AngularSector) -> Kernels:
    """Kernels of the Robin determinant D_A D_B + m (D_A J_B + D_B J_A) at
    wavenumber k > 0, the sector's one branch, and of its k-derivative.

    With x = kR and the Bessel equation for j'', dD_X/dk reads
    m0 R j' - (x - l(l+1)/x) j.  The value is 1 at k = 0.
    """
    R, m, offset = p.R, p.m, p.robin_offset
    m0_R = p.m0 * p.R
    lA, lB = sec.ell_upper, sec.ell_lower
    cA, cB = lA * (lA + 1.0), lB * (lB + 1.0)
    j_values = _sector_j(sec, j_pair_kernel(abs(sec.kappa_j) - 1))

    def at(k: float) -> Any:
        return None if k <= 0.0 else j_values(k * R)

    def values(k: float, at: Any) -> tuple[float]:
        if at is None:
            return (1.0,)
        jA, jB, djA, djB = at
        dA = k * djA + offset * jA
        dB = k * djB + offset * jB
        return (dA * dB + m * (dA * jB + dB * jA),)

    def value_slope(k: float) -> tuple[float, float]:
        if k <= 0.0:
            return 1.0, 0.0
        x = k * R
        jA, jB, djA, djB = j_values(x)
        dA = k * djA + offset * jA
        dB = k * djB + offset * jB
        jA_k, jB_k = R * djA, R * djB
        dA_k = m0_R * djA - (x - cA / x) * jA
        dB_k = m0_R * djB - (x - cB / x) * jB
        slope = dA_k * dB + dA * dB_k + m * (dA_k * jB + dA * jB_k + dB_k * jA + dB * jA_k)
        return dA * dB + m * (dA * jB + dB * jA), slope

    return at, values, (value_slope,)


# ----------------------------------------------------------------------------
# Scan-and-bracket driver
# ----------------------------------------------------------------------------


def _scan_roots(
    kernels: Kernels,
    grid: dict[float, Any],
    lo: float,
    hi: float,
    step: float,
    count: int,
    tol: ToleranceConfig,
    pooled: bool = False,
) -> list[list[float]]:
    """Walk [lo, hi] with the given step for all branches of ``kernels`` in
    lockstep, and Newton-solve each branch's sign changes; one list of roots
    per branch, each in (lo, hi], an exact 0 on a scan point once.

    ``grid`` holds the sector's Bessel pair (``at``) at scan points: a walk
    reads the pair there and evaluates it only where it is missing, adding
    it.  Each scan point reads every branch from one ``values`` call, and
    the polish reads the branch's value-and-slope function.  A branch takes
    roots until it holds ``count``, and the walk stops when every branch
    does; with ``pooled`` it stops after the step at which the branches
    together hold ``count``, so they hold the ``count`` lowest roots of all
    branches.  Raises if the window is exhausted first.
    """
    at, values, value_slopes = kernels
    copysign = math.copysign

    def pair_at(x: float) -> Any:
        if x not in grid:
            grid[x] = at(x)
        return grid[x]

    branches = range(len(value_slopes))
    roots: list[list[float]] = [[] for _ in branches]
    wanted = count if pooled else count * len(branches)
    found = 0
    x_prev = x = lo
    f_prev = values(lo, pair_at(lo))
    while x < hi and found < wanted:
        x = min(x_prev + step, hi)
        f_x = values(x, pair_at(x))
        for i in branches:
            u, v = f_prev[i], f_x[i]
            # A 0 at x_prev is no new root.
            if (v == 0.0 or (copysign(1.0, u) != copysign(1.0, v) and u != 0.0)) and (
                pooled or len(roots[i]) < count
            ):
                roots[i].append(x if v == 0.0 else find_root_bracketed(value_slopes[i], (x_prev, x), tol, (u, v))[0])
                found += 1
        x_prev, f_prev = x, f_x
    if found < wanted:
        raise BracketExhaustionError(f"found {found} of {wanted} eigenvalues", (lo, hi))
    return roots


def _scan_window(R: float, count: int, ell: int) -> tuple[float, float]:
    """Scan step and top radial wavenumber for the first ``count`` roots of a
    sector with largest orbital index ``ell`` (= |kappa_j|) on the ball of
    radius R, shared by the bag, large-mass and Robin solvers (each picks its
    own lower end)."""
    if count < 1 or count > 20:
        raise ValueError("count must be in [1, 20]")
    # The centrifugal barrier puts the first zero of j_l at
    # j_{nu,1} = nu + 1.8558 nu^(1/3) + O(nu^(-1/3)), nu = l + 1/2 (DLMF
    # 10.21.40), and later zeros are spaced ~pi/R.  For l <= 50 and count <= 20
    # the top stays more than 2/R above the count-th zero of j_l.
    return math.pi / (4.0 * R), (count + 3) * math.pi / R + 4.0 / R + (ell + 2.0 * ell ** (1.0 / 3.0)) / R


def _branch_roots(
    kernels: Callable[[DiracParams, AngularSector], Kernels],
    p: DiracParams,
    sec: AngularSector,
    count: int,
    tol: ToleranceConfig | None,
    pooled: bool = False,
    energy: bool = True,
    threshold: bool = False,
    conjugate: bool = False,
) -> list[list[float]]:
    """The roots of the branches of one sector: ``count`` per branch, or with
    ``pooled`` at least ``count`` in all, the lowest of all branches (see
    ``_scan_roots``), from the run's records where they answer the request
    and otherwise from one walk.

    With ``energy`` the scan runs in E > 0 from just above m0, two branches,
    +E and -E; with a ``threshold`` it stops just below m0 + m, and running
    out of roots there raises ``EssentialSpectrumError``.  Otherwise it runs
    in the wavenumber k > 0, one branch.

    A run keeps one record per branch, (roots, reach), under (kernels, p,
    sector, sign, tol): the ascending roots are every root of the branch up
    to reach, which a walk for ``count`` per branch sets to the branch's
    last root and a pooled walk to the highest root of either branch.  Only
    a record of greater reach replaces one.  Since the scan finds the lowest
    roots the same way whatever the count, the records answer a request per
    branch when each holds ``count`` roots, and a pooled one when both hold
    ``count`` up to the lesser reach.

    A run also keeps each scan grid, the sector's Bessel pair at every point
    a walk read, under what the pair depends on: the scan variable, R, m0
    and the orders (|kappa_j| for the energy scans; kappa_j for the Robin
    scan, which orders its pair as (l_A, l_B)).  The walks of a grid step
    from the same ``lo`` by the same step, so each reads the pairs an
    earlier walk of the run evaluated, bit for bit, whatever its mass.

    With ``conjugate`` the (kappa_j, -) determinant is that of (-kappa_j,
    +), or its negative, bit for bit in value and slope, so the (kappa_j, -)
    branch is kept under the (-kappa_j, +) key, and within a run one scan
    of kappa_j answers both sectors +-kappa_j.
    """
    R, m0, tol = p.R, p.m0, tol or ToleranceConfig()
    step, k_top = _scan_window(R, count, abs(sec.kappa_j))
    table = run_table()
    minus = (AngularSector(-sec.kappa_j), 1.0) if conjugate else (sec, -1.0)
    slots = ((_branch_roots, kernels, p, sec, 1.0, tol), (_branch_roots, kernels, p, *minus, tol))[: 2 if energy else 1]
    records = [table.get(slot, ((), 0.0)) for slot in slots]
    if pooled:
        reach = min(reach for _, reach in records)
        held = sum(bisect_right(roots, reach) for roots, _ in records)
    else:
        held = min(len(roots) for roots, _ in records)
    if held >= count:
        return [list(roots) for roots, _ in records]
    lo = m0 + max(1e-9, 1e-9 * m0) if energy else 1e-9 / R
    stop = (m0 + p.m) * (1.0 - 1e-12) if threshold else math.inf
    hi = min(math.sqrt(m0**2 + k_top**2), stop) if energy else k_top
    grid = table.setdefault((_scan_roots, energy, R, m0, abs(sec.kappa_j) if energy else sec.kappa_j), {})
    try:
        found = _scan_roots(kernels(p, sec), grid, lo, hi, step, count, tol, pooled)
    except BracketExhaustionError as exc:
        if hi != stop:
            raise
        raise EssentialSpectrumError(f"search window reached the essential spectrum at {m0 + p.m}") from exc
    top = max(roots[-1] for roots in found if roots) if pooled else 0.0
    for slot, roots, (_, reach) in zip(slots, found, records):
        new_reach = top if pooled else roots[-1]
        if new_reach > reach:
            table[slot] = (tuple(roots), new_reach)
    return found


def _signed_spectrum(
    kernels: Callable[[DiracParams, AngularSector], Kernels],
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None,
    threshold: bool = False,
    conjugate: bool = False,
) -> list[tuple[float, AngularSector]]:
    """The first count roots of each sign per sector as (E, sector) pairs,
    sorted by |E|; ``kernels(p, sector)`` gives the sector's determinant at
    energies +E and -E as functions of E > 0.  One lockstep scan serves both
    branches of a sector (see ``_branch_roots``)."""
    entries: list[tuple[float, AngularSector]] = []
    for sec in sectors:
        plus, minus = _branch_roots(kernels, p, sec, count_per_side, tol, threshold=threshold, conjugate=conjugate)
        entries.extend((e, sec) for e in plus[:count_per_side])
        entries.extend((-e, sec) for e in minus[:count_per_side])
    entries.sort(key=lambda t: (abs(t[0]), t[0] < 0, t[1].kappa_j))
    return entries


def mit_spectrum_signed(
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None = None,
) -> list[tuple[float, AngularSector]]:
    """Signed bag eigenvalues: the first count roots of each sign per sector."""
    return _signed_spectrum(_mit_kernels, p, sectors, count_per_side, tol, conjugate=p.m0 == 0.0)


def mit_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> list[float]:
    """First ``count`` singular values (eigenvalues of |H|) in one sector.

    Positive and negative bag eigenvalues of the sector are merged by
    absolute value; the exterior mass jump in ``p`` is ignored.
    """
    plus, minus = _branch_roots(_mit_kernels, p, sector, count, tol, pooled=True, conjugate=p.m0 == 0.0)
    return sorted(plus + minus)[:count]


def largemass_spectrum_signed(
    p: DiracParams,
    sectors: Iterable[AngularSector],
    count_per_side: int,
    tol: ToleranceConfig | None = None,
) -> list[tuple[float, AngularSector]]:
    """Signed eigenvalues of the large-mass operator below the threshold m0+m."""
    if p.m <= 0.0:
        raise ValueError("the large-mass solver needs m > 0")
    return _signed_spectrum(_largemass_kernels, p, sectors, count_per_side, tol, threshold=True)


def largemass_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> list[float]:
    """First ``count`` singular values of the large-mass operator in one
    sector, below the threshold m0+m; refused only when the sector has fewer
    than ``count`` levels there, of both signs together."""
    if p.m <= 0.0:
        raise ValueError("the large-mass solver needs m > 0")
    plus, minus = _branch_roots(_largemass_kernels, p, sector, count, tol, pooled=True, threshold=True)
    return sorted(plus + minus)[:count]


def robin_laplacian_eigenvalues(
    p: DiracParams,
    sector: AngularSector,
    count: int,
    tol: ToleranceConfig | None = None,
) -> list[float]:
    """First ``count`` eigenvalues of the Robin-type interior Laplacian in a sector.

    Roots are found in the radial wavenumber kk (lambda_int = m0^2 + kk^2);
    the 2m-weighted boundary row makes the first root sit just below the
    squared bag eigenvalue, which it reaches as m -> infinity.  The scan is
    the one-branch case of the lockstep driver.
    """
    if p.m <= 0.0:
        raise ValueError("the Robin solver needs m > 0")
    (roots,) = _branch_roots(_robin_kernels, p, sector, count, tol, energy=False)
    return [p.m0**2 + k * k for k in roots[:count]]


# ----------------------------------------------------------------------------
# Eigenpair construction
# ----------------------------------------------------------------------------

def _interior_norm_sq(
    R: float, sector: AngularSector, k: float, c_up: float, c_lo: float, j: tuple[float, float, float, float]
) -> float:
    """Squared L^2 norm of (c_up j_{l_A}(k r), c_lo j_{l_B}(k r)) over the
    ball, by Lommel's integral (DLMF 10.22.5, nu = l + 1/2) at x = kR, with
    ``j`` = (j_{l_A}, j_{l_B}, j_{l_A}', j_{l_B}') there (``_j_pair``):

        int_0^x t^2 j_l^2 dt = (x^3/2) [(j_l' + j_l/(2x))^2 + (1 - (l + 1/2)^2/x^2) j_l^2].

    The bracket cancels below x ~ l + 1/2 (the integral is O(x^{2l+3}), its
    terms O(x^{2l+1})); every solved level sits above 1.05 (l + 1/2)."""
    x = k * R
    jA, jB, djA, djB = j

    def bracket(ell: int, j: float, dj: float) -> float:
        return (dj + 0.5 / x * j) ** 2 + (1.0 - ((ell + 0.5) / x) ** 2) * j * j

    up, lo = bracket(sector.ell_upper, jA, djA), bracket(sector.ell_lower, jB, djB)
    return 0.5 * R**3 * (c_up * c_up * up + c_lo * c_lo * lo)  # x^3 / k^3 = R^3


def _eigenpair(
    p: DiracParams,
    sector: AngularSector,
    energy: float,
    k: float,
    c_up: float,
    c_lo: float,
    tail_mass: float = 0.0,
) -> RadialEigenpair:
    """Unit-norm pair (c_up j_{l_A}(k r), c_lo j_{l_B}(k r)) from unnormalized coefficients.

    ``tail_mass`` is the mass of an exterior continuation per unit f(R)^2;
    it is part of the normalization.
    """
    j = _j_pair(sector, k * p.R)
    jA, jB, djA, djB = j
    norm = math.sqrt(_interior_norm_sq(p.R, sector, k, c_up, c_lo, j) + (c_up * jA) ** 2 * tail_mass)
    c_up, c_lo = c_up / norm, c_lo / norm
    fR = c_up * jA
    return RadialEigenpair(
        energy=energy,
        sector=sector,
        R=p.R,
        boundary_values=(fR, c_lo * jB, c_up * k * djA, c_lo * k * djB),
        radial_params=(k, c_up, c_lo),
        exterior_norm_sq=fR * fR * tail_mass,
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
    return _eigenpair(p, sector, E, k, 1.0, sector.sign * k / (E + p.m0))


def largemass_eigenpair(
    p: DiracParams,
    sector: AngularSector,
    energy: float,
) -> RadialEigenpair:
    """Normalized large-mass eigenfunction, exterior tail included.

    The tail mass is O(1/m) but shifts first-order quantities at the percent
    level, so it is part of the unit normalization.
    """
    E = float(energy)
    M = p.m0 + p.m
    if not (p.m0 < abs(E) < M):
        raise ValueError("large-mass eigenvalues satisfy m0 < |E| < m0 + m")
    k = math.sqrt(E * E - p.m0 * p.m0)
    q = math.sqrt(M * M - E * E)
    # The tail is f = k_{l_A}(q r)/k_{l_A}(q R) and g = -q/(E + M) k_{l_B}(q r)/k_{l_A}(q R).
    x = _checked(q * p.R)
    lo, hi = ek_pair_kernel(abs(sector.kappa_j) - 1)(x)
    ekA, ekB = (hi, lo) if sector.kappa_j > 0 else (lo, hi)
    g_ratio = q / (E + M) * ekB / ekA
    tail_mass = p.R**2 * (
        ball_mode_mass(q, p.R, sector.ell_upper) + g_ratio**2 * ball_mode_mass(q, p.R, sector.ell_lower)
    )
    return _eigenpair(p, sector, E, k, 1.0, sector.sign * k / (E + p.m0), tail_mass)


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
    jA, jB, djA, djB = _j_pair(sector, k * p.R)
    dA, dB = k * djA + p.robin_offset * jA, k * djB + p.robin_offset * jB
    # Null vector of the two boundary rows; pick the better-conditioned row.
    row1 = (dA, -dB)
    row2 = (dA + 2.0 * p.m * jA, dB + 2.0 * p.m * jB)
    if math.hypot(*row1) >= math.hypot(*row2):
        cA, cB = dB, dA
    else:
        cA, cB = row2[1], -row2[0]
    return _eigenpair(p, sector, lam_int, k, cA, cB)


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
) -> list[float]:
    """Sorted eigenvalues of the eta form on an orthonormal eigenspace.

    Distinct entries of one sector stand for distinct azimuthal copies; all
    three boundary integrals are angularly diagonal, so the form is diagonal
    in this basis and its min-max values are the per-function eta values,
    sorted.  Non-orthonormal input (normalization or shared eigenvalue off by
    more than 1e-6, more copies than a sector holds) is rejected.
    """
    if not eigenspace:
        raise ValueError("eigenspace must be nonempty")
    per_sector: dict[int, int] = {}
    for u in eigenspace:
        if abs(u.norm_sq() - 1.0) > 1e-6:
            raise ValueError("eigenspace entries must be L^2-normalized")
        if abs(abs(u.energy) - abs(lam)) > 1e-6 * max(1.0, abs(lam)):
            raise ValueError("eigenspace entries must share the eigenvalue")
        per_sector[u.sector.kappa_j] = per_sector.get(u.sector.kappa_j, 0) + 1
        if per_sector[u.sector.kappa_j] > u.sector.degeneracy:
            raise ValueError("more copies than the sector degeneracy allows")
    return sorted(eta_functional(u, lam, p) for u in eigenspace)


def _interior_product(u_int: RadialEigenpair, u_mit: RadialEigenpair, R: float) -> float:
    """<u_int, u_mit> over the ball of radius R (one sector) by the rule of
    ``boundary_identity_check``, each node's two sector orders from one call
    of the sector's pair kernel, summed by math.fsum."""
    (k_int, c_up, c_lo), (k_mit, d_up, d_lo) = u_int.radial_params, u_mit.radial_params
    kR = max(_checked(k_int * R), _checked(k_mit * R))
    r, w = panel_nodes(0.0, R, max_panel=R / math.ceil(kR / 2.0))
    pair = j_pair_kernel(abs(u_int.sector.kappa_j) - 1)  # (j_n, j_{n+1}), as in _sector_j
    upper_is_hi = u_int.sector.kappa_j > 0  # l_A = n + 1
    (c_n, c_n1), (d_n, d_n1) = ((c_lo, c_up), (d_lo, d_up)) if upper_is_hi else ((c_up, c_lo), (d_up, d_lo))
    terms = []
    for x, wx in zip(r.tolist(), w.tolist()):
        (a, b), (f, g) = pair(k_int * x), pair(k_mit * x)
        terms.append(wx * (c_n * a * (d_n * f) + c_n1 * b * (d_n1 * g)) * (x * x))
    return math.fsum(terms)


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
    matching sectors the residual measures solver error only.  The interior
    product is a quadrature, a route independent of Lommel's closed form:
    16-point Gauss-Legendre on ceil(R k / 2) equal panels, k the larger
    wavenumber.  On each panel of half-length h the integrand is entire, of
    exponential type at most 2 in the panel's variable t in [-1, 1], so with
    |f(t)| <= M e^{2|t|} the rule, exact through degree 31, errs by at most
    4 h M sum_{n >= 32} (2e/n)^n < 1e-24 h M (Cauchy's estimate of the
    Taylor tail; Trefethen, SIAM Rev. 50, 2008): below rounding.
    """
    if u_int.sector.kappa_j != u_mit.sector.kappa_j:
        return 0.0
    lam = abs(u_mit.energy)
    lhs = m * (u_int.energy - lam * lam) * _interior_product(u_int, u_mit, p.R)
    Da, Db = _robin_traces(u_int, p)
    Df, Dg = _robin_traces(u_mit, p)
    rhs = -0.5 * p.R**2 * (Da * Df + Db * Dg)
    denom = abs(lhs) + abs(rhs)
    if denom == 0.0:
        return 0.0
    return abs(lhs - rhs) / denom


def charge_conjugation_check(signed: Sequence[tuple[float, AngularSector]]) -> float:
    """Largest pairing gap between a signed spectrum, as (E, sector) pairs,
    and its sign-flipped image.

    Zero (to solver tolerance) certifies the charge-conjugation symmetry of
    the spectrum; an empty spectrum has defect 0.  A level E pairs with the
    levels E2 where E2 * E < 0.0, so a zero, infinite or NaN level, or one
    whose products with all opposite levels underflow, makes the defect inf.
    """
    energies = [e for e, _ in signed]
    if not energies:
        return 0.0
    # Each sign's magnitudes, sorted.  The opposite levels that pair with E
    # are those whose product with |E| does not underflow, a suffix of the
    # sorted magnitudes, and the nearest of them to |E| are its neighbours
    # there: |E + E2| = |(|E| - |E2|)| in floats, monotone either side.
    positive = sorted(e for e in energies if e > 0.0)
    negative = sorted(-e for e in energies if e < 0.0)
    defect = 0.0
    for e in energies:
        if not (e != 0.0 and math.isfinite(e)):
            return math.inf
        a = abs(e)
        opposite = negative if e > 0.0 else positive
        first = bisect_left(opposite, True, key=lambda b: b * a > 0.0)
        at = bisect_left(opposite, a, lo=first)
        near = opposite[max(at - 1, first):at + 1]
        if not near:
            return math.inf
        defect = max(defect, min(abs(a - b) for b in near))
    return defect
