"""The one-dimensional transverse optimization problem on the rescaled collar.

For a mass m and pointwise curvatures (kappa, K), the boundary-layer profile
in the normal direction minimizes

    Q(u) = int_0^sqrt(m) (|u'|^2 + |u|^2) a(tau) dtau,
    a(tau) = 1 + kappa tau / m + K tau^2 / m^2,

over u with u(0) = 1, u(sqrt(m)) = 0.  The minimizer solves

    L u = -u'' - (a'/a) u' + u = 0

and the minimum value equals -u'(0).  Its large-m expansion

    Lambda = sum_n c_n m^-n = 1 + kappa/(2m) + (K/2 - kappa^2/8)/m^2 + O(m^-3)

has exact coefficients (Bender & Orszag, "Advanced Mathematical Methods",
1978, ch. 10): v = a u'/u solves v' = a - v^2/a with Lambda = -v(0), and in
powers of 1/m, from v_0 = -1, each order solves v_n' - 2 v_n = S_n (S_n a
polynomial in tau from the lower orders) by v_n = -sum_j S_n^(j) / 2^(j+1),
the solution that does not grow like e^{2 tau}.  So c_n = -v_n(0) =
sum_b t[n][b] kappa^(n-2b) K^b with dyadic t[n][b] (``_SERIES``, n <= 12).
tau -> sqrt(lam) tau maps (a u')' = lam a u to the equation at the mass
m sqrt(lam), so the weighted mass dLambda/dlam at lam = 1 has the
coefficients (1 - n) c_n / 2.  The series omits the collar's end,
coth(sqrt(m)) - 1 on the flat model: 8.5e-18 at ``SERIES_FLOOR`` = 400.
The formal profiles u0 = e^{-tau}, u1 = -(kappa/2) tau e^{-tau},
u2 = (kappa^2/8 - K/2) tau e^{-tau} + (3 kappa^2/8 - K/2) tau^2 e^{-tau} give
its first three terms; the cutoff ansatz chi_m (u0 + u1/m + u2/m^2) leaves an
O(m^-3) residual in the weighted L^2 norm, which the verification suite measures.

Numerics: the equation (a u')' = a u is solved by Taylor series.  a is a
quadratic polynomial, so at a centre c, with a(c + t) = a0 + a1 t + a2 t^2,
the profile u and its flux w = a u' are power series in t whose coefficients
(and those, p_n, of u') follow three-term recurrences

    (n + 1) w_{n+1} = a0 u_n + a1 u_{n-1} + a2 u_{n-2},
    a0 p_n = w_n - a1 p_{n-1} - a2 p_{n-2},    u_{n+1} = p_n / (n + 1)

(van der Hoeven, "Fast evaluation of holonomic functions", TCS 210, 1999;
Mezzarobba, "NumGfun", ISSAC 2010).  One recurrence runs over the segments
(``_segments``) of all problems: a segment's series at its right end, from
(u, w) = (1, 0) and (0, 1) and summed at t = -h, is its transfer of (u, w)
to its left end.  A sweep carries g = -u/w from 0 at the end of the kept
collar back to 0, the stable direction, and Lambda = 1/g(0): by parts,
Q(u) = -w(0) for u(0) = 1.  The weighted mass needs no quadrature: by
Hellmann-Feynman it is dLambda/dlam for (a u')' = lam a u at lam = 1, and
lam enters only the recurrence of w, so the recurrence and the sweep carry
the lam-derivatives too.  Every step is an elementwise +, -, x or /, so a
problem's bits depend neither on the problems stacked with it nor on the
BLAS library or the CPU.

The tail.  A segment spans at most a quarter of the distance rho from the
collar to the nearest complex zero of a, so Cauchy's estimate on the circle
of radius 4h bounds the n-th term at t = -h by M 4^-n, M the largest
|(u, w)| on that circle.  The solutions grow like e^{|t|} (exactly so on the
flat collar; the curvature changes the rate by O(rho^-2)), so M is about
e^{3h} <= e^{12} times the values at t = -h, and 4^-n e^{12} <= 2^-60 from
n = 39: SERIES_TERMS = 40.  A solve raises ``SeriesTailError`` where the
last two terms of a series are not below 2^-60 of its values.

The cut.  A function that vanishes beyond t is admissible on (0, sqrt(m)),
so the minimum Lambda_t over such functions, which the sweep computes when
it starts at t, is >= Lambda.  Its excess is below rounding.  Let
E(t) = int_t^sqrt(m) (|u'|^2 + |u|^2) a for the minimizer u (positive and
decreasing).  The equation gives E(t) = -a u u'(t)
<= a (u^2 + u'^2)(t) / 2 = -E'(t) / 2, so E(t) <= Lambda e^{-2t}, and
u(t)^2 = -int_t 2 u u' <= E(t) / min a <= 2 Lambda e^{-2t} for a >= 1/2.  The
admissible w = u - u(t) sinh(tau) / sinh(t) on [0, t] (0 beyond) has
Q(w) = Lambda + E(t) + u(t)^2 int_0^t a cosh(2 tau) / sinh(t)^2, and a <= 3/2 on
a valid collar (1 - |kappa|/sqrt(m) - |K|/m >= 1/2), so

    Lambda_t - Lambda <= Lambda e^{-2t} (1 + 3 coth t).

TAU_CUT is the first multiple of the longest segment at which this is
<= 2^-60 Lambda: 24, where it is 5.7e-21 Lambda (~2^-67).  Every kept
collar ends at tau_end >= min(sqrt(m), TAU_CUT), and on the flat model the
excess is exactly coth tau_end - coth sqrt(m) < coth 24 - 1 = 2.9e-21.  The
kept segments are those of the uncut collar, at most 7 a problem away from
the validity floor.

The validity floor.  a(tau) is the volume weight 1 + t kappa + t^2 K of a
surface's collar at depth t = tau / m, with kappa the mean curvature (trace
of the shape operator) and K the Gauss curvature (its determinant), and
every transverse formula holds while a >= 1/2 on the collar.  Why one corner
binds: at every tau >= 0, a is nondecreasing in kappa and in K, so over the
curvatures bounded by (|kappa|, |K|) in modulus it is least at the corner
(-|kappa|, -|K|).  There it is nonincreasing in tau, so the least weight
on the collar is at its end tau = sqrt(m):

    min a = 1 - |kappa|/sqrt(m) - |K|/m    (``min_rescaled_weight``),

which is >= 1/2 exactly from sqrt(m) >= |kappa| + sqrt(kappa^2 + 2|K|)
(``collar_is_valid``).  A problem checks this floor when it is built, and
its mass too (finite, positive, m**2 finite and not 0), so every problem can
be solved; a solution is a plain value, its profile evaluated from its own
segment ends, values and fluxes, and 0 past tau_end.

Quadrature.  ``transverse_form`` and ``residual_of_ansatz`` integrate on
the collar rule: 16-point Gauss panels on [0, T/2] and [T/2, T], T = sqrt(m),
no longer than a series segment.  So the cutoff's C^2 joins are panel ends,
every integrand is analytic near each panel, and the rule converges
geometrically (Trefethen, SIAM Rev. 50, 2008): one four times finer moves
no suite value by more than 1e-13.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .numerics import NumericsError, libm, panel_nodes

# Series segments: the longest segment, and the largest share of the
# distance from the collar to the nearest complex zero of a that one spans.
ELEMENT_PANEL = 4.0
ZERO_FRACTION = 0.25

# Taylor terms of every series, and the share of its values below which
# its last two terms must fall (see the module docstring).
SERIES_TERMS = 40
SERIES_TAIL = 2.0**-60

# The collar's cut: the first multiple of the longest segment at which the
# excess bound e^{-2t} (1 + 3 coth t) of the module docstring is <= 2^-60.
TAU_CUT = next(
    t for t in itertools.count(ELEMENT_PANEL, ELEMENT_PANEL) if math.exp(-2.0 * t) * (1.0 + 3.0 / math.tanh(t)) <= 2.0**-60
)


# The masses from which the expansion in 1/m holds to rounding (module docstring).
SERIES_FLOOR = 400.0

# t[n][b], the coefficient of kappa^(n-2b) K^b in c_n (module docstring).
_SERIES = (
    (1.0,),
    (1 / 2,),
    (-1 / 8, 1 / 2),
    (1 / 8, -1 / 2),
    (-25 / 128, 15 / 16, -5 / 8),
    (13 / 32, -37 / 16, 11 / 4),
    (-1073 / 1024, 1775 / 256, -751 / 64, 49 / 16),
    (103 / 32, -1557 / 64, 213 / 4, -119 / 4),
    (-375733 / 2**15, 199847 / 2**11, -268043 / 1024, 29115 / 128, -4029 / 128),
    (23797 / 512, -28169 / 64, 89439 / 64, -26501 / 16, 536.0),
    (-55384775 / 2**18, 144488955 / 2**16, -66238455 / 2**13, 24920695 / 2**11, -6610395 / 1024, 141735 / 256),
    (2180461 / 2**11, -12434665 / 1024, 6466045 / 128, -23625485 / 256, 2212895 / 32, -233693 / 16),
    (-24713030909 / 2**22, 38242345081 / 2**19, -88969479687 / 2**18, 11958144987 / 2**14, -11664510107 / 2**14,
     522507681 / 2**11, -15264769 / 1024),
)


class SeriesTailError(NumericsError):
    """A Taylor series whose last terms are not below ``SERIES_TAIL`` of its values."""


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


def min_rescaled_weight(curv: CurvatureData, m: float) -> float:
    """Least collar weight over tau in [0, sqrt(m)] and the curvatures bounded
    by ``curv`` in modulus: the corner (-|kappa|, -|K|) at tau = sqrt(m).

    Rounding is monotone in each operand, so the computed corner value is
    also the least of the computed weights at the other corners and depths.
    """
    if not (math.isfinite(m) and m > 0.0 and m * m > 0.0):
        raise ValueError(f"m must be positive, with m*m in the collar weight not 0, got {m!r}")
    T = math.sqrt(m)
    return 1.0 - abs(curv.kappa) * T / m - abs(curv.gauss) * T * T / (m * m)


def collar_is_valid(curv: CurvatureData, m: float) -> bool:
    """The validity floor of every transverse problem: the collar weight stays
    >= 1/2 at mass m, up to rounding (1e-12), so the exact floor is valid."""
    return min_rescaled_weight(curv, m) >= 0.5 - 1e-12


def _weight_taylor(
    kappa: float | np.ndarray, gauss: float | np.ndarray, m: float | np.ndarray, m2: float | np.ndarray, c: np.ndarray
) -> tuple:
    """a(c + t) = a0 + a1 t + a2 t^2 at centres c, a0 = 1 + kappa c / m + K c^2 / m2
    with m2 = m**2 (Python's power, not numpy's square, as the two can round
    differently); the parameters broadcast against c."""
    return 1.0 + kappa * c / m + gauss * c**2 / m2, kappa / m + 2.0 * gauss * c / m2, gauss / m2


@dataclass(frozen=True)
class TransverseProblem:
    """Mass and pointwise curvature pair.  Construction refuses a mass whose square
    overflows or underflows to 0 (the weight divides by m**2) and one whose weight
    falls below the validity floor (``collar_is_valid``), so every problem can be solved."""

    m: float
    curv: CurvatureData

    def __post_init__(self) -> None:
        if not collar_is_valid(self.curv, self.m):  # which refuses a mass not finite and positive, or m*m == 0
            raise ValueError(
                f"m={self.m} is below the validity floor for curvatures "
                f"(kappa={self.curv.kappa}, K={self.curv.gauss})"
            )
        try:
            self.m**2  # as the weight forms it; a Python float power raises on overflow
        except OverflowError:
            raise ValueError(f"m={self.m} is too large: m**2 in the collar weight overflows") from None

    def weight(self, tau: np.ndarray) -> np.ndarray:
        return _weight_taylor(self.curv.kappa, self.curv.gauss, self.m, self.m**2, np.asarray(tau, dtype=float))[0]

    @property
    def half_width(self) -> float:
        return math.sqrt(self.m)


def _taylor_terms(a: tuple, h: float | np.ndarray, u: float | np.ndarray, w: float | np.ndarray,
                  lam_rows: bool = False) -> Iterator[tuple]:
    """Terms n = 1 .. SERIES_TERMS of the series of u and w from the values u, w
    at a centre where a has the coefficients ``a``, scaled by (-h)^n so that
    they sum to the solution at t = -h (h = -1: the plain coefficients).  With
    ``lam_rows``, the rows of u and w are values, then their lam-derivatives."""
    a0, a1, a2 = a
    s = -h
    w_coef = (s * a0, s * s * a1, s * s * s * a2)
    p_coef = (s / a0, s * a1 / a0, s * s * a2 / a0)
    u1 = u2 = p1 = p2 = 0.0 * u
    half = len(u) // 2 if lam_rows else 0
    for n in range(1, SERIES_TERMS + 1):
        p = p_coef[0] * w - p_coef[1] * p1 - p_coef[2] * p2
        w_next = (w_coef[0] * u + w_coef[1] * u1 + w_coef[2] * u2) / n
        if lam_rows:
            w_next[half:] += w_next[:half]
        u_next = p / n
        yield u_next, w_next
        u2, u1, u, w, p2, p1 = u1, u, u_next, w_next, p1, p


def _longest_segment(kappa: np.ndarray, gauss: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Each collar's longest series segment and quadrature panel, elementwise:
    ELEMENT_PANEL, or ZERO_FRACTION of the distance from [0, sqrt(m)] to a's
    nearest complex zero if less.  The zeros are m q / K and m / q, q = -(kappa
    + sqrt(kappa^2 - 4K)) / 2 with the root's sign against cancellation
    (-m / kappa if K = 0)."""
    root = np.sqrt((kappa * kappa - 4.0 * gauss).astype(complex))
    q = -0.5 * (kappa + np.where(kappa * root.real >= 0.0, root, -root))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        zeros = m * np.array([q / gauss, 1.0 / q])
        dist = np.abs(zeros - np.clip(zeros.real, 0.0, np.sqrt(m)))
    return np.minimum(ELEMENT_PANEL, ZERO_FRACTION * np.fmin(np.fmin(*dist), np.inf))  # fmin: NaN is no zero


def _segments(kappa: np.ndarray, gauss: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each collar's kept segments, elementwise: their number, length h and
    end.  Of the fewest equal segments n of [0, sqrt(m)] no longer than
    ``_longest_segment``, the first min(n, ceil(TAU_CUT / h)) are kept (all n
    if sqrt(m) <= TAU_CUT): the cut keeps the uncut collar's segments."""
    T = np.sqrt(m)
    n = np.maximum(np.ceil(T / _longest_segment(kappa, gauss, m)), 1.0)
    h = T / n
    kept = np.where(T <= TAU_CUT, n, np.minimum(n, np.ceil(TAU_CUT / h)))
    return kept.astype(int), h, np.where(kept == n, T, kept * h)


@dataclass(frozen=True)
class TransverseSolution:
    """Minimizer of one problem: its energy ``lam`` (the flux -w(0)), its
    weighted mass, and its profile on the kept segments.  ``tau`` holds the
    segment ends 0 = tau[0] < ... < tau[-1] = tau_end, ``u`` and ``flux`` the
    values of u and of w = a u' there, with the boundary data u[0] = 1 and
    u[-1] = 0 held exactly.  A cut collar (tau[-1] < sqrt(m)) has the profile
    0 on (tau[-1], sqrt(m)]."""

    lam: float
    mass: float
    problem: TransverseProblem
    tau: tuple[float, ...]
    u: tuple[float, ...]
    flux: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and self.mass > 0.0):
            raise ValueError("energy and mass of a transverse minimizer are positive")

    @property
    def half_width(self) -> float:
        return self.problem.half_width

    def evaluate(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile value and derivative at points of the collar [0, half_width]:
        the series at the nearest segment end, from its value and flux (so a
        segment end gets them back), and 0 past tau[-1], the zero extension
        whose energy is ``lam``.  A point outside the collar (NaN too) raises."""
        t = np.asarray(tau, dtype=float)
        flat_t = t.ravel()
        if not np.all((flat_t >= 0.0) & (flat_t <= self.half_width)):
            raise ValueError(f"evaluation points must lie in the collar [0, {self.half_width}]")
        ends = np.array(self.tau)
        kept = flat_t <= ends[-1]
        x = flat_t[kept]
        nearest = np.searchsorted(0.5 * (ends[:-1] + ends[1:]), x)
        p = self.problem
        a0, a1, a2 = _weight_taylor(p.curv.kappa, p.curv.gauss, p.m, p.m**2, ends)
        nodes = zip(a0.tolist(), a1.tolist(), itertools.repeat(a2), self.u, self.flux)
        series = [[(u0, w0), *_taylor_terms(a, -1.0, u0, w0)] for *a, u0, w0 in nodes]
        coef = np.array(series).transpose(1, 2, 0)[..., nearest]  # (term, u or w, point)
        dt = x - ends[nearest]
        acc = coef[-1].copy()
        for c in coef[-2::-1]:  # Horner
            acc *= dt
            acc += c
        value, deriv = np.zeros((2, len(flat_t)))
        value[kept] = acc[0]
        deriv[kept] = acc[1] / p.weight(x)
        return value.reshape(t.shape), deriv.reshape(t.shape)


def solve_transverse(problems: Sequence[TransverseProblem]) -> list[TransverseSolution]:
    """Solve each problem by Taylor series (module docstring); return energy,
    mass and profile in input order.  One recurrence runs over the segments of
    all problems whatever their masses, and one sweep over their transfers;
    each problem's solution is bit for bit that of its lone solve.  A series
    whose tail is not below rounding raises ``SeriesTailError``."""
    if not problems:
        return []
    params = np.array([(p.curv.kappa, p.curv.gauss, p.m, p.m**2) for p in problems]).T
    kept, h, end = _segments(*params[:3])
    order = np.argsort(-kept, kind="stable")
    # Segment i is the step[i]-th from the end of problem owner[i], the
    # slot[i]-th of the sweep, and the j[i]-th from its collar's start.
    step, slot = np.nonzero(kept[order][None, :] > np.arange(kept.max())[:, None])
    owner = order[slot]
    j = kept[owner] - 1 - step
    left = j * h[owner]
    right = np.where(step == 0, end[owner], (j + 1) * h[owner])

    # Transfers: rows u and w of the columns (1, 0) and (0, 1), then their
    # lam-derivatives, summed at the left end.  Coefficient rows as long as
    # the term rows, as numpy broadcasts slower.
    a = [np.broadcast_to(c, (4, len(owner))).copy() for c in _weight_taylor(*params[:, owner], right)]
    width = np.broadcast_to(right - left, (4, len(owner))).copy()
    sums = np.zeros((2, 4, len(owner)))
    sums[0, 0] = sums[1, 1] = 1.0
    last = []  # the last two terms of u and w
    for u_term, w_term in _taylor_terms(a, width, sums[0].copy(), sums[1].copy(), lam_rows=True):
        sums[0] += u_term
        sums[1] += w_term
        last = [*last[-2:], u_term, w_term]
    bad = ~(sum(np.abs(t) for t in last) <= SERIES_TAIL * (np.abs(sums[0]) + np.abs(sums[1])))  # NaN too
    if bad.any():
        p = problems[owner[np.nonzero(bad)[1][0]]]
        raise SeriesTailError(f"the Taylor series of m={p.m}, (kappa, K)=({p.curv.kappa}, {p.curv.gauss}) has "
                              f"a tail above {SERIES_TAIL} of its values after {SERIES_TERMS} terms")
    (uu, uw, du_u, du_w), (wu, ww, dw_u, dw_w) = sums

    # The sweep, in slot order: g = -u/w at each segment's left end from (g, -1)
    # at its right end, and dg its lam-derivative; g = dg = 0 at the collar's end.
    g, dg = np.zeros((2, len(problems)))
    g_left, w_left = np.empty((2, len(owner)))
    bounds = np.searchsorted(step, np.arange(kept.max() + 1)).tolist()
    for s0, s1 in zip(bounds[:-1], bounds[1:]):
        seg, c = slice(s0, s1), s1 - s0
        U, W = uu[seg] * g[:c] - uw[seg], wu[seg] * g[:c] - ww[seg]
        dU = du_u[seg] * g[:c] - du_w[seg] + uu[seg] * dg[:c]
        dW = dw_u[seg] * g[:c] - dw_w[seg] + wu[seg] * dg[:c]
        g[:c] = -U / W
        dg[:c] = -(dU + g[:c] * dW) / W
        g_left[seg], w_left[seg] = g[:c], W
    lam = 1.0 / g
    mass = -dg * lam * lam

    # Back from 0, where w = -lam: w = -scale at each segment end, and u = g scale.
    scale = lam.copy()
    w_start = np.empty(len(owner))
    for s0, s1 in zip(bounds[-2::-1], bounds[:0:-1]):
        w_start[s0:s1] = -scale[: s1 - s0]
        scale[: s1 - s0] /= -w_left[s0:s1]

    # Each problem's segment ends, values and fluxes, from the start.
    first = np.concatenate([[0], np.cumsum(kept)])
    by_problem = np.empty(len(owner), dtype=int)
    by_problem[first[owner] + j] = np.arange(len(owner))
    tau_of, u_of, flux_of = (x[by_problem].tolist() for x in (left, -g_left * w_start, w_start))
    first, end = first.tolist(), end.tolist()
    solved = [None] * len(problems)
    for k, lam_k, mass_k, flux_end in zip(order.tolist(), lam.tolist(), mass.tolist(), (-scale).tolist()):
        seg = slice(first[k], first[k + 1])
        solved[k] = TransverseSolution(lam=lam_k, mass=mass_k, problem=problems[k], tau=(*tau_of[seg], end[k]),
                                       u=(1.0, *u_of[seg][1:], 0.0), flux=(*flux_of[seg], flux_end))
    return solved


def expansion_coefficients(curv: CurvatureData) -> tuple[float, ...]:
    """c_0 .. c_12 of Lambda = sum_n c_n m^-n at the curvatures ``curv``; the
    weighted mass has the coefficients (1 - n) c_n / 2 (module docstring)."""
    kappa, K = curv.kappa, curv.gauss
    return tuple(sum(t * kappa ** (n - 2 * b) * K**b for b, t in enumerate(row)) for n, row in enumerate(_SERIES))


def expansion_lambda(p: TransverseProblem) -> float:
    """Second-order large-mass expansion 1 + kappa/(2m) + (K/2 - kappa^2/8)/m^2."""
    kappa, K, m = p.curv.kappa, p.curv.gauss, p.m
    return 1.0 + kappa / (2.0 * m) + (K / 2.0 - kappa**2 / 8.0) / m**2


def _cutoff(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi(s) = 1 on [0, 1/2], 0 on [1, inf), with the C^2 smoothstep
    1 - t^3 (10 - 15 t + 6 t^2), t = 2s - 1, between; and chi', chi''."""
    t = np.clip(2.0 * s - 1.0, 0.0, 1.0)  # so the plateaus come out exactly
    chi = 1.0 - t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    return chi, -2.0 * (30.0 * t**2 * (1.0 - t) ** 2), -4.0 * (60.0 * t * (1.0 - t) * (1.0 - 2.0 * t))


def _ansatz_poly(p: TransverseProblem) -> tuple[float, float, float]:
    # The formal profiles of the module docstring, summed:
    # u0 + u1/m + u2/m^2 = (c0 + c1 tau + c2 tau^2) e^{-tau}
    kappa, K, m = p.curv.kappa, p.curv.gauss, p.m
    return 1.0, -kappa / (2.0 * m) + (kappa**2 / 8.0 - K / 2.0) / m**2, (3.0 * kappa**2 / 8.0 - K / 2.0) / m**2


def _collar_rule(problems: Sequence[TransverseProblem]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The problems' collar rules (module docstring), stacked: nodes, weights, node counts."""
    longest = _longest_segment(*np.array([(p.curv.kappa, p.curv.gauss, p.m) for p in problems]).T).tolist()
    halves = [panel_nodes(lo * p.half_width, hi * p.half_width, max_panel=h)
              for p, h in zip(problems, longest) for lo, hi in ((0.0, 0.5), (0.5, 1.0))]
    x, w = (np.concatenate(parts) for parts in zip(*halves))
    return x, w, [len(first) + len(second) for (first, _), (second, _) in zip(halves[::2], halves[1::2])]


def residual_of_ansatz(problems: Sequence[TransverseProblem]) -> list[float]:
    """Weighted L^2 norm of L applied to each problem's cutoff ansatz
    chi(tau / sqrt(m)) F, F = P e^{-tau} = u0 + u1/m + u2/m^2, in input order:
    O(m^-3).  L(chi F) = chi L F - chi'' F - 2 chi' F' - (a'/a) chi' F, and
    e^{tau} a L F = a (2P' - 2c2) - a' (P' - P) is written out as a cubic in
    the coefficients of a = 1 + k tau + g tau^2, so its terms of order 1, k,
    k^2 and g, which cancel, are never formed.  One pass runs over all the
    collar rules and one ``math.fsum`` over each problem's nodes: each value
    is bit for bit the problem's lone one."""
    if not problems:
        return []
    x, w, counts = _collar_rule(problems)
    params = [(p.curv.kappa / p.m, p.curv.gauss / p.m**2, p.half_width, *_ansatz_poly(p)[1:]) for p in problems]
    k, g, T, c1, c2 = np.array(params).T[:, np.repeat(np.arange(len(problems)), counts)]
    cubic = (-k * (k * k - 4.0 * g) + x * (12.0 * g * k - 9.0 * k * k * k + 2.0 * g * (4.0 * g - k * k)
             + x * (15.0 * k * k * k - 36.0 * g * k + 2.0 * g * (4.0 * g - 7.0 * k * k)
                    + x * 6.0 * g * (3.0 * k * k - 4.0 * g)))) / 8.0
    a, da, poly = 1.0 + x * (k + g * x), k + 2.0 * g * x, 1.0 + x * (c1 + c2 * x)
    chi, chi1, chi2 = _cutoff(x / T)
    chi1, chi2 = chi1 / T, chi2 / (T * T)
    residual = libm(math.exp, -x) * ((chi * cubic - chi1 * da * poly) / a - chi2 * poly
                                     - 2.0 * chi1 * (c1 + 2.0 * c2 * x - poly))
    # Each problem's residual is scaled by the power of two 2^-e that puts
    # its largest node value in [1/2, 1), and its norm by 2^e back: exact,
    # so a norm whose terms stay in the normal double range keeps its bits,
    # and a flat one past m ~ 4.5e5, whose squares leave it, its accuracy.
    bounds = np.cumsum(counts)[:-1]
    peaks = [float(np.max(np.abs(part))) for part in np.split(residual, bounds)]
    for p, peak in zip(problems, peaks):
        if not peak >= sys.float_info.min:
            raise ValueError(f"the ansatz residual at m={p.m!r} peaks at {peak!r}, below the normal double "
                             f"range (smallest normal {sys.float_info.min!r})")
    exps = [math.frexp(peak)[1] for peak in peaks]
    residual = residual * np.repeat([math.ldexp(1.0, -e) for e in exps], counts)
    terms = w * residual * residual * a
    return [math.ldexp(math.sqrt(math.fsum(part.tolist())), e) for part, e in zip(np.split(terms, bounds), exps)]


def transverse_form(
    p: TransverseProblem, profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
) -> float | np.ndarray:
    """Quadratic form Q(w) = int (|w'|^2 + |w|^2) a dtau of test functions.

    ``profile(tau)`` returns the values and derivatives of one test function
    (shape ``tau.shape``), like ``TransverseSolution.evaluate``, or of a stack
    of them (shape ``(n, *tau.shape)``); the result has the leading shape.
    Each is one correctly rounded sum (``math.fsum``) of its terms at the
    nodes of the collar rule (module docstring).
    """
    x, w, _ = _collar_rule([p])
    fv, dv = profile(x)
    terms = (dv * dv + fv * fv) * p.weight(x) * w
    if terms.ndim == 1:
        return math.fsum(terms.tolist())
    return np.array([math.fsum(row) for row in terms.tolist()])


def transverse_mass_check(sol: TransverseSolution) -> float:
    """Deviation |weighted mass - 1/2| of a transverse minimizer."""
    return abs(sol.mass - 0.5)
