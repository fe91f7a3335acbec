"""The one-dimensional transverse optimization problem on the rescaled collar.

For a mass m and pointwise curvatures (kappa, K), the boundary-layer profile
in the normal direction minimizes

    Q(u) = int_0^sqrt(m) (|u'|^2 + |u|^2) a(tau) dtau,
    a(tau) = 1 + kappa tau / m + K tau^2 / m^2,

over u with u(0) = 1, u(sqrt(m)) = 0.  The minimizer solves

    L u = -u'' - (a'/a) u' + u = 0

and the minimum value equals -u'(0).  Its large-m expansion

    Lambda = 1 + kappa/(2m) + (K/2 - kappa^2/8)/m^2 + O(m^-3)

is generated by the formal profiles u0 = e^{-tau}, u1 = -(kappa/2) tau e^{-tau},
u2 = (kappa^2/8 - K/2) tau e^{-tau} + (3 kappa^2/8 - K/2) tau^2 e^{-tau}; the
cutoff ansatz chi_m (u0 + u1/m + u2/m^2) leaves an O(m^-3) residual in the
weighted L^2 norm, which is the rate the verification suite measures.

Numerics: the minimization is done directly (a Ritz method).  The collar
is divided into ceil(sqrt(m)/4) equal panels of length h <= 4, and the
panels that start before TAU_CUT are kept (all of them when sqrt(m) <=
TAU_CUT), each carrying a degree-14 Gauss-Lobatto-Legendre (GLL) spectral
element.  With u = 0 pinned at the end tau_end of the last kept panel, Q
restricted to that continuous piecewise-polynomial space is minimized
directly: each element's 13 interior unknowns are eliminated by static
condensation (one batched solve of the 13 x 13 interior blocks), the
element end nodes then satisfy an SPD tridiagonal system solved by a Thomas
sweep, and the interiors follow by back-substitution.  ``solve_transverse`` solves all the
problems it is given in one stack, whatever their masses: one batched solve
of all the interior blocks, one Schur product, one back-substitution, and
one Thomas sweep over all problems padded to the longest collar (padding
rows hold diag 1, off 0 and rhs 0, and each problem's coupling to its zero
end node is 0; as rhs - off * 0.0 == rhs, a real row keeps its bits).  Every
step gives each problem the arithmetic of a lone solve, so a solution is
bit-for-bit the same whichever problems share its stack.  Two rules keep it
so.  A one-row matrix product takes another BLAS kernel than the rows of a
matrix product, whose rows have the same bits at any position: so the
element matrices, whose moments depend on the panel length, are one product
per mass, and the products of one-element problems stay one-row products.
And a problem's energy and mass are np.sum over its own contiguous row, as
zero padding would change the pairwise blocking of the sum.
The element matrices use 16-point Gauss quadrature, which integrates
(|u'|^2 + |u|^2) a exactly for the quadratic weight a, so the discrete energy
is the exact Q of the discrete profile.  By the Pythagoras identity
Q(w) = Lambda + Q(w - u) that value is an upper bound on Lambda whose excess
is quadratic in the profile error, so it lands at rounding level (~1e-15).
The left derivative is read off as the discrete flux of the first row,
-u'(0) = (A u)_0, which equals the energy exactly for the discrete minimizer.

The cut.  A function that vanishes beyond t is admissible on (0, sqrt(m)),
so the minimum Lambda_t over such functions is >= Lambda, and the Ritz value
on the kept elements is still an upper bound on Lambda.  Its excess is below
rounding.  Let E(t) = int_t^sqrt(m) (|u'|^2 + |u|^2) a for the minimizer u
(positive and decreasing).  The equation gives E(t) = -a u u'(t)
<= a (u^2 + u'^2)(t) / 2 = -E'(t) / 2, so E(t) <= Lambda e^{-2t}, and
u(t)^2 = -int_t 2 u u' <= E(t) / min a <= 2 Lambda e^{-2t} for a >= 1/2.  The
admissible w = u - u(t) sinh(tau) / sinh(t) on [0, t] (0 beyond) has
Q(w) = Lambda + E(t) + u(t)^2 int_0^t a cosh(2 tau) / sinh(t)^2, and a <= 3/2 on
a valid collar (1 - |kappa|/sqrt(m) - |K|/m >= 1/2), so

    Lambda_t - Lambda <= Lambda e^{-2t} (1 + 3 coth t).

TAU_CUT is the first multiple of the longest panel at which this is
<= 2^-60 Lambda: 24, where it is 5.7e-21 Lambda (~2^-67).  Every kept
collar ends at tau_end >= min(sqrt(m), TAU_CUT), and on the flat model the
excess is exactly coth tau_end - coth sqrt(m) < coth 24 - 1 = 2.9e-21.  The panel
length stays that of the uncut collar, so a collar of sqrt(m) <= TAU_CUT is
not cut at all and the others keep their element matrices: on the
verification suite the cut leaves every energy, mass and derivative bit for
bit as the uncut solve gives it, with at most 7 elements a problem.

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
its mass too (finite, positive, m**2 finite), so every problem can be
solved; a solution is a plain value, its profile evaluated from its own
element nodes and nodal values, and 0 past tau_end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import panel_nodes

QUAD_PANEL = 0.25

# Spectral elements: polynomial degree and longest panel.
ELEMENT_DEGREE = 14
ELEMENT_PANEL = 4.0

# The collar's cut: the first multiple of the longest panel at which the
# excess bound e^{-2t} (1 + 3 coth t) of the module docstring is <= 2^-60.
TAU_CUT = next(
    t for t in itertools.count(ELEMENT_PANEL, ELEMENT_PANEL) if math.exp(-2.0 * t) * (1.0 + 3.0 / math.tanh(t)) <= 2.0**-60
)


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, p_prev


def _newton(x: np.ndarray, step: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Iterate x -= step(x) until the steps reach the rounding level of x's dtype."""
    eps = np.finfo(x.dtype).eps
    for _ in range(100):
        dx = step(x)
        x = x - dx
        if np.max(np.abs(dx)) <= 4.0 * eps:
            break
    return x


def _interp_matrix(nodes: np.ndarray, bary: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Rows of Lagrange basis values at points x (barycentric form, exact at
    the nodes themselves)."""
    diff = x[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    terms = bary / diff
    basis = terms / terms.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    basis[rows] = hit[rows]
    return basis


def _element_tables(n: int) -> tuple[np.ndarray, ...]:
    """Reference tables of the degree-n GLL element on [-1, 1]: nodes,
    barycentric weights, differentiation matrix, the Gauss rule, the basis
    values and derivatives at its points, and the element-matrix moments.

    Built in extended precision (where the platform has it) and rounded once:
    the element matrices are sums with cancellation between entries of size
    ~n^4, and rounding them per element would cost about a digit of the
    profile.  The Gauss rule has n + 2 points, exact to degree 2n + 3, so it
    integrates l_i l_j xi^k and l_i' l_j' xi^k (k <= 2) without error.
    """
    wide = np.longdouble

    def gll_step(x):  # Newton on (1 - x^2) P_n'(x)
        p, p_prev = _legendre(n, x)
        return (x * p - p_prev) / ((n + 1) * p)

    nodes = _newton(-np.cos(np.pi * np.arange(n + 1, dtype=wide) / n), gll_step)
    nodes[0], nodes[-1] = -1.0, 1.0

    g = n + 2

    def gauss_step(x):  # Newton on P_g(x)
        p, p_prev = _legendre(g, x)
        return p * (x * x - 1.0) / (g * (x * p - p_prev))

    gx = _newton(-np.cos(np.pi * (4.0 * np.arange(1, g + 1, dtype=wide) - 1.0) / (4 * g + 2)), gauss_step)
    p, p_prev = _legendre(g, gx)
    gw = 2.0 * (1.0 - gx * gx) / (g * (gx * p - p_prev)) ** 2

    gaps = nodes[:, None] - nodes[None, :] + np.eye(n + 1, dtype=wide)
    bary = 1.0 / np.prod(gaps, axis=1)
    diff = (bary[None, :] / bary[:, None]) / gaps  # D[i, j] = l_j'(x_i)
    np.fill_diagonal(diff, 0.0)
    np.fill_diagonal(diff, -diff.sum(axis=1))
    val = _interp_matrix(nodes, bary, gx)
    der = val @ diff
    moments = gw[None, :] * gx[None, :] ** np.arange(3)[:, None]  # w_q xi_q^k
    # Rows k = 0, 1, 2: int xi^k l_i' l_j' and int xi^k l_i l_j, flattened.
    stiff = np.einsum("kq,qi,qj->kij", moments, der, der).reshape(3, -1)
    mass = np.einsum("kq,qi,qj->kij", moments, val, val).reshape(3, -1)
    return tuple(t.astype(float) for t in (nodes, bary, diff, gx, gw, val, der, stiff, mass))


(_GLL, _BARY, _DIFF, _GAUSS_X, _GAUSS_W, _GAUSS_VAL, _GAUSS_DER, _STIFF_MOMENTS, _MASS_MOMENTS) = _element_tables(
    ELEMENT_DEGREE
)


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
    if not (math.isfinite(m) and m > 0.0):
        raise ValueError("m must be positive")
    T = math.sqrt(m)
    return 1.0 - abs(curv.kappa) * T / m - abs(curv.gauss) * T * T / (m * m)


def collar_is_valid(curv: CurvatureData, m: float) -> bool:
    """The validity floor of every transverse problem: the collar weight stays
    >= 1/2 at mass m, up to rounding (1e-12), so the exact floor is valid."""
    return min_rescaled_weight(curv, m) >= 0.5 - 1e-12


def _collar_weight(
    kappa: float | np.ndarray, gauss: float | np.ndarray, m: float | np.ndarray, m2: float | np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """a(tau) = 1 + kappa tau / m + K tau^2 / m2 with m2 = m**2 (Python's
    power, not numpy's square, as the two can round differently); the
    parameters broadcast against tau."""
    return 1.0 + kappa * tau / m + gauss * tau**2 / m2


@dataclass(frozen=True)
class TransverseProblem:
    """Mass and pointwise curvature pair.  Construction refuses a mass whose
    square overflows (the weight divides by m**2) and one whose weight falls
    below the validity floor (``collar_is_valid``), so every problem
    can be solved."""

    m: float
    curv: CurvatureData

    def __post_init__(self) -> None:
        if not collar_is_valid(self.curv, self.m):  # which refuses a mass that is not finite and positive
            raise ValueError(
                f"m={self.m} is below the validity floor for curvatures "
                f"(kappa={self.curv.kappa}, K={self.curv.gauss})"
            )
        try:
            self.m**2  # as the weight forms it; a Python float power raises on overflow
        except OverflowError:
            raise ValueError(f"m={self.m} is too large: m**2 in the collar weight overflows") from None

    def weight(self, tau: np.ndarray) -> np.ndarray:
        return _collar_weight(self.curv.kappa, self.curv.gauss, self.m, self.m**2, np.asarray(tau, dtype=float))

    def weight_deriv(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        return self.curv.kappa / self.m + 2.0 * self.curv.gauss * tau / self.m**2

    @property
    def half_width(self) -> float:
        return math.sqrt(self.m)


@dataclass(frozen=True)
class TransverseSolution:
    """Minimizer profile with its energy, weighted mass, and left derivative.

    ``lam`` is the variational (quadratic-form) value of the energy; the
    invariant lam = -deriv0 holds to solver tolerance.  ``tau`` and ``u`` are
    the element nodes and the nodal values of the discrete minimizer on the
    kept elements [0, tau[-1]], with the boundary data u[0] = 1 and
    u[-1] = 0 held exactly; ``tau`` is read-only, one array shared by the
    solutions of one mass.  ``half_width`` is the collar's end sqrt(m): a
    cut collar (tau[-1] < half_width) has the profile 0 on
    (tau[-1], half_width].
    """

    lam: float
    tau: np.ndarray
    u: np.ndarray
    mass: float
    deriv0: float
    half_width: float

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and self.mass > 0.0):
            raise ValueError("energy and mass of a transverse minimizer are positive")
        if abs(self.lam + self.deriv0) > 1e-6 * max(1.0, abs(self.lam)):
            raise ValueError("energy/derivative mismatch beyond solver tolerance")

    def evaluate(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile value and derivative at points of the collar
        [0, half_width].  On the kept elements they come from ``tau`` and
        ``u`` alone: element e holds u[e n : (e + 1) n + 1] on the panel
        [e h, (e + 1) h], h = tau[n], and its nodal derivatives are the
        product a lone solve makes.  Past tau[-1] both are 0, the zero
        extension whose energy is ``lam``.  A point outside the collar (NaN
        too) raises."""
        t = np.asarray(tau, dtype=float)
        flat_t = t.ravel()
        if not np.all((flat_t >= 0.0) & (flat_t <= self.half_width)):
            raise ValueError(f"evaluation points must lie in the collar [0, {self.half_width}]")
        n = ELEMENT_DEGREE
        h, n_el = self.tau[n], (len(self.u) - 1) // n
        elements = self.u[n * np.arange(n_el)[:, None] + np.arange(n + 1)]
        derivs = _row_products(elements, _DIFF.T, 1 if n_el == 1 else 0)
        derivs *= 2.0 / h
        kept = flat_t <= self.tau[-1]
        x = flat_t[kept]
        e = np.minimum(np.floor(x / h).astype(int), n_el - 1)
        basis = _interp_matrix(_GLL, _BARY, 2.0 * (x - h * e) / h - 1.0)
        value, deriv = np.zeros((2, len(flat_t)))
        value[kept] = np.einsum("kj,kj->k", basis, elements[e])
        deriv[kept] = np.einsum("kj,kj->k", basis, derivs[e])
        return value.reshape(t.shape), deriv.reshape(t.shape)


def _panels(m: float) -> tuple[int, float, float]:
    """The collar's kept panels: their number, their length h and the end of
    the last.  The collar [0, sqrt(m)] is divided into
    n = ceil(sqrt(m) / ELEMENT_PANEL) equal panels of length h <= ELEMENT_PANEL,
    and those that start before TAU_CUT are kept: the first
    min(n, ceil(TAU_CUT / h)), all n when sqrt(m) <= TAU_CUT.  An uncut collar
    ends at sqrt(m) itself, a cut one at (kept panels) * h.  Cutting the
    panels, not re-dividing [0, TAU_CUT], keeps the element matrices of the
    uncut collar (see the module docstring)."""
    T = math.sqrt(m)
    n_el = max(1, math.ceil(T / ELEMENT_PANEL))
    h = T / n_el
    kept = n_el if T <= TAU_CUT else min(n_el, math.ceil(TAU_CUT / h))
    return kept, h, T if kept == n_el else kept * h


class _Stack(NamedTuple):
    """Element layout of a stack of problems.  The problems runs[r][0]:runs[r][1]
    share a mass, whose kept panels are panels[r] (``_panels``).  Problem k
    has n_el[k] kept panels of length h[k], the elements
    first[k]:first[k + 1]; element e is panel j[e] of problem owner[e], with
    left end left[e], and params[:, e] holds the (kappa, K, m, m**2) of its
    problem's weight, shape (4, n_elements, 1)."""

    runs: list[tuple[int, int]]
    panels: list[tuple[int, float, float]]
    n_el: np.ndarray
    h: np.ndarray
    first: np.ndarray
    owner: np.ndarray
    j: np.ndarray
    left: np.ndarray
    params: np.ndarray


def _element_matrices(problems: Sequence[TransverseProblem]) -> tuple[_Stack, np.ndarray]:
    """The layout of a stack of problems, whose equal masses must be
    adjacent, and their (n_elements, n + 1, n + 1) element matrices of Q,
    problem after problem.

    On a panel of length h <= ELEMENT_PANEL = 4 the degree-14 element still
    resolves e^{-tau} far below double precision.  The matrices are exact by
    quadrature: on each panel the weight is c0 + c1 xi + c2 xi^2 in the local
    coordinate xi in [-1, 1], with coefficients from its values at
    xi = -1, 0, 1.  The moments of the element depend on h, so the
    coefficient rows of each mass go through one
    (n_rows, 3) @ (3, (n + 1)^2) product, or through one-row products if the
    mass has one element (see ``_row_products``); either way each problem's
    matrices have the bits of its lone solve.
    """
    bounds = [k for k in range(1, len(problems)) if problems[k].m != problems[k - 1].m]
    runs = list(zip([0, *bounds], [*bounds, len(problems)]))
    panels = [_panels(problems[k0].m) for k0, _ in runs]
    sizes = [k1 - k0 for k0, k1 in runs]
    n_el = np.repeat([count for count, _, _ in panels], sizes)
    h = np.repeat([width for _, width, _ in panels], sizes)
    first = np.concatenate([[0], np.cumsum(n_el)])
    owner = np.repeat(np.arange(len(problems)), n_el)
    j = np.arange(first[-1]) - first[owner]
    params = np.array([(p.curv.kappa, p.curv.gauss, p.m, p.m**2) for p in problems])[owner].T[..., None]
    left = h[owner] * j
    n = ELEMENT_DEGREE
    ends = left[:, None] + (0.5 * h[owner])[:, None] * np.array([0.0, 1.0, 2.0])
    a_left, a_mid, a_right = _collar_weight(*params, ends).T
    coef = np.stack([a_mid, 0.5 * (a_right - a_left), 0.5 * (a_right + a_left) - a_mid], axis=-1)
    elem = np.empty((len(coef), (n + 1) ** 2))
    for (k0, k1), (count, width, _) in zip(runs, panels):
        rows = slice(first[k0], first[k1])
        moments = _STIFF_MOMENTS * (2.0 / width) ** 2 + _MASS_MOMENTS
        _row_products(coef[rows], moments, k1 - k0 if count == 1 else 0, out=elem[rows])
        elem[rows] *= 0.5 * width
    return _Stack(runs, panels, n_el, h, first, owner, j, left, params), elem.reshape(-1, n + 1, n + 1)


def solve_transverse(problems: Sequence[TransverseProblem]) -> list[TransverseSolution]:
    """Minimize Q over the spectral-element space for each problem; return
    energy, profile and mass in input order.

    The solve is direct, so it has no tolerance.  All problems go into one
    stack whatever their masses: one batched solve of every element's
    interior block, one Schur product, one Thomas sweep over the element end
    nodes of all problems (padded to the longest collar) and one
    back-substitution.  Only the element-matrix products, whose moments
    depend on the panel length, and the sums of each problem's energy and
    mass are formed per mass.  A problem's solution is bit for bit the same
    whichever problems are passed with it.
    """
    groups: dict[float, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(p.m, []).append(i)
    # Stack order: by mass, the one-element problems first (see
    # _row_products).
    masses = sorted(groups, key=lambda m: _panels(m)[0] > 1)
    order = [i for m in masses for i in groups[m]]
    if not order:
        return []
    stack, elem = _element_matrices([problems[i] for i in order])
    n_el, first, owner, j = stack.n_el, stack.first, stack.owner, stack.j
    n_p, n, n_single = len(order), ELEMENT_DEGREE, int(np.sum(n_el == 1))

    # Static condensation.  An element's interior nodes couple only to its
    # two end nodes (local 0 and n, the slice ::n), so u_int = -K_ii^{-1}
    # K_ib u_end eliminates them; the end nodes keep the Schur complement
    # S = K_bb - K_bi K_ii^{-1} K_ib, which assembles from 2 x 2 element
    # blocks into an SPD tridiagonal matrix per problem.
    elim = np.linalg.solve(elem[:, 1:-1, 1:-1], elem[:, 1:-1, ::n])  # (n_elements, n - 1, 2)
    schur = elem[:, ::n, ::n] - elem[:, ::n, 1:-1] @ elim
    first_row = elem[first[:-1], 0]  # row of node 0, which only a problem's first element holds
    del elem  # the largest array of the stack; free it before the sweep

    # End-node values v with the Dirichlet data v_0 = 1, v_{n_el} = 0; one
    # Thomas sweep over all problems solves for the n_el - 1 inner ones.
    # Row r of a problem couples its node r + 1 to node r + 2 through
    # off[r].  The rows past its last inner node are padding (diag 1, off 0,
    # rhs 0), and its last coupling, to the end node v_{n_el} = 0, is set to
    # 0; as rhs - off * 0.0 == rhs, every real row keeps the bits of a lone
    # sweep.  Rows run along axis 0, problems along axis 1.
    rows = int(n_el.max()) - 1
    inner = np.flatnonzero(j < n_el[owner] - 1)  # elements followed by one of their own problem
    coupled = inner[j[inner] < n_el[owner[inner]] - 2]  # ... whose successor is not the last
    diag, off, rhs = np.ones((rows, n_p)), np.zeros((rows, n_p)), np.zeros((rows, n_p))
    diag[j[inner], owner[inner]] = schur[inner, 1, 1] + schur[inner + 1, 0, 0]
    off[j[coupled], owner[coupled]] = schur[coupled + 1, 0, 1]
    multi = n_el > 1
    rhs[:1, multi] = -schur[first[:-1][multi], 1, 0]
    for r in range(1, rows):
        ratio = off[r - 1] / diag[r - 1]
        diag[r] -= ratio * off[r - 1]
        rhs[r] -= ratio * rhs[r - 1]
    v = np.zeros((rows + 2, n_p))
    v[0] = 1.0
    for r in range(rows - 1, -1, -1):
        v[r + 1] = (rhs[r] - off[r] * v[r + 2]) / diag[r]

    nodal = np.empty((len(owner), n + 1))
    nodal[:, 0], nodal[:, -1] = v[j, owner], v[j + 1, owner]
    nodal[:, 1:-1] = -(elim @ nodal[:, ::n, None])[..., 0]
    del elim
    deriv0 = -np.einsum("pj,pj->p", first_row, nodal[first[:-1]])  # -(A u)_0
    # The nodal values of each problem, element by element, closed by
    # u = 0 at the collar's end: problem k's run starts at first[k] n + k.
    u_all = np.insert(nodal[:, :-1].ravel(), first[1:] * n, 0.0)

    # Gauss-point integrands of the energy wa (u'^2 + u^2) and the weighted
    # mass wa u^2, formed in place: the stack's arrays are large enough that
    # fresh memory costs more than the arithmetic.
    half_h = 0.5 * stack.h[owner][:, None]
    xq = half_h * (_GAUSS_X + 1.0)
    xq += stack.left[:, None]
    wa = half_h * _GAUSS_W
    wa *= _collar_weight(*stack.params, xq)
    uq = _row_products(nodal, _GAUSS_VAL.T, n_single)
    duq = _row_products(nodal, _GAUSS_DER.T, n_single)
    duq *= 2.0 / stack.h[owner][:, None]
    integrands = np.empty((2, *uq.shape))
    np.multiply(wa, uq, out=integrands[1])
    integrands[1] *= uq
    duq *= duq
    uq *= uq
    duq += uq
    np.multiply(wa, duq, out=integrands[0])

    solved: dict[int, TransverseSolution] = {}
    first_of, deriv0_of = first.tolist(), deriv0.tolist()
    for (k0, k1), (_, h, end) in zip(stack.runs, stack.panels):
        elements = slice(first_of[k0], first_of[k1])
        # Each problem's sums run over its own contiguous row: the pairwise
        # blocking of np.sum depends on the row length.
        lam, mass_sum = np.sum(integrands[:, elements].reshape(2, k1 - k0, -1), axis=2).tolist()
        nodes = stack.left[first_of[k0] : first_of[k0 + 1], None] + 0.5 * h * (_GLL[:-1] + 1.0)
        tau = np.concatenate([nodes.ravel(), [end]])
        tau.flags.writeable = False  # one array, shared by the solutions of the mass
        T = problems[order[k0]].half_width
        for k, lam_k, mass_k in zip(range(k0, k1), lam, mass_sum):
            u = u_all[first_of[k] * n + k : first_of[k + 1] * n + k + 1]
            solved[order[k]] = TransverseSolution(
                lam=lam_k, tau=tau, u=u, mass=mass_k, deriv0=deriv0_of[k], half_width=T
            )
    return [solved[i] for i in range(n_p)]


def _row_products(rows: np.ndarray, table: np.ndarray, n_single: int, out: np.ndarray | None = None) -> np.ndarray:
    """rows @ table, each row with the bits a lone solve gives it.

    A lone problem of one element forms its row as a one-row product, which
    BLAS computes with another kernel than the rows of a matrix product
    (whose rows have the same bits at any position).  So the first
    ``n_single`` rows, the elements of one-element problems, stay one-row
    products and the rest go into one matrix product.
    """
    if out is None:
        out = np.empty((len(rows), table.shape[1]))
    np.matmul(rows[:n_single, None, :], table, out=out[:n_single, None, :])
    np.matmul(rows[n_single:], table, out=out[n_single:])
    return out


def expansion_lambda(p: TransverseProblem) -> float:
    """Second-order large-mass expansion 1 + kappa/(2m) + (K/2 - kappa^2/8)/m^2."""
    kappa, K, m = p.curv.kappa, p.curv.gauss, p.m
    return 1.0 + kappa / (2.0 * m) + (K / 2.0 - kappa**2 / 8.0) / m**2


def _cutoff(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """chi(s) = 1 on [0, 1/2], 0 on [1, inf), with the C^2 smoothstep
    1 - t^3 (10 - 15 t + 6 t^2), t = 2s - 1, between; and chi', chi''."""
    t = np.clip(2.0 * s - 1.0, 0.0, 1.0)
    inside = (s > 0.5) & (s < 1.0)
    chi = np.where(s <= 0.5, 1.0, np.where(s >= 1.0, 0.0, 1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2)))
    chi1 = np.where(inside, -2.0 * (30.0 * t**2 * (1.0 - t) ** 2), 0.0)
    chi2 = np.where(inside, -4.0 * (60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)), 0.0)
    return chi, chi1, chi2


def _ansatz_poly(p: TransverseProblem) -> tuple[float, float, float]:
    # The formal profiles of the module docstring, summed:
    # u0 + u1/m + u2/m^2 = (c0 + c1 tau + c2 tau^2) e^{-tau}
    kappa, K, m = p.curv.kappa, p.curv.gauss, p.m
    c0 = 1.0
    c1 = -kappa / (2.0 * m) + (kappa**2 / 8.0 - K / 2.0) / m**2
    c2 = (3.0 * kappa**2 / 8.0 - K / 2.0) / m**2
    return c0, c1, c2


def residual_of_ansatz(p: TransverseProblem) -> float:
    """Weighted L^2 norm of L applied to the cutoff boundary-layer ansatz.

    The ansatz is chi(tau / sqrt(m)) (u0 + u1/m + u2/m^2); its
    residual under L = -d^2/dtau^2 - (a'/a) d/dtau + 1 decays like m^-3, the
    rate the acceptance suite pins down.  All derivatives are analytic
    (polynomial-times-exponential profiles, closed-form cutoff derivatives).
    """
    T = p.half_width
    c0, c1, c2 = _ansatz_poly(p)
    x, w = panel_nodes(0.0, T, max_panel=QUAD_PANEL, n_nodes=16)
    # The ansatz polynomial P = c0 + c1 tau + c2 tau^2, its slope and e^{-tau},
    # once per node: (P e^{-tau})' = (P' - P) e^{-tau} and
    # (P e^{-tau})'' = (2 c2 - 2 P' + P) e^{-tau}.
    decay = np.exp(-x)
    poly = c0 + c1 * x + c2 * x**2
    dpoly = c1 + 2.0 * c2 * x
    f0 = poly * decay
    f1 = (dpoly - poly) * decay
    f2 = (2.0 * c2 - 2.0 * dpoly + poly) * decay
    chi, chi1, chi2 = _cutoff(x / T)
    chi1, chi2 = chi1 / T, chi2 / T**2
    v = chi * f0
    dv = chi1 * f0 + chi * f1
    d2v = chi2 * f0 + 2.0 * chi1 * f1 + chi * f2
    a = p.weight(x)
    da = p.weight_deriv(x)
    residual = -d2v - (da / a) * dv + v
    return float(math.sqrt(np.dot(w, residual**2 * a)))


def transverse_form(
    p: TransverseProblem,
    profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> float | np.ndarray:
    """Quadratic form Q(w) = int (|w'|^2 + |w|^2) a dtau of test functions.

    ``profile(tau)`` returns the values and derivatives of one test function
    (shape ``tau.shape``), like ``TransverseSolution.evaluate``, or of a stack
    of them (shape ``(n, *tau.shape)``); the result has the leading shape.
    """
    x, w = panel_nodes(0.0, p.half_width, max_panel=QUAD_PANEL, n_nodes=16)
    fv, dv = profile(x)
    return ((dv * dv + fv * fv) * p.weight(x)) @ w


def transverse_mass_check(sol: TransverseSolution) -> float:
    """Deviation |weighted mass - 1/2| of a transverse minimizer."""
    return abs(sol.mass - 0.5)
