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
is cut into ceil(sqrt(m)/4) equal panels of length <= 4, each carrying a
degree-14 Gauss-Lobatto-Legendre (GLL) spectral element, and Q restricted to
that continuous piecewise-polynomial space is minimized directly: each
element's 13 interior unknowns are eliminated by static condensation (one
batched solve of the 13 x 13 interior blocks), the element end nodes then
satisfy an SPD tridiagonal system solved by one Thomas sweep, and the
interiors follow by back-substitution.  Problems of one mass share the
panels and the quadrature points, so ``solve_transverse`` stacks them:
one element-matrix product, one batched interior solve and one Thomas
sweep vectorized across the problems per mass.  Every step acts on each
problem's own slice with the arithmetic of a lone solve, so a solution is
bit-for-bit the same whichever problems share its stack.
The element matrices use 16-point Gauss quadrature, which integrates
(|u'|^2 + |u|^2) a exactly for the quadratic weight a, so the discrete energy
is the exact Q of the discrete profile.  By the Pythagoras identity
Q(w) = Lambda + Q(w - u) that value is an upper bound on Lambda whose excess
is quadratic in the profile error, so it lands at rounding level (~1e-15).
The left derivative is read off as the discrete flux of the first row,
-u'(0) = (A u)_0, which equals the energy exactly for the discrete minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import CurvatureData, min_rescaled_weight
from .numerics import NumericsError, panel_nodes

QUAD_PANEL = 0.25
MAX_HALF_WIDTH = 600.0  # sqrt(m) cap: e^{sqrt m} must stay inside double range

# Spectral elements: polynomial degree and longest panel.
ELEMENT_DEGREE = 14
ELEMENT_PANEL = 4.0


class CollarWidthError(NumericsError):
    """The collar half-width sqrt(m) exceeds ``MAX_HALF_WIDTH``."""


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


def _collar_weight(kappa: float | np.ndarray, gauss: float | np.ndarray, m: float, tau: np.ndarray) -> np.ndarray:
    """a(tau) = 1 + kappa tau / m + K tau^2 / m^2; kappa and K broadcast against tau."""
    return 1.0 + kappa * tau / m + gauss * tau**2 / m**2


@dataclass(frozen=True)
class TransverseProblem:
    """Mass and pointwise curvature pair; valid once the collar weight is >= 1/2."""

    m: float
    curv: CurvatureData

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m) and self.m > 0.0):
            raise ValueError("m must be positive")
        if min_rescaled_weight(self.curv, self.m) < 0.5 - 1e-12:
            raise ValueError(
                f"m={self.m} is below the validity floor for curvatures "
                f"(kappa={self.curv.kappa}, K={self.curv.gauss})"
            )

    def weight(self, tau: np.ndarray) -> np.ndarray:
        return _collar_weight(self.curv.kappa, self.curv.gauss, self.m, np.asarray(tau, dtype=float))

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
    the element nodes and the nodal values of the discrete minimizer, with
    the boundary data u[0] = 1 and u[-1] = 0 held exactly; ``tau`` is
    read-only, one array shared by the solutions of one mass.
    """

    lam: float
    tau: np.ndarray
    u: np.ndarray
    mass: float
    deriv0: float
    _profiles: Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]
    _index: int

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and self.mass > 0.0):
            raise ValueError("energy and mass of a transverse minimizer are positive")
        if abs(self.lam + self.deriv0) > 1e-6 * max(1.0, abs(self.lam)):
            raise ValueError("energy/derivative mismatch beyond solver tolerance")

    def evaluate(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile value and derivative at arbitrary points of [0, sqrt(m)]."""
        return self._profiles(self._index, tau)


def _element_matrices(problems: Sequence[TransverseProblem]) -> tuple[float, np.ndarray]:
    """Panel length h and the (n_p, n_el, n + 1, n + 1) element matrices of Q
    for problems of one mass.

    The collar is cut into ceil(sqrt(m) / ELEMENT_PANEL) equal panels of
    length <= ELEMENT_PANEL = 4, on which the degree-14 element still
    resolves e^{-tau} far below double precision.  The matrices are exact by
    quadrature: on each panel the weight is c0 + c1 xi + c2 xi^2 in the local
    coordinate xi in [-1, 1], with coefficients from its values at
    xi = -1, 0, 1.  Each problem's matrices come from its own
    (n_el, 3) @ (3, (n + 1)^2) product, so they do not depend on which
    problems share the stack.
    """
    T = problems[0].half_width
    if T > MAX_HALF_WIDTH:
        raise CollarWidthError(f"sqrt(m)={T:.1f} exceeds the supported interval length")
    n = ELEMENT_DEGREE
    n_el = max(1, math.ceil(T / ELEMENT_PANEL))
    h = T / n_el
    left = h * np.arange(n_el)
    a = _stacked_weight(problems, left[:, None] + 0.5 * h * np.array([0.0, 1.0, 2.0]))
    a_left, a_mid, a_right = a[..., 0], a[..., 1], a[..., 2]
    coef = np.stack([a_mid, 0.5 * (a_right - a_left), 0.5 * (a_right + a_left) - a_mid], axis=-1)
    elem = coef @ (_STIFF_MOMENTS * (2.0 / h) ** 2 + _MASS_MOMENTS)
    elem *= 0.5 * h
    return h, elem.reshape(len(problems), n_el, n + 1, n + 1)


def _stacked_weight(problems: Sequence[TransverseProblem], tau: np.ndarray) -> np.ndarray:
    """Collar weights of problems of one mass at points tau, shape (n_p, *tau.shape)."""
    curv = np.array([(p.curv.kappa, p.curv.gauss) for p in problems]).reshape(-1, 2, *(1,) * tau.ndim)
    return _collar_weight(curv[:, 0], curv[:, 1], problems[0].m, tau)


def _solve_one_mass(problems: Sequence[TransverseProblem]) -> list[TransverseSolution]:
    """The stacked solve of problems sharing a mass, hence h, n_el and the
    Gauss points: every step is a batched numpy call over the problems."""
    h, elem = _element_matrices(problems)
    n_p, n_el, n = len(problems), elem.shape[1], ELEMENT_DEGREE
    T = problems[0].half_width
    left = h * np.arange(n_el)

    # Static condensation.  An element's interior nodes couple only to its
    # two end nodes (local 0 and n, the slice ::n), so u_int = -K_ii^{-1}
    # K_ib u_end eliminates them; the end nodes keep the Schur complement
    # S = K_bb - K_bi K_ii^{-1} K_ib, which assembles from 2 x 2 element
    # blocks into an SPD tridiagonal matrix.
    elim = np.linalg.solve(elem[..., 1:-1, 1:-1], elem[..., 1:-1, ::n])  # (n_p, n_el, n - 1, 2)
    schur = elem[..., ::n, ::n] - elem[..., ::n, 1:-1] @ elim
    first_row = elem[:, 0, 0].copy()  # row of node 0, which only element 0 holds
    del elem  # the largest array of the group; free it before the sweep

    # End-node values v with the Dirichlet data v_0 = 1, v_{n_el} = 0; a
    # Thomas sweep, vectorized over the problems, solves for the n_el - 1
    # inner ones.  Row j couples node j + 1 to node j + 2 through off[j].
    v = np.zeros((n_p, n_el + 1))
    v[:, 0] = 1.0
    diag = schur[:, :-1, 1, 1] + schur[:, 1:, 0, 0]
    off = schur[:, 1:, 0, 1]
    rhs = np.zeros((n_p, n_el - 1))
    rhs[:, :1] = -schur[:, :1, 1, 0]
    for j in range(1, n_el - 1):
        ratio = off[:, j - 1] / diag[:, j - 1]
        diag[:, j] -= ratio * off[:, j - 1]
        rhs[:, j] -= ratio * rhs[:, j - 1]
    for j in range(n_el - 2, -1, -1):
        v[:, j + 1] = (rhs[:, j] - off[:, j] * v[:, j + 2]) / diag[:, j]

    nodal = np.empty((n_p, n_el, n + 1))
    nodal[..., 0], nodal[..., -1] = v[:, :-1], v[:, 1:]
    nodal[..., 1:-1] = -(elim @ nodal[..., ::n, None])[..., 0]
    del elim
    u = np.concatenate([nodal[..., :-1].reshape(n_p, -1), v[:, -1:]], axis=1)
    deriv0 = -np.einsum("pj,pj->p", first_row, nodal[:, 0])  # -(A u)_0
    xq = left[:, None] + 0.5 * h * (_GAUSS_X + 1.0)[None, :]
    wa = 0.5 * h * _GAUSS_W[None, :] * _stacked_weight(problems, xq)
    uq = nodal @ _GAUSS_VAL.T
    duq = nodal @ _GAUSS_DER.T * (2.0 / h)
    lam = np.sum((wa * (duq * duq + uq * uq)).reshape(n_p, -1), axis=1)
    mass = np.sum((wa * uq * uq).reshape(n_p, -1), axis=1)
    nodal_deriv = nodal @ _DIFF.T * (2.0 / h)

    tau = np.concatenate([(left[:, None] + 0.5 * h * (_GLL[:-1] + 1.0)[None, :]).ravel(), [T]])
    tau.flags.writeable = False  # one array, shared by the group's solutions
    profiles = _nodal_profiles(h, nodal, nodal_deriv)
    return [
        TransverseSolution(
            lam=float(lam[i]), tau=tau, u=u[i], mass=float(mass[i]), deriv0=float(deriv0[i]),
            _profiles=profiles, _index=i,
        )
        for i in range(n_p)
    ]


def _nodal_profiles(
    h: float, nodal: np.ndarray, nodal_deriv: np.ndarray
) -> Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Evaluator (i, t) -> value and derivative of profile i of a stack of
    nodal profiles between the nodes; one per mass group."""
    n_el = nodal.shape[1]
    left = h * np.arange(n_el)

    def dense(i: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = np.asarray(t, dtype=float)
        flat_t = t.ravel()
        e = np.clip(np.floor(flat_t / h).astype(int), 0, n_el - 1)
        basis = _interp_matrix(_GLL, _BARY, 2.0 * (flat_t - left[e]) / h - 1.0)
        value = np.einsum("kj,kj->k", basis, nodal[i, e])
        deriv = np.einsum("kj,kj->k", basis, nodal_deriv[i, e])
        return value.reshape(t.shape), deriv.reshape(t.shape)

    return dense


def solve_transverse(problems: Sequence[TransverseProblem]) -> list[TransverseSolution]:
    """Minimize Q over the spectral-element space for each problem; return
    energy, profile and mass in input order.

    The solve is direct, so it has no tolerance: static condensation of each
    element's interior nodes, then one tridiagonal sweep over the element
    end nodes.  Problems of equal mass are solved together in one stack; a
    problem's solution does not depend on which others are passed with it.
    """
    groups: dict[float, list[int]] = {}
    for i, p in enumerate(problems):
        groups.setdefault(p.m, []).append(i)
    solved: dict[int, TransverseSolution] = {}
    for indices in groups.values():
        solved.update(zip(indices, _solve_one_mass([problems[i] for i in indices])))
    return [solved[i] for i in range(len(problems))]


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
