"""Shared numerical substrate: quadrature, bracketed root finding, linear
two-point boundary value problems, and 1/m asymptotic-slope extraction.

Everything here is a pure function of its inputs; all randomness, file IO and
state live in the verification driver, never in this layer.  One affine map
(``_rule_on_mesh``) places the one 16-point Gauss rule on every mesh;
``fit_line`` fits one series.  ``cli.run_suite`` opens and closes the run's
one table, ``run_memo``.  ``run_table`` hands it out: ``memoized`` and the
spectral solvers' records of their branch roots reuse pure results in it
within one verification run, and it is gone when the run ends.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

_EPS = sys.float_info.epsilon


class NumericsError(ArithmeticError):
    """Base class for numerical failures that should map to exit code 3."""


class BracketError(NumericsError):
    """The supplied interval does not bracket a sign change."""


class PoleRootError(NumericsError):
    """The bracketed sign change is a pole, not a root."""


class RootConvergenceError(NumericsError):
    """Root iteration exhausted max_iter; carries the last bracket."""

    def __init__(self, message: str, bracket: tuple[float, float]):
        super().__init__(message)
        self.bracket = bracket


class ShootingError(NumericsError):
    """The boundary value problem could not be solved."""


class FitError(NumericsError):
    """Line-fit data that determine no line in doubles: fewer than 2 points,
    unequal x and y lengths, a non-finite value, x values all equal, or a
    fitted line past the double range."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute/relative tolerance pair plus an iteration cap.

    The default is the solver tolerance of every eigenvalue solve and of the
    verification config.
    """

    abs_tol: float = 0.0
    rel_tol: float = 1e-14
    max_iter: int = 300

    def __post_init__(self) -> None:
        if not (0.0 <= self.abs_tol < math.inf and 0.0 <= self.rel_tol < math.inf):
            raise ValueError("tolerances must be finite and nonnegative")
        if self.abs_tol + self.rel_tol <= 0.0:
            raise ValueError("abs_tol + rel_tol must be positive")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


# ----------------------------------------------------------------------------
# Reuse within one run
# ----------------------------------------------------------------------------

_RUN_MEMO: ContextVar[dict[tuple[Any, ...], Any] | None] = ContextVar("run_memo", default=None)


@contextmanager
def run_memo() -> Iterator[None]:
    """Open the run's table (``run_table``), which ``memoized`` and the
    spectral solvers' records of their branch roots read and write.

    The table lives exactly as long as the block.  A verification run opens
    one, so a result keyed on the run's radius or masses is reused within the
    run and never outlives it.  A nested block starts an empty table, and the
    outer one is back when it exits; a thread started inside the block does
    not see it.
    """
    token = _RUN_MEMO.set({})
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)


def run_table() -> dict[tuple[Any, ...], Any]:
    """The open ``run_memo`` block's table, or a fresh dict outside one, so
    that outside a block nothing is kept."""
    table = _RUN_MEMO.get()
    return {} if table is None else table


def memoized(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)``, evaluated once per open ``run_memo`` block for equal
    arguments, and on every call outside one.  ``fn`` must be pure, and
    callers must not mutate what it returns."""
    table = run_table()
    key = (fn, args)
    if key not in table:
        table[key] = fn(*args)
    return table[key]


def libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """``fn``, any function of one float, at each element of ``x``, in order
    (an exception stops the map at its element).  numpy's exp, log, sin and
    cos run the SIMD loop of the CPU features numpy dispatches to, and the
    loops differ in their last bits; the C library's scalar functions, and
    float kernels built on them, do not depend on that dispatch."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


# ----------------------------------------------------------------------------
# Quadrature
# ----------------------------------------------------------------------------

# The Gauss-Legendre rule of the package, 16 nodes on [-1, 1], tabulated so
# that no process solves for it: the positive nodes, ascending, and their
# weights, as the float.hex bits of the doubles nearest the exact values
# (60-digit Newton iteration on P_16; numpy's leggauss(16) has the same
# nodes and weights up to 63 ulp off).  The rule is symmetric about 0 bit
# for bit, so the negative half mirrors the table.
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    x = np.array([float.fromhex(v) for v in (
        "0x1.852bd6676a9f9p-4", "0x1.205cae642337cp-2", "0x1.d50259a43a772p-2", "0x1.3c5a466d5e8b8p-1",
        "0x1.82c45dda4726bp-1", "0x1.bb3403514e483p-1", "0x1.e39f56616f9b0p-1", "0x1.fa92c264d787ep-1")])
    w = np.array([float.fromhex(v) for v in (
        "0x1.83feae80e4dfcp-3", "0x1.75f8c77e0c00fp-3", "0x1.5a6ebbb5a75fcp-3", "0x1.325f61bca3cbfp-3",
        "0x1.fe7af2bad386ap-4", "0x1.85c4ee79cc258p-4", "0x1.fdfb1a2c1265dp-5", "0x1.bcddab4b7c211p-6")])
    rule = (np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w]))
    for array in rule:
        array.flags.writeable = False
    return rule


_GAUSS_RULE = _gauss_rule()


# At most 1M nodes a rule: a golden run's largest has 5 panels (each half of
# the m = 1600 collar rule, [0, 20] and [20, 40] in panels of 4), and a
# runaway request is refused before any allocation.
MAX_PANELS = 2**16


def panel_nodes(a: float, b: float, max_panel: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b] with panels <= max_panel,
    16 per panel; finite a < b and at most MAX_PANELS panels."""
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ValueError(f"panel_nodes requires finite ends with b > a, got [{a!r}, {b!r}]")
    if not (0.0 < max_panel < math.inf and (b - a) / max_panel <= MAX_PANELS):
        raise ValueError(f"max_panel must be finite and > 0 and cut [{a!r}, {b!r}] into at most "
                         f"MAX_PANELS = {MAX_PANELS} panels, got {max_panel!r}")
    n_panels = max(1, int(math.ceil((b - a) / max_panel)))
    return _rule_on_mesh(np.linspace(a, b, n_panels + 1))


def mesh_aligned_nodes(mesh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on the panels of a given ascending mesh,
    16 per panel.

    With 16 nodes the rule is exact for polynomials up to degree 31 on each
    panel, so functionals of a piecewise-polynomial dense ODE output are
    integrated without quadrature error when the mesh is the solver's own.
    """
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or len(mesh) < 2 or not np.all(np.isfinite(mesh)) or np.any(np.diff(mesh) <= 0.0):
        raise ValueError("mesh must be finite and ascending with at least two points")
    return _rule_on_mesh(mesh)


def _rule_on_mesh(mesh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 16-point rule mapped affinely onto each panel of ``mesh``."""
    xi, wi = _GAUSS_RULE
    half = 0.5 * (mesh[1:] - mesh[:-1])
    mid = 0.5 * (mesh[1:] + mesh[:-1])
    return (mid[:, None] + half[:, None] * xi[None, :]).ravel(), (half[:, None] * wi[None, :]).ravel()


# ----------------------------------------------------------------------------
# Bracketed root finding
# ----------------------------------------------------------------------------

_POLE_FACTOR = 1e6


def find_root_bracketed(
    f: Callable[[float], tuple[float, float]],
    bracket: tuple[float, float],
    tol: ToleranceConfig | None = None,
    f_bracket: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Safeguarded Newton iteration with bisection fallback (``rtsafe``,
    Press et al., *Numerical Recipes*, 3rd ed., 2007, sec. 9.4).

    ``f(x)`` returns the pair (f(x), f'(x)); ``f_bracket`` holds plain values.
    Returns a root and the value of f there; the root is always a point
    where f was evaluated.  A caller that already holds (f(a), f(b)) passes
    them as ``f_bracket``, and f is not evaluated at the ends again.

    The iteration starts at the secant point of the bracket and keeps a
    sign-change bracket around every iterate.  It takes the Newton step
    unless the slope is 0, infinite or NaN, or the step would leave the
    bracket or is longer than half the step before last; then it bisects.
    It stops where |f| <= abs_tol at an iterate, or where the Newton
    correction (of a finite nonzero slope) or the bracket half-width is at
    most tol_x = 0.5*rel_tol*|x| plus the machine floor, and returns that
    iterate.  An iterate is an end of its bracket, so one that the
    half-width stops lies within 2*tol_x of a root.  When the slope gave
    no correction, the midpoint of that bracket, within tol_x of the root,
    is evaluated and returned instead.
    There is no scan inside the bracket: when it holds several roots, any
    one of them may be returned.  A sign change across which |f| diverges
    instead of vanishing is reported as a pole, not a root.
    """
    tol = tol or ToleranceConfig()
    abs_tol, max_iter = tol.abs_tol, tol.max_iter
    half_rel_tol, two_eps = 0.5 * tol.rel_tol, 2.0 * _EPS
    copysign, inf = math.copysign, math.inf
    a, b = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise BracketError(f"invalid bracket {bracket!r}")
    if f_bracket is None:
        fa, fb = float(f(a)[0]), float(f(b)[0])
    else:
        fa, fb = float(f_bracket[0]), float(f_bracket[1])
    if fa == 0.0:
        return a, 0.0
    if fb == 0.0:
        return b, 0.0
    sign_a = copysign(1.0, fa)
    if sign_a == copysign(1.0, fb):
        raise BracketError(f"f has the same sign at both ends of {bracket!r}")
    f_entry_scale = 1.0 + min(abs(fa), abs(fb))

    x = b - fb * (b - a) / (fb - fa)
    if not a < x < b:
        x = 0.5 * (a + b)
    # The last step and the one before it (rtsafe's dx and dxold).
    step = step_before = b - a
    for _ in range(max_iter):
        fx, dfx = f(x)
        fx, dfx = float(fx), float(dfx)
        if abs(fx) <= abs_tol:
            break
        # f keeps the sign of f(a) at every iterate that replaces a.
        if copysign(1.0, fx) == sign_a:
            a = x
        else:
            b = x
        ax = abs(x)
        tol_x = two_eps * ax + half_rel_tol * ax + 1e-300
        # Only a finite nonzero slope gives a Newton correction: f/inf = 0
        # says nothing of a root, so such an iteration bisects, and only
        # the bracket half-width can stop it.
        newton = fx / dfx if 0.0 < abs(dfx) < inf else inf
        x_next = x - newton
        if a < x_next < b and 2.0 * abs(newton) <= abs(step_before):
            step_before, step = step, newton
        else:
            step_before, step = step, 0.5 * (b - a)
            x_next = a + step
        # A Newton correction below tol_x places the root within tol_x of
        # x; a half-width below it, within 2*tol_x, as x ends the bracket.
        if min(abs(newton), abs(step)) <= tol_x:
            if abs(newton) == inf:
                # No correction: the bracket's midpoint is within tol_x.
                x = x_next
                fx = float(f(x)[0])
            break
        x = x_next
    else:
        raise RootConvergenceError(f"no convergence after {max_iter} iterations", (a, b))
    if abs(fx) > _POLE_FACTOR * f_entry_scale and abs(fx) > 1e3:
        raise PoleRootError(f"sign change at x={x!r} is a pole, not a root (|f|={abs(fx):.3e})")
    return x, fx


# ----------------------------------------------------------------------------
# Linear second-order boundary value problems by shooting
# ----------------------------------------------------------------------------


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    Only the shooting solver integrates ODEs, and ``verify`` never calls it,
    so the verification path does not load scipy.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _zero_rhs(t: float) -> float:
    return 0.0


@dataclass(frozen=True)
class SecondOrderODE:
    """Descriptor for u'' + p(t) u' + q(t) u = r(t) with continuous coefficients."""

    p: Callable[[float], float]
    q: Callable[[float], float]
    r: Callable[[float], float] = _zero_rhs


@dataclass(frozen=True)
class ShootingSolution:
    """Sampled BVP solution plus its left derivative and a dense evaluator.

    ``mesh`` holds the integrator's own step points (ascending); quadrature of
    functionals of the solution should use panels aligned with it, where the
    dense output is polynomial.
    """

    tau: np.ndarray
    u: np.ndarray
    du: np.ndarray
    deriv_left: float
    mesh: np.ndarray
    _dense: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def evaluate(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values and first derivatives at arbitrary points of the interval."""
        return self._dense(np.asarray(t, dtype=float))


def solve_bvp_shooting(
    ode: SecondOrderODE,
    interval: tuple[float, float],
    left_value: float,
    right_value: float,
    tol: ToleranceConfig | None = None,
    samples: int = 401,
) -> ShootingSolution:
    """Solve the linear BVP u(a)=left_value, u(b)=right_value.

    The problem is linear, so shooting reduces to integrating two terminal
    value problems from b backwards (the stable direction for the decaying
    profiles this package meets) and superposing them exactly.  Integration
    uses an adaptive 8th(5,3)-order embedded pair with local error controlled
    by the supplied tolerances.
    """
    tol = tol or ToleranceConfig()
    a, b = float(interval[0]), float(interval[1])
    if not (math.isfinite(a) and math.isfinite(b) and b > a):
        raise ShootingError(f"invalid interval {interval!r}")

    def rhs_full(t, y):
        return (y[1], ode.r(t) - ode.p(t) * y[1] - ode.q(t) * y[0])

    def rhs_homogeneous(t, y):
        return (y[1], -ode.p(t) * y[1] - ode.q(t) * y[0])

    rtol = min(max(tol.rel_tol, 450.0 * _EPS), 1e-3)
    atol = max(tol.abs_tol, 1e-30)

    def integrate(rhs, y_terminal):
        sol = solve_ivp(
            rhs,
            (b, a),
            y_terminal,
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )
        if not sol.success:
            raise ShootingError(f"ODE integration failed: {sol.message}")
        return sol

    sol_h = integrate(rhs_homogeneous, (0.0, 1.0))  # homogeneous-at-b direction
    uh0 = float(sol_h.sol(a)[0])
    if right_value == 0.0 and ode.r is _zero_rhs:
        sol_p = None
        up0 = 0.0
    else:
        sol_p = integrate(rhs_full, (float(right_value), 0.0))
        up0 = float(sol_p.sol(a)[0])
    # Resonance: the terminal-homogeneous shot vanishes at the left endpoint
    # (relative to its size over the interval), so no superposition can match
    # a generic left value.
    probe = np.linspace(a, b, 33)
    uh_scale = float(np.max(np.abs(sol_h.sol(probe)[0])))
    if abs(uh0) < 1e-12 * max(uh_scale, 1e-300):
        raise ShootingError(
            "resonant boundary value problem: homogeneous solution vanishes at the left end"
        )
    c = (float(left_value) - up0) / uh0

    def dense(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        yh = sol_h.sol(t)
        if sol_p is None:
            return c * yh[0], c * yh[1]
        yp = sol_p.sol(t)
        return yp[0] + c * yh[0], yp[1] + c * yh[1]

    tau = np.linspace(a, b, samples)
    u, du = dense(tau)
    # Pin the boundary samples to the imposed data (they match to rounding).
    u = u.copy()
    u[0], u[-1] = left_value, right_value
    mesh = np.unique(np.clip(sol_h.t, a, b))
    if sol_p is not None:
        mesh = np.unique(np.concatenate([mesh, np.clip(sol_p.t, a, b)]))
    return ShootingSolution(
        tau=tau, u=u, du=du, deriv_left=float(du[0]), mesh=mesh, _dense=dense
    )


# ----------------------------------------------------------------------------
# Asymptotic slope extraction
# ----------------------------------------------------------------------------


def fit_line(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares line y ~ intercept + slope x of one series; returns
    (intercept, slope), each the double nearest its exact value.

    The closed form, slope = (n Sxy - Sx Sy)/(n Sxx - Sx^2) and intercept =
    (Sy Sxx - Sx Sxy)/(n Sxx - Sx^2), is evaluated exactly: every double is
    an integer over a power of two, so over the largest denominator d of the
    data each sum is an integer, and integer true division rounds each ratio
    once.  Needs at least 2 finite points, one y per x, and x values that
    are not all equal.
    """
    xs, ys = [float(v) for v in x], [float(v) for v in y]
    n = len(xs)
    if n < 2 or len(ys) != n:
        raise FitError(f"a line fit needs at least 2 points and one y per x, got {n} x and {len(ys)} y values")
    values = xs + ys
    if not all(map(math.isfinite, values)):
        raise FitError("line-fit values must be finite")
    ratios = [v.as_integer_ratio() for v in values]
    d = max(den for _, den in ratios)
    scaled = [num * (d // den) for num, den in ratios]  # d * values, exactly
    X, Y = scaled[:n], scaled[n:]
    sx, sy = sum(X), sum(Y)
    sxx, sxy = sum(a * a for a in X), sum(a * b for a, b in zip(X, Y))
    det = n * sxx - sx * sx  # n d^2 times the centred sum of squares
    if det == 0:
        raise FitError("line-fit x values must not all be equal")
    try:
        return (sy * sxx - sx * sxy) / (det * d), (n * sxy - sx * sy) / det
    except OverflowError:
        raise FitError("the fitted line overflows a double") from None


def fit_inverse_m(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of value ~ limit + slope/m; returns (limit, slope).

    Exact (zero residual) on data affine in 1/m; the m-grid must contain at
    least three distinct finite positive masses.
    """
    pts = sorted((float(m), float(v)) for m, v in points)
    if len(pts) < 3:
        raise FitError("fit_inverse_m needs at least 3 points")
    ms = [m for m, _ in pts]
    if not all(0.0 < m < math.inf for m in ms) or any(a == b for a, b in zip(ms, ms[1:])):
        raise FitError("masses must be distinct, finite and positive")
    return fit_line([1.0 / m for m in ms], [v for _, v in pts])


def slope_drift(points: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Stability diagnostic: refit with the smallest mass dropped.

    Returns (slope of the full fit, relative slope drift).  A shrinking
    drift as coarse masses are dropped is the signature of a genuine
    limit + slope/m law with higher-order pollution.
    """
    pts = sorted((float(m), float(v)) for m, v in points)
    if len(pts) < 4:
        raise FitError("slope_drift needs at least 4 points")
    slope = fit_inverse_m(pts)[1]
    slope_trunc = fit_inverse_m(pts[1:])[1]
    return slope, abs(slope_trunc - slope) / max(abs(slope), 1e-300)
