"""Per-layer tracing of mitbag from outside the package.

The tracer wraps public functions of the mitbag modules and rebinds every
name that refers to them in every loaded ``mitbag`` module (``cli`` binds
names with ``from .x import f``, and keeps the suite runners in a dict), so
calls made anywhere inside the package pass through the wrapper.  Each
wrapper opens a span: layer, start, end, parent span and request id (one
request is one ``run_suite`` iteration or one spectra pass).  A call into a
layer from inside the same layer (``spherical_bessel_j_deriv`` calling
``spherical_bessel_j``) is part of the outer call and opens no span.

Span stacks are per thread, so self time stays right when ``cli._pmap`` runs
sweeps on a thread pool: a span's self time is its duration minus the spans
it caused in the same thread.  Spans are kept in memory (flat arrays) and
written after the run.  ``install`` fails if a listed function is missing
from the package, so a renamed layer is re-pointed here rather than read as 0.
"""

from __future__ import annotations

import array
import gzip
import itertools
import sys
import threading
import time
from typing import Any, Callable

# (layer, module, functions).  Layer names are the per-layer metric prefixes.
SPAN_LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli.suite.transverse", "cli", ("run_transverse_suite",)),
    ("cli.suite.exterior", "cli", ("run_exterior_suite",)),
    ("cli.suite.dirac", "cli", ("run_dirac_suite",)),
    ("cli.suite.robin", "cli", ("run_robin_suite",)),
    ("cli.pmap", "cli", ("_pmap",)),
    ("transverse.solve", "transverse", ("solve_transverse",)),
    ("transverse.form", "transverse", ("transverse_form",)),
    ("transverse.residual", "transverse", ("residual_of_ansatz",)),
    ("numerics.shooting", "numerics", ("solve_bvp_shooting",)),
    ("numerics.ode", "numerics", ("solve_ivp",)),
    ("numerics.brent", "numerics", ("find_root_bracketed",)),
    ("special.j", "special", ("spherical_bessel_j", "spherical_bessel_j_deriv")),
    ("special.k", "special", ("modified_spherical_bessel_k_scaled", "modified_spherical_bessel_k_scaled_deriv")),
    ("dirac_ball.mit", "dirac_ball", ("mit_spectrum_signed", "mit_eigenvalues")),
    ("dirac_ball.largemass", "dirac_ball", ("largemass_spectrum_signed", "largemass_eigenvalues")),
    ("dirac_ball.robin", "dirac_ball", ("robin_laplacian_eigenvalues",)),
    ("dirac_ball.eigenpair", "dirac_ball", ("mit_eigenpair", "largemass_eigenpair", "robin_eigenpair")),
    ("exterior.energy", "exterior", ("exterior_energy",)),
    ("exterior.agmon", "exterior", ("agmon_decay_check",)),
    ("report.emit", "report", ("emit_table",)),
    ("report.write", "report", ("write_report_atomic",)),
)

# Quadrature rules: counted (nodes returned), no span.
QUAD_FUNCTIONS = ("panel_nodes", "mesh_aligned_nodes")

# Eigen-solve layers whose argument tuples feed dirac_ball.solve.distinct_ratio.
SOLVE_LAYERS = ("dirac_ball.mit", "dirac_ball.largemass", "dirac_ball.robin")


class _ThreadState:
    """Span stack, per-layer sums and span arrays of one thread."""

    def __init__(self, n_layers: int) -> None:
        self.stack: list[list[Any]] = []  # [layer, child seconds, span id]
        self.calls = [0] * n_layers
        self.total = [0.0] * n_layers
        self.self_s = [0.0] * n_layers
        self.counts: dict[str, int] = {}
        self.span_id = array.array("q")
        self.span_parent = array.array("q")
        self.span_layer = array.array("i")
        self.span_request = array.array("q")
        self.span_start = array.array("d")
        self.span_end = array.array("d")


class _Local(threading.local):
    """Gives each thread its own _ThreadState, registered with the tracer."""

    def __init__(self, tracer: "Tracer") -> None:
        self.state = _ThreadState(len(tracer.layers))
        with tracer.lock:
            tracer.states.append(self.state)


class Tracer:
    """Wraps the mitbag layers in place; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.layers = [name for name, _, _ in SPAN_LAYERS]
        self.lock = threading.Lock()
        self.states: list[_ThreadState] = []
        self.tls = _Local(self)
        self.request = 0
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._solve_keys: set[tuple[Any, ...]] = set()
        self._solve_calls = 0
        self._patches: list[tuple[Any, str, Any]] = []
        self._dict_patches: list[tuple[dict, Any, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        packages = [m for name, m in sys.modules.items() if name == "mitbag" or name.startswith("mitbag.")]
        targets = [(index, module, fn) for index, (_, module, functions) in enumerate(SPAN_LAYERS) for fn in functions]
        targets += [(None, "numerics", fn) for fn in QUAD_FUNCTIONS]
        found = {(module, fn): getattr(sys.modules.get(f"mitbag.{module}"), fn, None) for _, module, fn in targets}
        missing = [f"mitbag.{module}.{fn}" for (module, fn), original in found.items() if not callable(original)]
        if missing:
            raise LookupError(f"traced functions not found: {', '.join(missing)}")
        before, after = self._before_hooks(), self._after_hooks()
        for index, module, fn in targets:
            original = found[(module, fn)]
            if index is None:
                wrapper = self._quad_wrapper(original)
            else:
                layer = self.layers[index]
                wrapper = self._span_wrapper(original, index, before.get(layer), after.get(layer))
            self._rebind(packages, original, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        for table, key, original in reversed(self._dict_patches):
            table[key] = original
        self._patches.clear()
        self._dict_patches.clear()

    def _rebind(self, modules: list[Any], original: Any, wrapper: Any) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original))
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = wrapper
                            self._dict_patches.append((value, key, original))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(
        self,
        fn: Callable[..., Any],
        index: int,
        before: Callable[..., Any] | None,
        after: Callable[..., Any] | None,
    ) -> Callable[..., Any]:
        tls = self.tls
        ids = self._ids
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = tls.state
            stack = state.stack
            if stack and stack[-1][0] == index:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(fn, args, kwargs)
            span = next(ids)
            parent = stack[-1][2] if stack else 0
            frame = [index, 0.0, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                state.calls[index] += 1
                state.total[index] += duration
                state.self_s[index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                state.span_id.append(span)
                state.span_parent.append(parent)
                state.span_layer.append(index)
                state.span_request.append(self.request)
                state.span_start.append(start - self.t0)
                state.span_end.append(end - self.t0)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _quad_wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            self._count("numerics.quad.nodes", len(result[0]))
            return result

        return wrapper

    def _count(self, name: str, amount: int) -> None:
        counts = self.tls.state.counts
        counts[name] = counts.get(name, 0) + amount

    def _before_hooks(self) -> dict[str, Callable[..., Any]]:
        def brent(fn: Any, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            f = args[0] if args else kwargs["f"]

            def counted(x: Any) -> Any:
                self._count("numerics.brent.f_evals", 1)
                return f(x)

            if args:
                return (counted,) + tuple(args[1:]), kwargs
            return args, {**kwargs, "f": counted}

        def solve(fn: Any, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            # Materialize iterables so the key is a value, not an object id.
            args = tuple(tuple(a) if isinstance(a, (list, tuple)) or hasattr(a, "__next__") else a for a in args)
            key = (self.request, fn.__name__, repr(args), repr(sorted(kwargs.items())))
            with self.lock:
                self._solve_calls += 1
                self._solve_keys.add(key)
            return args, kwargs

        def pmap(fn: Any, args: tuple, kwargs: dict) -> tuple[tuple, dict]:
            items = list(args[1] if len(args) > 1 else kwargs.pop("items"))
            self._count("cli.pmap.items", len(items))
            return (args[0], items) + tuple(args[2:]), kwargs

        hooks: dict[str, Callable[..., Any]] = {"numerics.brent": brent, "cli.pmap": pmap}
        hooks.update({layer: solve for layer in SOLVE_LAYERS})
        return hooks

    def _after_hooks(self) -> dict[str, Callable[..., Any]]:
        def ode(args: tuple, kwargs: dict, result: Any) -> None:
            self._count("numerics.ode.rhs_evals", int(result.nfev))
            self._count("numerics.ode.steps", len(result.t) - 1)

        def emit(args: tuple, kwargs: dict, result: Any) -> None:
            self._count("report.bytes", len(result))

        return {"numerics.ode": ode, "report.emit": emit}

    # -- results ------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Sums over all threads: <layer>.calls/.total_s/.self_s and counters."""
        out: dict[str, float] = {}
        with self.lock:
            states = list(self.states)
            solve_calls, solve_distinct = self._solve_calls, len(self._solve_keys)
        for i, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = sum(s.calls[i] for s in states)
            out[f"{layer}.total_s"] = sum(s.total[i] for s in states)
            out[f"{layer}.self_s"] = sum(s.self_s[i] for s in states)
        for s in states:
            for name, value in s.counts.items():
                out[name] = out.get(name, 0) + value
        out["dirac_ball.solve.calls"] = solve_calls
        out["dirac_ball.solve.distinct"] = solve_distinct
        return out

    def write_spans(self, path: str) -> int:
        """Write every span as gzipped CSV (times in microseconds since the
        tracer started); returns the number of spans written."""
        with self.lock:
            states = list(self.states)
        rows = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("thread,span,parent,request,layer,start_us,end_us\n")
            for thread, s in enumerate(states):
                layers = [self.layers[i] for i in s.span_layer]
                handle.writelines(
                    f"{thread},{span},{parent},{request},{layer},{round(t0 * 1e6)},{round(t1 * 1e6)}\n"
                    for span, parent, request, layer, t0, t1 in zip(
                        s.span_id, s.span_parent, s.span_request, layers, s.span_start, s.span_end
                    )
                )
                rows += len(s.span_id)
        return rows
