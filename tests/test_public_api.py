"""Every public top-level function of ``src/mitbag`` has a caller in the package.

A public function that only its own tests call is code the report never
exercises; it is either wired into a check or deleted.  The re-exports in
``__init__.py`` do not count as callers, and neither does a function's own
body.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mitbag"

ALLOWED_WITHOUT_CALLER = {
    # Wrapped by name by perfbench/tracer.py, so they stay until the
    # benchmark stops tracing them (ROADMAP item 1).
    "solve_bvp_shooting",
    "mesh_aligned_nodes",
    "spherical_bessel_j_deriv",
    "largemass_eigenpair",
    # Public API: reads a JSON report back into a Report.
    "parse_report_json",
}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names read under ``node``, bare (``f``) or as attributes (``mod.f``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
    return names


def _public_functions_and_callers() -> tuple[dict[str, str], set[str]]:
    defined: dict[str, str] = {}
    called: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _referenced_names(node)
            if isinstance(node, ast.FunctionDef):
                names.discard(node.name)
                if not node.name.startswith("_"):
                    defined[node.name] = path.name
            called |= names
    return defined, called


def test_every_public_function_has_a_caller_in_src():
    defined, called = _public_functions_and_callers()
    orphans = sorted(
        f"{module}:{name}"
        for name, module in defined.items()
        if name not in called and name not in ALLOWED_WITHOUT_CALLER
    )
    assert orphans == []


def test_allow_list_names_existing_functions():
    defined, _ = _public_functions_and_callers()
    assert ALLOWED_WITHOUT_CALLER <= set(defined)
