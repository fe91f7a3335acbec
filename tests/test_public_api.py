"""Every top-level function of ``src/mitbag`` has a caller in the package.

A public function that only its own tests call is code the report never
exercises; it is either wired into a check or deleted.  A private function or
class that nothing refers to is left behind by a deleted caller.  The
re-exports in ``__init__.py`` do not count as callers, and neither does a
definition's own body.
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


def _definitions_and_callers() -> tuple[dict[str, str], dict[str, str], set[str]]:
    """Public top-level functions and private top-level functions and classes
    (name -> module), and the names read outside the definition that binds them."""
    public: dict[str, str] = {}
    private: dict[str, str] = {}
    called: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            names = _referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_"):
                    private[node.name] = path.name
                elif isinstance(node, ast.FunctionDef):
                    public[node.name] = path.name
            called |= names
    return public, private, called


def test_every_public_function_has_a_caller_in_src():
    public, _, called = _definitions_and_callers()
    orphans = sorted(
        f"{module}:{name}"
        for name, module in public.items()
        if name not in called and name not in ALLOWED_WITHOUT_CALLER
    )
    assert orphans == []


def test_every_private_definition_is_referenced_in_src():
    _, private, called = _definitions_and_callers()
    orphans = sorted(f"{module}:{name}" for name, module in private.items() if name not in called)
    assert orphans == []


def test_allow_list_names_existing_functions():
    public, _, _ = _definitions_and_callers()
    assert ALLOWED_WITHOUT_CALLER <= set(public)
