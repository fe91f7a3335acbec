"""Every top-level function of ``src/mitbag`` has a caller in the package,
every public method or property of a class has a reader, and every dataclass
field has a reader.

A public function that only its own tests call is code the report never
exercises; it is either wired into a check or deleted.  A private function or
class that nothing refers to is left behind by a deleted caller.  The
re-exports in ``__init__.py`` do not count as callers, and neither does a
definition's own body.  Likewise a method or property that no code outside its
own body reads, and a dataclass field that no code reads other than its own
class's ``__post_init__``, is code or state the report never uses.  Methods
and fields are matched by attribute name, whatever the object.
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

ALLOWED_UNREAD_FIELDS = {
    # Filled by solve_bvp_shooting, which perfbench/tracer.py wraps by name;
    # they go with it (ROADMAP item 1).
    "ShootingSolution.du": "tracer-pinned shooting solver output",
    "ShootingSolution.deriv_left": "tracer-pinned shooting solver output",
    "ShootingSolution.mesh": "tracer-pinned shooting solver output",
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


def _methods_and_reads() -> tuple[set[str], set[tuple[str | None, str]]]:
    """"Class.method" for every public method and property of a top-level
    class in src/, and the attribute names read there, each with the method
    whose body reads it (None elsewhere)."""
    methods: set[str] = set()
    reads: set[tuple[str | None, str]] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owner: dict[int, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        methods.add(f"{node.name}.{item.name}")
                        owner.update((id(sub), f"{node.name}.{item.name}") for sub in ast.walk(item))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add((owner.get(id(sub)), sub.attr))
    return methods, reads


def test_every_public_method_is_read_in_src():
    methods, reads = _methods_and_reads()
    unread = sorted(
        method for method in methods if not any(attr == method.split(".")[1] and by != method for by, attr in reads)
    )
    assert unread == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _fields_and_reads() -> tuple[set[str], set[tuple[str | None, str]]]:
    """"Class.field" for every dataclass field in src/, and the attribute
    names read there, each with the dataclass whose ``__post_init__`` reads
    it (None elsewhere)."""
    fields: set[str] = set()
    reads: set[tuple[str | None, str]] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        post_init: dict[int, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        fields.add(f"{node.name}.{item.target.id}")
                    elif isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                        post_init.update((id(sub), node.name) for sub in ast.walk(item))
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                reads.add((post_init.get(id(sub)), sub.attr))
    return fields, reads


def _unread_fields() -> set[str]:
    fields, reads = _fields_and_reads()
    return {
        field
        for field in fields
        if not any(attr == field.split(".")[1] and owner != field.split(".")[0] for owner, attr in reads)
    }


def test_every_dataclass_field_is_read_in_src():
    assert sorted(_unread_fields() - set(ALLOWED_UNREAD_FIELDS)) == []


def test_unread_field_allow_list_names_unread_fields():
    assert set(ALLOWED_UNREAD_FIELDS) <= _unread_fields()
