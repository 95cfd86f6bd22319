"""The package exports only what the library itself or the benchmark reaches.

A name in ``latchain.__all__`` must be read, outside its own definition,
by a library module other than ``__init__`` or by a benchmark script in
``perfbench/``. A function that only the tests call belongs in
``tests/helpers.py`` instead.
"""

import ast
from pathlib import Path

import latchain

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "latchain").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "perfbench").glob("*.py"))

# the documented reader of the poset text that `latchain build` writes
READERS = {"poset_from_text"}


def _reads(tree: ast.AST) -> set:
    """The names a module reads, bare or as an attribute, each outside the
    function or class of the same name."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, inside = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside |= {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = node.attr
        else:
            name = None
        if name is not None and name not in inside:
            found.add(name)
        stack += [(child, inside) for child in ast.iter_child_nodes(node)]
    return found


def test_every_export_is_reached_by_the_library_or_the_benchmark():
    assert len(SOURCES) > 8, "library or benchmark sources not found"
    assert READERS <= set(latchain.__all__)
    reached = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES))
    unreached = sorted(set(latchain.__all__) - reached - READERS)
    assert unreached == [], f"exported but reached only by tests: {unreached}"


def test_reads_skip_a_definitions_own_body():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\nclass C:\n    def g(self):\n        return C.h, g\n")
    # f inside f, and C and g inside C.g, are skipped; the attribute h is not
    assert _reads(tree) == {"n", "h"}
