"""Source rules the package keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import bipartite_rigidity

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bipartite_rigidity"


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so every check the package
    # relies on has to raise explicitly.
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_public_names_resolve():
    missing = [name for name in bipartite_rigidity.__all__
               if not hasattr(bipartite_rigidity, name)]
    assert missing == []


def test_no_subset_enumeration():
    # Enumerating every subset is exponential; the engine decides by exact
    # LPs and elimination instead.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            imported = (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                        and any(alias.name == "combinations" for alias in node.names))
            qualified = (isinstance(node, ast.Attribute) and node.attr == "combinations"
                         and isinstance(node.value, ast.Name) and node.value.id == "itertools")
            if imported or qualified:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_broad_exception_handlers():
    # A broad handler turns a fault into an answer: replay would read a
    # verifier bug as a rejected certificate.  Every handler names the
    # errors it expects.
    found = []

    class Scopes(ast.NodeVisitor):
        def __init__(self, module):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_ExceptHandler(self, node):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            broad = ("Exception", "BaseException")
            if any(t is None or (isinstance(t, ast.Name) and t.id in broad) for t in caught):
                found.append(".".join(self.scope))
            self.generic_visit(node)

    for path in sorted(PACKAGE.glob("*.py")):
        Scopes(path.stem).visit(ast.parse(path.read_text(), filename=str(path)))
    assert found == []


#: Imports kept although their module never reads them.
UNUSED_IMPORTS_ALLOWED = {
    # perfbench/spans.py HOOKS rebinds engine.max_margin_quadric.
    ("engine", "max_margin_quadric"),
    # perfbench/spans.py HOOKS rebinds reduction.in_affine_span and
    # reduction.linear_rank.
    ("reduction", "in_affine_span"),
    ("reduction", "linear_rank"),
    # perfbench/spans.py HOOKS rebinds stress.affine_span_dim and
    # stress.affine_spans_equal.
    ("stress", "affine_span_dim"),
    ("stress", "affine_spans_equal"),
}


def unused_imports(source: str, module: str, allowed=UNUSED_IMPORTS_ALLOWED) -> list[str]:
    """The names a module imports at its top level and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{module}:{line} {name}"
        for name, line in imported.items()
        if name not in used and (module, name) not in allowed
    ]


def test_no_unused_imports():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    assert paths
    found = [
        name for path in paths for name in unused_imports(path.read_text(), path.stem)
    ]
    assert found == []
    # Every allowed import is still imported and unused, so none outlives its hook.
    stale = {
        (path.stem, name.split()[-1])
        for path in paths
        for name in unused_imports(path.read_text(), path.stem, allowed=set())
    }
    assert stale == UNUSED_IMPORTS_ALLOWED


def test_unused_import_check_sees_a_dropped_use():
    source = "from .lp import ZERO, ONE\n\ndef f():\n    return ZERO\n"
    assert unused_imports(source, "stress") == ["stress:1 ONE"]
