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


def test_only_the_chain_verifier_catches_everything():
    # Replay turns any error into a rejected certificate; a broad handler
    # anywhere else would hide faults.
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
    assert found == ["engine.verify_chain"]
