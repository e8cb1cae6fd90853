"""Source rules the package keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

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
