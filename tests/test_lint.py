"""Source rules the package keeps, checked on its syntax tree."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import bipartite_rigidity
from bipartite_rigidity import docio, fixtures
from bipartite_rigidity.engine import rigidity_test

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


#: The only functions that read a rational's parts or take an lcm: the one
#: clear of a vector and the writer of canonical text.
RATIONAL_PARTS_READERS = {"lp._clear", "docio._rat_to_str"}


def rational_part_reads(source: str, module: str) -> set[str]:
    """The functions (``module.qualname``) reading a rational's parts or taking an ``lcm``.

    Parts are read by ``.numerator``, ``.denominator`` or ``.as_integer_ratio``.
    """
    found = set()

    class Scopes(ast.NodeVisitor):
        def __init__(self):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr in ("numerator", "denominator", "as_integer_ratio", "lcm"):
                found.add(".".join(self.scope))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "lcm" and isinstance(node.ctx, ast.Load):
                found.add(".".join(self.scope))

    Scopes().visit(ast.parse(source))
    return found


def test_rationals_are_cleared_in_one_place():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= rational_part_reads(path.read_text(), path.stem)
    assert found == RATIONAL_PARTS_READERS


def test_rational_part_check_sees_a_read():
    source = ("from math import lcm\nclass A:\n    def f(self, v):\n"
              "        return v.numerator\ndef g(vs):\n    return lcm(*vs)\n"
              "def h(v):\n    return v.as_integer_ratio()\n")
    assert rational_part_reads(source, "m") == {"m.A.f", "m.g", "m.h"}


def joint_clears(source: str, module: str) -> set[str]:
    """The functions (``module.qualname``) calling ``_clear`` on a comprehension with two ``for``s.

    Such a call clears a whole point set by one common denominator.
    """
    found = set()

    class Scopes(ast.NodeVisitor):
        def __init__(self):
            self.scope = [module]

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef

        def visit_Call(self, node):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            comps = (ast.ListComp, ast.GeneratorExp, ast.SetComp)
            if name == "_clear" and any(
                isinstance(arg, comps) and len(arg.generators) >= 2 for arg in node.args
            ):
                found.add(".".join(self.scope))
            self.generic_visit(node)

    Scopes().visit(ast.parse(source))
    return found


def test_one_joint_clear():
    # Every exact check clears each point by its own denominator
    # (geometry._hats); only the float prescale needs one uniform scale.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= joint_clears(path.read_text(), path.stem)
    assert found == {"stress._prescaled"}


def test_joint_clear_check_sees_calls():
    source = (
        "def f(points):\n    return _clear([v for pt in points for v in pt])\n"
        "def g(points):\n    return [_clear(pt) for pt in points]\n"
        "class A:\n    def h(self, rows):\n"
        "        return lp._clear(v for row in rows if row for v in row)\n"
    )
    assert joint_clears(source, "m") == {"m.f", "m.A.h"}


def triangle_loops(source: str) -> list[int]:
    """Lines where ``range(i, ...)`` runs inside a loop over ``i``: an upper-triangle walk."""
    found = []
    for node in ast.walk(ast.parse(source)):
        scopes = []
        if isinstance(node, ast.For):
            scopes.append((node.target, node.body))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            tail = [getattr(node, name) for name in ("elt", "key", "value") if hasattr(node, name)]
            for k, gen in enumerate(node.generators):
                scopes.append((gen.target, node.generators[k + 1 :] + tail))
        for target, body in scopes:
            if not isinstance(target, ast.Name):
                continue
            found.extend(
                sub.lineno
                for part in body
                for sub in ast.walk(part)
                if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id == "range" and sub.args
                and isinstance(sub.args[0], ast.Name) and sub.args[0].id == target.id
            )
    return found


def test_upper_triangle_layout_lives_in_geometry():
    # Lifts, quadrics and Grams share one layout; only geometry walks it.
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "geometry"
        for line in triangle_loops(path.read_text())
    ]
    assert found == []
    assert triangle_loops((PACKAGE / "geometry.py").read_text())


def test_triangle_check_sees_loops_and_comprehensions():
    source = (
        "pairs = [(i, j) for i in range(k) for j in range(i, k)]\n"
        "for a in range(k):\n    for b in range(a, k):\n        pass\n"
        "square = [(i, j) for i in range(k) for j in range(k)]\n"
    )
    assert sorted(triangle_loops(source)) == [1, 3]


def module_level_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` of every import that runs when the module is imported.

    Imports inside a function body run only when it is called, so they are
    left out; class bodies and top-level ``if``/``try`` blocks are searched.
    """
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                found.append((child.lineno, child.module))
            visit(child)

    visit(ast.parse(source))
    return found


def test_no_module_level_numpy_import():
    # Deciding, replaying and parsing need no numpy; only the float extras
    # import it, inside the functions that use it.
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, module in module_level_imports(path.read_text())
        if module.split(".")[0] == "numpy"
    ]
    assert found == []


def test_module_level_import_check_skips_function_bodies():
    source = (
        "import numpy.linalg\nif True:\n    from numpy import array\n"
        "def f():\n    import numpy as np\n    return np\n"
    )
    assert module_level_imports(source) == [(1, "numpy.linalg"), (3, "numpy")]


def test_package_import_loads_only_the_decision_path():
    # ``import bipartite_rigidity`` is the whole set-up of a decision; the
    # document, command-line and fixture modules, and what they import, load
    # only when asked for.
    unneeded = ["bipartite_rigidity.docio", "bipartite_rigidity.cli",
                "bipartite_rigidity.fixtures", "json", "argparse", "numpy"]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bipartite_rigidity\n"
         f"print([name for name in {unneeded!r} if name in sys.modules],\n"
         "      'bipartite_rigidity.engine' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] True\n"


#: Run in a fresh interpreter: decide and verify every fixture, parse the
#: chain texts, run a one-file ``check``, then report whether numpy loaded.
EXACT_PATH = """
import json, sys
from pathlib import Path
import bipartite_rigidity
from bipartite_rigidity import cli, docio, fixtures
from bipartite_rigidity.engine import rigidity_test, verify_chain
folder = Path(sys.argv[1])
ok = True
for name, fx in fixtures.all_fixtures().items():
    verdict, chain = rigidity_test(fx.framework)
    ok &= verify_chain(fx.framework, chain)
    parsed = docio.parse_chain((folder / (name + ".chain.json")).read_text())
    ok &= verify_chain(fx.framework, parsed) and parsed == chain
code = cli.main(["check", str(folder / "cube_k44.json")])
print(json.dumps([ok, code, "numpy" in sys.modules]))
"""


def test_exact_path_never_loads_numpy(tmp_path):
    # Writing a chain measures each stress's least eigenvalue, which loads
    # numpy, so the chain texts are written here, not in the subprocess.
    fixtures.emit_fixtures(tmp_path)
    for name, fx in fixtures.all_fixtures().items():
        text = docio.serialize_chain(rigidity_test(fx.framework)[1])
        (tmp_path / f"{name}.chain.json").write_text(text)
    proc = subprocess.run(
        [sys.executable, "-c", EXACT_PATH, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert proc.returncode == 0, proc.stderr
    *printed, report = proc.stdout.splitlines()
    assert printed == ["universally-rigid"]
    assert json.loads(report) == [True, 0, False]


def indented_json_calls(source: str) -> list[int]:
    """Lines calling ``json.dumps`` or ``json.dump`` (or a bare ``dumps``/``dump``) with ``indent=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("dumps", "dump") and any(kw.arg == "indent" for kw in node.keywords):
            found.append(node.lineno)
    return found


def test_one_canonical_json_writer():
    # With ``indent`` set, ``json.dumps`` takes the pure-Python encoder;
    # every indented document goes through ``docio.canonical_json``.
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in indented_json_calls(path.read_text())
    ]
    assert found == []


def test_indented_json_check_sees_calls():
    source = (
        "import json\nfrom json import dump\n"
        "json.dumps(doc, indent=2)\njson.dumps(doc)\ndump(doc, f, indent=None)\n"
    )
    assert indented_json_calls(source) == [3, 5]
