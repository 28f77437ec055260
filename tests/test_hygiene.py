"""Static checks on the package source, written with the stdlib ``ast``
module because no linter is a dependency:

- every imported name is used in its module;
- no ``assert`` guards properness (``is_proper_vertex``/``is_proper_edge``),
  since ``python -O`` strips asserts; such checks must raise;
- every module-level import is from the standard library or relative, so
  importing the package needs no third-party module (imports inside
  functions, such as the ``networkx`` oracles, are fine).
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "localcolor"
PROPERNESS = {"is_proper_vertex", "is_proper_edge"}


def unused_imports(tree: ast.AST) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def properness_asserts(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            for call in ast.walk(node.test):
                if isinstance(call, ast.Call):
                    f = call.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    if name in PROPERNESS:
                        lines.append(node.lineno)
    return lines


def third_party_imports(tree: ast.Module) -> list[str]:
    modules = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]


def test_checkers_catch_what_they_look_for():
    assert (SRC / "__init__.py").is_file()
    tree = ast.parse("import os\nimport os.path as osp\nfrom a import b, c\n"
                     "from __future__ import annotations\nprint(b, osp)\n"
                     "assert verify.is_proper_edge(g, col).ok\n"
                     "assert not is_proper_vertex(g, col).violations\nassert ok\n")
    assert unused_imports(tree) == ["c", "os"]
    assert properness_asserts(tree) == [6, 7]
    tree = ast.parse("from __future__ import annotations\nimport os.path, sympy\n"
                     "from . import graph\nfrom .sim import run\nfrom numpy.linalg import norm\n"
                     "def oracle():\n    import networkx\n")
    assert third_party_imports(tree) == ["sympy", "numpy.linalg"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_hygiene(path):
    tree = ast.parse(path.read_text(), str(path))
    assert unused_imports(tree) == []
    assert properness_asserts(tree) == []
    assert third_party_imports(tree) == []
