"""Static checks on the package source, written with the stdlib ``ast``
module because no linter is a dependency:

- every imported name is used in its module;
- no ``assert`` at all, since ``python -O`` strips asserts; a check that
  guards a result must raise;
- every module-level import is from the standard library or relative, so
  importing the package needs no third-party module (imports inside
  functions, such as the ``networkx`` oracles, are fine);
- every private module-level function or class is referenced somewhere in
  the package, so dead helpers do not linger;
- the collector policy has one owner: only ``graph.py``, home of the
  pause helper, switches the ``gc`` off and on, and no module collects,
  freezes or retunes it.
- no nested function names itself: its closure would then hold it, a
  reference cycle that keeps every call's locals alive until the
  collector runs, which the pause may postpone.

One more check runs the code: importing every module in a fresh
interpreter loads neither ``networkx`` nor ``numpy``, not even through
another module.  And the README's sentence "`src/localcolor` has N lines"
gives the count of ``wc -l src/localcolor/*.py``.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "localcolor"


def unused_imports(tree: ast.AST) -> list[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def asserts(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def third_party_imports(tree: ast.Module) -> list[str]:
    modules = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            modules += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]


GC_PAUSE = {"disable", "enable"}
GC_TUNING = {"collect", "freeze", "set_threshold"}


def gc_uses(tree: ast.AST) -> set[str]:
    """Names of ``gc`` the module uses, as ``gc.name`` or imported from it."""
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "gc"):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            used.update(a.name for a in node.names)
    return used


def self_naming_closures(tree: ast.AST) -> list[str]:
    """``outer.inner`` for each function nested in a function that names
    itself in its own body."""
    found = []
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if (inner is not outer
                        and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and any(isinstance(n, ast.Name) and n.id == inner.name
                                for n in ast.walk(inner))):
                    found.append(f"{outer.name}.{inner.name}")
    return found


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each private module-level function or class that
    no module of ``trees`` names, by a bare name or an attribute."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(f"{mod}.{node.name}" for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in used)


def test_checkers_catch_what_they_look_for():
    assert (SRC / "__init__.py").is_file()
    tree = ast.parse("import os\nimport os.path as osp\nfrom a import b, c\n"
                     "from __future__ import annotations\nprint(b, osp)\n"
                     "assert verify.is_proper_edge(g, col).ok\n"
                     "assert not is_proper_vertex(g, col).violations\nassert ok\n")
    assert unused_imports(tree) == ["c", "os"]
    assert asserts(tree) == [6, 7, 8]
    tree = ast.parse("from __future__ import annotations\nimport os.path, sympy\n"
                     "from . import graph\nfrom .sim import run\nfrom numpy.linalg import norm\n"
                     "def oracle():\n    import networkx\n")
    assert third_party_imports(tree) == ["sympy", "numpy.linalg"]
    trees = {"a": ast.parse("def _dead():\n    pass\ndef _used():\n    pass\n"
                            "class _Gone:\n    def _method(self):\n        pass\n"
                            "def __getattr__(name):\n    pass\n"),
             "b": ast.parse("from .a import _used\nimport a\n"
                            "def public():\n    return _used(), a._Kept\nclass _Kept:\n    pass\n")}
    assert unreferenced_privates(trees) == ["a._Gone", "a._dead"]
    tree = ast.parse("import gc\nfrom gc import freeze\ngc.disable()\nif gc.isenabled():\n"
                     "    gc.collect(2)\n")
    assert gc_uses(tree) == {"freeze", "disable", "isenabled", "collect"}
    tree = ast.parse("def rec(n):\n    return rec(n - 1) if n else 0\n"
                     "def outer(xs):\n    def walk(x):\n        return [walk(y) for y in x]\n"
                     "    def flat(x):\n        return x\n    return walk(xs), flat\n")
    assert self_naming_closures(tree) == ["outer.walk"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_hygiene(path):
    tree = ast.parse(path.read_text(), str(path))
    assert unused_imports(tree) == []
    assert asserts(tree) == []
    assert third_party_imports(tree) == []
    assert not gc_uses(tree) & GC_TUNING
    if path.name != "graph.py":  # the home of the collector pause
        assert not gc_uses(tree) & GC_PAUSE
    assert self_naming_closures(tree) == []


def test_no_unreferenced_private_definitions():
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_privates(trees) == []


def test_importing_the_package_loads_no_heavy_module():
    # set-up time in the benchmark includes every module-level import, and
    # networkx alone takes longer than building a benchmark input
    modules = ", ".join(f"localcolor.{p.stem}" for p in sorted(SRC.glob("*.py"))
                        if p.stem != "__init__")
    code = (f"import json, sys\nimport {modules}\n"
            "print(json.dumps(sorted(m for m in ('networkx', 'numpy') if m in sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == []


def test_readme_states_the_package_line_count():
    readme = (SRC.parent.parent / "README.md").read_text()
    stated = re.findall(r"`src/localcolor` has ([\d,]+) lines", readme)
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert [int(n.replace(",", "")) for n in stated] == [lines]
