"""Every name a module of the package imports is used in it or exported,
and every private module-level function or class is referenced by some
module of the package.  No module imports ``mpmath`` (the package has no
runtime dependency), ``dataclasses`` or ``typing`` (their imports would
dominate the command line's start-up), and ``import toricheight.cli``
loads no module outside a pinned set."""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "toricheight"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree):
    """Names bound by the module's imports that it never reads and does not
    list in ``__all__``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _references(tree):
    """Every name the tree reads, as a bare name, an attribute or an
    imported name, with its count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_privates(trees):
    """``(module, line, name)`` of the private module-level functions and
    classes of the named module trees that no tree references outside the
    definition itself."""
    everywhere = sum((_references(t) for t in trees.values()), Counter())
    out = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__") and everywhere[node.name] <= _references(node)[node.name]):
                out.append((module, node.lineno, node.name))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_detects_unused_import():
    tree = ast.parse("import os, sys\nfrom math import gcd as g, lcm\n__all__ = ['lcm']\nprint(sys)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "g")]


def test_every_private_definition_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in PACKAGE.glob("*.py")}
    assert unreferenced_privates(trees) == []


def test_detects_unreferenced_private():
    a = (
        "def _used():\n    return 1\n"
        "def _dead():\n    return _used()\n"
        "class _Dead:\n    pass\n"
        "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
        "def _elsewhere():\n    pass\n"
        "def _by_attribute():\n    pass\n"
    )
    b = "from .a import _elsewhere\nimport a\n_elsewhere()\na._by_attribute()\n"
    trees = {"a.py": ast.parse(a), "b.py": ast.parse(b)}
    assert unreferenced_privates(trees) == [("a.py", 3, "_dead"), ("a.py", 5, "_Dead"), ("a.py", 7, "_recursive")]


@pytest.mark.parametrize("module", ["mpmath", "dataclasses", "typing"])
def test_no_module_imports(module):
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                assert all(a.name.split(".")[0] != module for a in node.names), (path.name, node.lineno)
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != module, (path.name, node.lineno)


# what ``import toricheight.cli`` adds to a fresh interpreter's ``sys.modules``
CLI_MODULES = {
    "__future__", "_decimal", "_json", "argparse", "decimal", "fractions", "gettext", "json", "json.decoder",
    "json.encoder", "json.scanner", "numbers", "toricheight", "toricheight.cli", "toricheight.errors",
    "toricheight.exactnum", "toricheight.geomkernel", "toricheight.mixed", "toricheight.roof", "toricheight.toric",
}


def test_cli_import_set():
    # an isolated interpreter (-I: no site customizations or PYTHON*
    # variables), its modules before and after the import: a new module on
    # the command line's import path would move its start-up time
    code = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import toricheight.cli; "
            "print(*sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(PACKAGE.parent)], capture_output=True, text=True, check=True)
    loaded = set(out.stdout.split())
    assert "toricheight.cli" in loaded and loaded <= CLI_MODULES, sorted(loaded - CLI_MODULES)
