"""Static guards over the package source: numpy is the only runtime
requirement, so the package imports nothing else outside the standard
library; and no invariant rests on an ``assert``, which ``python -O`` strips."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blockmol"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "blockmol"}


def imported_roots(tree: ast.Module) -> set[str]:
    """Top-level package of every absolute import anywhere in the module."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_numpy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {}
    for path in sources:
        extra = imported_roots(ast.parse(path.read_text(), str(path))) - ALLOWED
        if extra:
            outside[path.name] = sorted(extra)
    assert outside == {}


def test_the_guard_sees_nested_and_dotted_imports():
    tree = ast.parse("import os.path\nfrom . import chem\n"
                     "def f():\n    import scipy.stats\n    from pandas import DataFrame\n")
    assert imported_roots(tree) - ALLOWED == {"scipy", "pandas"}


def assert_lines(tree: ast.Module) -> list[int]:
    """Line of every ``assert`` statement anywhere in the module."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_package_has_no_assert_statements():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = assert_lines(ast.parse(path.read_text(), str(path)))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_the_guard_sees_nested_asserts():
    tree = ast.parse("assert x\n"
                     "class A:\n    def f(self):\n        if y:\n"
                     "            assert y, 'nested'\n")
    assert assert_lines(tree) == [1, 5]
