"""numpy is the only runtime requirement: the package imports nothing else
outside the standard library."""

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
