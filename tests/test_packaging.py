import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
DISTRIBUTIONS = {"yaml": "PyYAML"}  # import name -> distribution name, where they differ


def imported_packages() -> set[str]:
    """Top-level names of every non-stdlib import in the package, function bodies too."""
    names = set()
    for path in (ROOT / "src" / "nullsheet").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"nullsheet"}


def test_imports_match_declared_dependencies():
    """No undeclared import, and no declared dependency that nothing imports."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in project["dependencies"]}
    assert {DISTRIBUTIONS.get(name, name) for name in imported_packages()} == declared


def test_public_names_resolve():
    """Every name ``nullsheet.__all__`` exports is an attribute of the package."""
    import nullsheet

    assert [name for name in nullsheet.__all__ if not hasattr(nullsheet, name)] == []
