"""The package imports only the standard library, numpy and scipy."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "extval").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imported_packages(tree: ast.AST) -> list[str]:
    """The top-level package of every absolute import in ``tree``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert any(path.name == "estimators.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_stdlib_numpy_scipy_or_relative(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = sorted(set(_imported_packages(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports {foreign}"
