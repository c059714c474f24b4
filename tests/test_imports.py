"""The package imports only the standard library, NumPy and itself."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gdasum").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gdasum"}


def imported_modules(tree):
    """Top-level names of the absolute imports in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_the_sources_are_found():
    assert {"model.py", "losses.py", "train.py", "cli.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_numpy_and_gdasum(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(imported_modules(tree)) - ALLOWED) == []
