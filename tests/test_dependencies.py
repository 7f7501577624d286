"""The library imports only the standard library and itself, and never Fraction."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "delannoy"


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." if node.level else node.module


@pytest.mark.parametrize("source", sorted(p.name for p in SRC.glob("*.py")))
def test_imports_are_stdlib_or_the_package(source):
    tree = ast.parse((SRC / source).read_text(), filename=source)
    for name in _imported_modules(tree):
        top = name.split(".")[0]
        assert name == "." or top == "delannoy" or top in sys.stdlib_module_names, name
        assert top != "fractions", f"{source} imports fractions: exact division is counting._exact"
