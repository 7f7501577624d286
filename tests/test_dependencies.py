"""The library imports only the standard library and itself, and never Fraction;
``import delannoy`` loads no submodule, and each CLI command loads only the
modules it runs, and neither ``dataclasses`` nor ``inspect``.  Every source file
parses under the grammar of Python 3.10, the oldest version pyproject.toml admits."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import delannoy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "delannoy"


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


@pytest.mark.parametrize("source", sorted(
    str(p.relative_to(ROOT)) for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py")))
def test_parses_under_python_3_10(source):
    ast.parse((ROOT / source).read_text(), filename=source, feature_version=(3, 10))


# Standard-library modules no command needs: importing dataclasses, which imports
# inspect, took 8-11 ms of the 23-38 ms that importing delannoy.cli took.
SLOW = {"dataclasses", "inspect"}


def _loaded(code: str) -> set[str]:
    """The delannoy modules, and those of SLOW, that a fresh interpreter holds after running ``code``."""
    wanted = f"m.split('.')[0] == 'delannoy' or m in {sorted(SLOW)}"
    probe = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if {wanted}))"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": path},
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


BASE = {"delannoy", "delannoy.counting", "delannoy.errors", "delannoy.paths"}


def test_bare_import_loads_no_submodule():
    assert _loaded("import delannoy") == {"delannoy"}
    assert _loaded("import delannoy; delannoy.series.assemble_triple(1, 3)") == BASE | {"delannoy.series"}


# Each command, run as ``python -m delannoy.cli`` runs it, and the submodules it
# loads beyond counting, paths and errors.
COMMANDS = {
    "count": (("count", "h", "2", "2", "--method", "all"), set()),
    "enum": (("enum", "--target", "2", "2", "--avoid", "NE"), set()),
    "map": (("map", "pi", "NENNEE"), {"bijections"}),
    "series": (("series", "all", "--k", "1", "--order", "5", "--check-closed"), {"series"}),
    "verify": (("verify", "all", "--max-n", "2"), {"bijections"}),
    "conjecture": (("conjecture", "2", "--max-n", "3"), {"conjectures"}),
    "bfile": (("bfile", "F1", "--order", "5"), {"series"}),
    "bfile-h-diag": (("bfile", "h-diag", "--order", "5"), set()),
}


@pytest.mark.parametrize("argv,extra", COMMANDS.values(), ids=COMMANDS)
def test_each_command_loads_only_what_it_runs(argv, extra):
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['delannoy', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('delannoy.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code"
    )
    assert _loaded(code) == BASE | {f"delannoy.{name}" for name in extra}


def test_package_exports_are_their_home_modules_objects():
    star: dict = {}
    exec("from delannoy import *", star)
    assert len(delannoy.__all__) == 39 and set(delannoy.__all__) <= set(star)
    for name in delannoy.__all__:
        home = importlib.import_module(f"delannoy.{delannoy._HOME[name]}")
        assert getattr(delannoy, name) is getattr(home, name) is star[name]
    assert set(delannoy.__all__) | set(delannoy._EXPORTS) <= set(dir(delannoy))
    with pytest.raises(AttributeError, match="'nosuch'"):
        delannoy.nosuch  # noqa: B018
