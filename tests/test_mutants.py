"""The mutation table matches the tree, and the tool tells a survivor from a kill."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def mutants(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))  # it imports bench_pairs' export
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_old_text_occurs_once(mutants):
    """A refactor that moves mutated code must update the table in the same change."""
    names = [row[0] for row in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new, tests in mutants.MUTANTS:
        assert (ROOT / file).read_text().count(old) == 1, name
        assert old != new and tests, name


def test_stale_text_is_refused(mutants, tmp_path):
    (tmp_path / "a.py").write_text("x = 1\nx = 1\n")
    with pytest.raises(ValueError, match="2 times, not once"):
        mutants.apply(tmp_path, "a.py", "x = 1", "x = 2")
    with pytest.raises(ValueError, match="0 times, not once"):
        mutants.apply(tmp_path, "a.py", "y = 1", "y = 2")


def test_a_harmless_mutant_survives_and_a_listed_one_is_killed(mutants):
    catalan = ("tests/test_series.py::test_catalan",)
    assert mutants.check("comment", mutants.SERIES, "# Horner", "# by Horner", catalan) == "SURVIVED"
    name, *row = next(row for row in mutants.MUTANTS if row[0] == "exact-ignores-remainder")
    assert mutants.check(name, *row) == "killed"
