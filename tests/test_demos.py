"""Every demo script runs to the end with exit 0 and nothing on stderr, and README's
library tour prints what its comments say."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_readme_library_tour_values():
    """Each ``expression  # value`` line of the tour: the comment is repr(value), or
    starts with repr(value) and a comma before its gloss."""
    block = re.search(r"## Library tour\n\n```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = block.group(1).splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block.group(1)).body:
        comment = lines[node.end_lineno - 1].partition("  # ")[2]
        if isinstance(node, ast.Expr) and comment:
            value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
            assert comment == value or comment.startswith(value + ","), (ast.unparse(node), value)
            checked += 1
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == 9
