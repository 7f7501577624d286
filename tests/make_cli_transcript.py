"""Regenerate ``tests/cli_transcript.json``, the CLI's recorded outputs.

Run from the repository root::

    PYTHONPATH=src python3 tests/make_cli_transcript.py

It collects the commands below, runs each in process through
``delannoy.cli.main`` and writes one record per command: its argv, its exit
code, the SHA-256 of its stdout, and stderr's first line when that line is
the program's own (``error:`` or ``cross-check mismatch:``).  A ``--help`` or
an argparse usage error records its exit code only, since argparse's text
differs across Python versions.  ``tests/test_cli_transcript.py`` reruns
every command and compares.  A change that means to alter output reruns this
script and names each command whose record changed.

The commands: README's examples, every call in ``tests/test_cli.py`` whose
arguments are all literals, the ``cli_oneshot`` job lists of two fixed
benchmark seeds, the budget edges below, a JSON form of every subcommand, a
grid of small instances of each, and each ``--help``.  Commands slower than about 50 ms are left to
``tests/test_cli.py``.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from delannoy.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPT = Path(__file__).resolve().parent / "cli_transcript.json"
SEEDS = (1, 2)  # perfbench cli_oneshot seeds, pass 0

SLOW = {  # each took 0.06 s or more in process; tests/test_cli.py runs them
    "verify all --max-n 9",
    "verify all --max-n 10",
    "verify all --max-n 10 --budget 3711198",
    "verify all --max-n 12 --k 3",
    "conjecture 1 --max-n 1413",
    "conjecture 1 --max-n 500",
    "enum --target 8 8 --budget 731281",
    "count h 800 800",
    "count schroeder 5000 --k 2 --format json",
}

EDGES = [  # the least admitted budget and one less, for each charge rule
    "count h 3 3 --method all --budget 88",
    "count h 3 3 --method all --budget 87",
    *(f"count {family} 2 2 --budget {charge - less}"
      for family, charge in (("h", 27), ("b", 36), ("a", 63)) for less in (0, 1)),
    "bfile h-diag --order 2 --budget 27",
    "bfile h-diag --order 2 --budget 26",
    *(f"conjecture {which} --max-n 4 --budget {charge - less}"
      for which, charge in (("1", 136), ("2", 298)) for less in (0, 1)),
]

JSON_FORMS = [
    "count h 3 3 --method all --format json",
    "count schroeder 3 --format json",
    "count schroeder-rect 2 5 --k 2 --format json",
    "enum --target 2 2 --avoid EN,NE,EN,DD --format json",
    "enum --target 2 3 --avoid-aug D,EENN --region 1 --first N --last E --format json",
    "map tau-inv NEEN --format json",
    "series all --k 2 --order 6 --check-closed --format json",
    "verify all --max-n 2 --max-m 3 --format json",
    "verify pi --max-n 2 --k 1 --format json",
    "conjecture 1 --max-n 5 --format json",
]

HELP = ["--help", *(f"{command} --help" for command in
                    ("count", "enum", "map", "series", "verify", "conjecture", "bfile"))]


GRID = [  # small instances of every subcommand, text output
    *(f"count {family} {n} {m}{method}" for family in ("delannoy", "h", "b", "a")
      for n, m in ((0, 0), (1, 2), (3, 3), (5, 4)) for method in ("", " --method all")),
    *(f"count schroeder {n} --k {k}" for n in range(5) for k in (1, 2, 3)),
    *(f"count schroeder-rect {n} {m} --k {k} --method all" for n, m in ((2, 2), (2, 5), (3, 9)) for k in (1, 2)),
    *(f"series {which} --k {k} --order 8" for which in ("F", "FD", "FE", "all") for k in (1, 2, 3, 4)),
    *(f"bfile {sequence} --order {order}" for sequence in ("h-diag", "F1", "FD2", "FE1", "FD3") for order in (0, 12)),
    *(f"enum --target 2 2 --avoid NE --{end} {step}" for end in ("first", "last") for step in "NED"),
    *(f"map {name} {word}" for name in ("pi", "delta", "tau", "tau-inv") for word in ("ENNEEN", "EN", "NDE")),
    *(f"verify {target} --max-n {n}" for target in ("pi", "delta", "tau", "all") for n in (0, 1, 2)),
    *(f"conjecture {which} --max-n {n}" for which in (1, 2) for n in (1, 2, 5, 8)),
]


def readme_commands() -> list[list[str]]:
    """The ``delannoy ...`` lines of README's first ``sh`` block, comments dropped."""
    block = re.search(r"```sh\n(delannoy .*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def literal_test_cli_calls() -> list[list[str]]:
    """Every ``run(capsys, ...)`` and ``main([...])`` call in test_cli.py with literal arguments."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text())
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
            continue
        if node.func.id == "run" and node.args and isinstance(node.args[0], ast.Name):
            args = node.args[1:]
        elif node.func.id == "main" and len(node.args) == 1 and isinstance(node.args[0], ast.List):
            args = node.args[0].elts
        else:
            continue
        if all(isinstance(a, ast.Constant) and isinstance(a.value, str) for a in args):
            out.append((node.lineno, [a.value for a in args]))
    return [argv for _, argv in sorted(out)]


def oneshot_commands() -> list[list[str]]:
    sys.path.insert(0, str(ROOT))
    from perfbench.gen import generate
    return [list(job.args[0]) for seed in SEEDS for job in generate("cli_oneshot", seed)]


def commands() -> list[list[str]]:
    listed = [*readme_commands(), *literal_test_cli_calls(), *oneshot_commands(),
              *map(shlex.split, EDGES + JSON_FORMS + GRID + HELP)]
    unique = {tuple(argv): None for argv in listed if " ".join(argv) not in SLOW}
    return [list(argv) for argv in unique]


def record(argv: list[str]) -> dict:
    """Run ``argv`` through main in process and record what the transcript keeps."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    first = err.getvalue().partition("\n")[0]
    if "--help" in argv or first.startswith("usage:"):  # argparse's text varies by version
        return {"argv": argv, "exit": code}
    own = first.startswith(("error:", "cross-check mismatch:"))
    return {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": first if own else None}


if __name__ == "__main__":  # one record a line, so a diff names each changed command
    TRANSCRIPT.write_text("[\n" + ",\n".join(json.dumps(record(argv)) for argv in commands()) + "\n]\n")
    print(f"wrote {TRANSCRIPT}", file=sys.stderr)
