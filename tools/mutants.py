#!/usr/bin/env python3
"""Committed mutation checks: each mutant in ``MUTANTS`` must make its tests fail.

Usage, from the repository root:

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py NAME [NAME]  # the named ones

For each mutant the working tree (every tracked or untracked, not ignored file as
it is on disk, exported as ``tools/bench_pairs.py`` exports it) is copied into a
fresh temporary directory; the tree itself is never edited.  The mutant's tests
run there once unmutated, and must pass; then its old text, which must occur
exactly once in its file, is replaced by its new text and the same tests run
again with ``-x``, and must fail.  The tool exits 1 if any mutant survives, if
its old text no longer matches exactly once (so a refactor of the mutated code
must update the table), or if its tests fail before the mutation.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import export_working_tree

RUN_TIMEOUT_S = 600
SERIES, COUNTING, PATHS = "src/delannoy/series.py", "src/delannoy/counting.py", "src/delannoy/paths.py"
CLI = "src/delannoy/cli.py"
RADICAL = ("tests/test_series.py", "-k", "radical")
CHECK = ("tests/test_series.py", "-k", "golden or non_fixed_point or product")
FIRST_ROUTE = "(lambda what, routes, *index: [*routes.values()][0])("  # agree, less its comparison


def _agree(file: str, call: str, site: str) -> tuple[str, str, str, str, tuple[str, ...]]:
    """The agree call that starts ``agree(<call>`` returns its first route's value unchecked;
    the perturbation tests/test_errors.py SITES[site] makes must still raise."""
    test = f"tests/test_errors.py::test_every_site_names_each_route_and_its_value[{site}]"
    return f"agree-{site}", file, f"agree({call}", FIRST_ROUTE + call, (test,)


def _floor(site: str, file: str, call: str, floored: str) -> tuple[str, str, str, str, tuple[str, ...]]:
    """The exact division ``call`` becomes the floor division ``floored``; the remainder that
    tests/test_errors.py EXACT_SITES[site] leaves there must still raise."""
    test = f"tests/test_errors.py::test_every_exact_division_refuses_a_remainder[{site}]"
    return f"floor-{site}", file, call, floored, (test,)


# (name, file, exact old text, new text, pytest arguments)
MUTANTS: tuple[tuple[str, str, str, str, tuple[str, ...]], ...] = (
    ("radical-rule-term", SERIES, "(n - 6) * p[n]", "(n - 5) * p[n]", RADICAL),
    ("slope-bound", PATHS, "int(k) != k or k < 1:", "int(k) != k or k < 0:",
     ("tests/test_series.py", "tests/test_paths.py", "-k", "validation or slope")),
    ("exact-ignores-remainder", COUNTING, "    if rem:\n", "    if False:\n",
     ("tests/test_series.py", "-k", "inexact")),
    ("region-first-cell", COUNTING, "lo, col = min(k * x, m + 1)", "lo, col = min(k * x + 1, m + 1)",
     ("tests/test_counting.py",)),
    ("square-cross-term-once", SERIES, "twice = 2 * ai", "twice = ai", CHECK),
    ("product-zero-test-inverted", SERIES, "if ai == 0:", "if ai != 0:", CHECK),
    ("check-drops-x-shift", SERIES, "zip(square, [0, *high])", "zip(square, high)", CHECK),
    ("kept-prefix-one-short", SERIES, "s[: order + 1] for s in (kept.f", "s[: order] for s in (kept.f",
     ("tests/test_series.py::test_a_kept_triple_answers_as_a_fresh_solve",)),
    ("radical-takes-a-short-triple", SERIES, "if len(s) <= order:", "if False:",
     ("tests/test_series.py::test_radical_check_truncates_the_triple_to_the_order",)),
    ("k1-recurrence-entry", SERIES, "1: ((1, -1), (0, 0), (2, 4),", "1: ((1, -1), (0, 0), (2, 5),",
     ("tests/test_series.py::test_slope1_recurrence_holds_at_every_n",)),
    _agree(CLI, 'f"count {family}', "cli-count"),
    _agree(CLI, 'f"closed form for k=', "cli-series"),
    _agree(CLI, 'f"conjecture {args.which}"', "cli-conjecture"),
    _agree(COUNTING, 'what, {"by diagonals"', "delannoy_count"),
    _agree(COUNTING, 'f"a_count({n}, {m})"', "a_count-h"),
    _agree(COUNTING, "what, forms)", "schroeder_rect_count"),
    _agree(SERIES, 'f"fixed point for k=', "assemble_triple"),
    _floor("term-walk", COUNTING, 'term = _exact(term * num, den, "{} term {}", what, i + 1)',
           "term = term * num // den"),
    _floor("schroeder-form-1-term-0", COUNTING,
           'first = _exact(w * math.comb(m + n, n), m + 1, f"{what} form 1 term 0")',
           "first = w * math.comb(m + n, n) // (m + 1)"),
    _floor("schroeder-form-2", COUNTING, 'forms["form 2"] = _exact(w * transform, n, f"{what} form 2")',
           'forms["form 2"] = w * transform // n'),
    _floor("miller", SERIES, 'return _exact(total, m, "coefficient {} of (1+FD)^{}", m, a)', "return total // m"),
    _floor("recurrence", SERIES,
           'return _exact(-sum(map(mul, values, g[n:])), values[-1], "coefficient {} of 1+FD", len(g))',
           "return -sum(map(mul, values, g[n:])) // values[-1]"),
    _floor("closed-k2-F-term-0", SERIES, 'first = _exact(binomial(3 * n + 1, n), n + 1, f"{what} F term 0")',
           "first = binomial(3 * n + 1, n) // (n + 1)"),
    _floor("closed-k2-FD-term-0", SERIES, 'first = _exact(binomial(3 * n, n - 1), max(n, 1), f"{what} FD term 0")',
           "first = binomial(3 * n, n - 1) // max(n, 1)"),
)


def apply(copy: Path, file: str, old: str, new: str) -> None:
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        raise ValueError(f"{file} holds the old text {text.count(old)} times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def run_tests(copy: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, timeout=RUN_TIMEOUT_S).returncode


def check(name: str, file: str, old: str, new: str, tests: tuple[str, ...]) -> str:
    """'killed', or why the mutant fails the tool."""
    with tempfile.TemporaryDirectory(prefix=f"mutant_{name}_") as tmp:
        copy = Path(tmp)
        export_working_tree(copy)
        if (code := run_tests(copy, tests)) != 0:
            return f"its tests fail unmutated (pytest exit {code})"
        try:
            apply(copy, file, old, new)
        except ValueError as exc:
            return f"stale: {exc}"
        code = run_tests(copy, tests)
    return {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}, not a test failure")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run; all by default")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {row[0] for row in MUTANTS}
    if unknown:
        parser.error(f"no such mutant: {', '.join(sorted(unknown))}")
    failed = 0
    for row in MUTANTS:
        if args.names and row[0] not in args.names:
            continue
        verdict = check(*row)
        print(f"{row[0]}: {verdict}", flush=True)
        failed += verdict != "killed"
    print(f"{failed} of {len(args.names or MUTANTS)} mutants not killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
