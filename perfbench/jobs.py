"""Run one benchmark job against the library, and check its answer.

``execute`` is the timed part.  It reaches every library function through
its module attribute at call time (``counting.h_table``, not a name bound at
import), so the traced run can rebind those attributes from outside.
``Checker.check`` is untimed and confirms each answer by an independent
route: a closed form, a different walker, a dynamic program written here, or
an identity between two of the library's routes.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from delannoy import bijections, conjectures, counting, paths, series
from delannoy.paths import PathFamilySpec

from gen import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120


# ---------- in-process jobs ----------


def _spec(args: tuple) -> PathFamilySpec:
    target, forbidden, forbidden_aug, region_k, first, last = args
    return PathFamilySpec(
        target=target,
        forbidden=frozenset(forbidden),
        forbidden_aug=frozenset(forbidden_aug),
        region_k=region_k,
        first_step=first,
        last_step=last,
    )


_H = frozenset({"NE", "EN"})
_B = frozenset({"D", "EENN"})


def bijection_specs(name: str, n: int, m: int, k: int | None):
    """(domain, map, codomain, domain_exclude) for the three rewriting maps."""
    region = {} if k is None else {"region_k": k}
    a_family = PathFamilySpec(target=(n, m), forbidden_aug=_B, **region)
    h_family = PathFamilySpec(target=(n, m), forbidden=_H, **region)
    if name == "pi":
        return a_family, bijections.pi_map, h_family, None
    if name == "delta":
        return h_family, bijections.delta_map, a_family, None
    return (
        PathFamilySpec(target=(n, m), forbidden=_B),
        bijections.tau_map,
        PathFamilySpec(target=(n - 1, m - 1), forbidden=_B),
        PathFamilySpec(target=(n, m), forbidden_aug=_B),
    )


def execute(job: Job):
    """Run the job's library calls and return its answer."""
    a = job.args
    kind = job.kind
    if kind == "triple":
        k, order = a
        triple = series.assemble_triple(k, order)
        radical = series.radical_check_k1(order, triple).ok if k == 1 else None
        return triple, radical
    if kind == "h_table":
        return counting.h_table(*a)
    if kind == "b_table":
        return counting.b_table(*a)
    if kind == "a_count":
        return counting.a_count(*a)
    if kind == "h_pair":
        return counting.h_dp(*a), counting.h_closed(*a)
    if kind == "b_pair":
        return counting.b_dp(*a), counting.b_closed(*a)
    if kind == "delannoy":
        return counting.delannoy_count(*a)
    if kind == "schroeder":
        return counting.schroeder_count(*a)
    if kind == "schroeder_rect":
        return counting.schroeder_rect_count(*a)
    if kind == "expand":
        order, numerator = a
        return counting.expand_bivariate({(i, j): c for i, j, c in numerator}, order)
    if kind == "spec":
        spec = _spec(a)
        count = paths.count_bruteforce(spec)
        listed = list(paths.enumerate_paths(spec))
        return count, len(listed)
    if kind == "bijection":
        return bijections.verify_bijection(*bijection_specs(*a))
    if kind == "conjecture":
        which, n = a
        check = conjectures.check_conjecture1 if which == 1 else conjectures.check_conjecture2
        return check(n)
    raise ValueError(f"unknown job kind {kind!r}")


# ---------- CLI jobs ----------


@dataclass(frozen=True)
class ChildRun:
    """A child interpreter's exit code, standard output and resource use."""

    code: int
    stdout: str
    cpu_s: float
    maxrss_kb: int


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> ChildRun:
    """Run ``python -m delannoy.cli argv``."""
    return run_python(["-m", "delannoy.cli", *argv], env)


def run_python(args: list[str], env: dict[str, str]) -> ChildRun:
    """Run the interpreter with ``args``; reap it with a blocking wait4 for its rusage.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    show up in the timings; a timer kills a child that hangs instead.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        code=proc.returncode,
        stdout=out.decode(),
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


# ---------- independent routes used by the checks ----------


def delannoy_by_columns(n: int, m: int) -> int:
    """Delannoy number by a third classical sum, sum_j C(m, j) C(n + m - j, m)."""
    return sum(math.comb(m, j) * math.comb(n + m - j, m) for j in range(min(n, m) + 1))


def region_dp(n: int, m: int, k: int) -> int:
    """Paths with steps N, E, D from the origin to (n, m) inside y >= kx, by columns."""
    if m < k * n:
        return 0
    col = [1] * (m + 1)  # x = 0: only N steps
    for x in range(1, n + 1):
        new = [0] * (m + 1)
        for y in range(k * x, m + 1):
            new[y] = col[y] + (col[y - 1] if y else 0) + (new[y - 1] if y > k * x else 0)
        col = new
    return col[m]


class Checker:
    """Untimed answer checks; memoises the expected values it derives."""

    def __init__(self) -> None:
        self._memo: dict[tuple, object] = {}

    def _cached(self, key: tuple, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _series_expected(self, k: int, n: int) -> tuple[int, ...]:
        """([x^n]F, [x^n]FD, [x^n]FE) where an independent route exists, else ()."""
        if n <= 6:
            def brute():
                base = dict(target=(n, k * n), forbidden=_H, region_k=k)
                return tuple(
                    paths.count_bruteforce(PathFamilySpec(**base, **extra))
                    for extra in ({}, {"last_step": "D"}, {"last_step": "E"})
                )
            return self._cached(("brute-series", k, n), brute)
        if k == 1 and n <= 40:
            return self._cached(("closed_k1", n), lambda: series.closed_k1(n))
        if k == 2 and n <= 40:
            f, fd = self._cached(("closed_k2", n), lambda: series.closed_k2(n))
            return f, fd, f - fd - (n == 0)
        return ()

    def _sample_cells(self, job: Job, n: int, m: int) -> list[tuple[int, int]]:
        rng = random.Random(repr(job))
        return [(n, m), (n, m // 2), (n // 2, m)] + [
            (rng.randint(0, n), rng.randint(0, m)) for _ in range(3)
        ]

    def check(self, job: Job, answer) -> bool:
        a = job.args
        kind = job.kind
        if kind == "triple":
            k, order = a
            triple, radical = answer
            if k == 1 and radical is not True:
                return False
            for i in range(order + 1):
                want = self._series_expected(k, i)
                got = (triple.f[i], triple.fd[i], triple.fe[i])
                if want and got != want:
                    return False
            return True
        if kind in ("h_table", "b_table", "expand"):
            if kind == "expand":
                order, numerator = a
                n = m = order
                closed = counting.h_closed if len(numerator) == 2 else counting.b_closed
            else:
                n, m = a
                closed = counting.h_closed if kind == "h_table" else counting.b_closed
            return all(answer[c] == closed(*c) for c in self._sample_cells(job, n, m))
        if kind == "a_count":
            n, m = a
            lower = counting.b_closed(n - 1, m - 1) if n and m else 0
            return answer == counting.b_closed(n, m) - lower
        if kind in ("h_pair", "b_pair"):
            dp, closed = answer
            return dp == closed
        if kind == "delannoy":
            return answer == delannoy_by_columns(*a)
        if kind == "schroeder":
            n, k = a
            if n <= 60 and answer != region_dp(n, k * n, k):
                return False
            return answer == counting.schroeder_rect_count(n, k * n, k)
        if kind == "schroeder_rect":
            return answer == region_dp(*a)
        if kind == "spec":
            count, listed = answer
            return count == listed
        if kind == "bijection":
            name, n, m, k = a
            if not answer.ok:
                return False
            if k is None and name != "tau":
                return answer.codomain_size == counting.h_closed(n, m)
            if name == "tau":
                return answer.codomain_size == counting.b_closed(n - 1, m - 1)
            return True
        if kind == "conjecture":
            which, n = a
            if not answer.verdict or [r[0] for r in answer.rows] != list(range(1, n + 1)):
                return False
            column = 2 if which == 1 else 1
            return all(lhs == self._series_expected(which, i)[column] for i, lhs, _ in answer.rows)
        if kind == "cli":
            return self._check_cli(a, answer)
        raise ValueError(f"unknown job kind {kind!r}")

    # ---------- CLI answers ----------

    def _check_cli(self, args: tuple, run: ChildRun) -> bool:
        argv, expected_code = args
        if run.code != expected_code:
            return False
        if expected_code != 0:
            return True
        if argv[0] == "bfile":
            return self._check_bfile(argv, run.stdout)
        result = json.loads(run.stdout)["result"]
        return getattr(self, "_cli_" + argv[0])(argv, result)

    def _series_row(self, k: int, n: int, order: int) -> tuple[int, int, int]:
        """Expected (F, FD, FE) at x^n; the in-process solver where no other route exists."""
        want = self._series_expected(k, n)
        if not want:
            triple = self._cached(("triple", k, order), lambda: series.assemble_triple(k, order))
            want = (triple.f[n], triple.fd[n], triple.fe[n])
        return want

    def _check_bfile(self, argv: tuple, stdout: str) -> bool:
        sequence, order = argv[1], int(argv[3])
        rows = [tuple(int(v) for v in line.split()) for line in stdout.splitlines()]
        if [n for n, _ in rows] != list(range(order + 1)):
            return False
        for n, value in rows:
            if sequence == "h-diag":
                want = counting.h_closed(n, n)
            else:
                k, which = {"F1": (1, 0), "FE1": (1, 2), "FD2": (2, 1), "FD3": (3, 1)}[sequence]
                want = self._series_row(k, n, order)[which]
            if value != want:
                return False
        return True

    def _cli_count(self, argv: tuple, result: dict) -> bool:
        family, n = argv[1], int(argv[2])
        k = int(_options(argv).get("--k", 1))
        if family == "schroeder":
            want = region_dp(n, k * n, k)
        elif family == "schroeder-rect":
            want = region_dp(n, int(argv[3]), k)
        elif family == "delannoy":
            want = delannoy_by_columns(n, int(argv[3]))
        else:
            target = (n, int(argv[3]))
            spec = {
                "h": PathFamilySpec(target=target, forbidden=_H),
                "b": PathFamilySpec(target=target, forbidden=_B),
                "a": PathFamilySpec(target=target, forbidden_aug=_B),
            }[family]
            want = paths.count_bruteforce(spec)
        methods = result["methods"]
        return result["value"] == want and bool(methods) and set(methods.values()) == {want}

    def _cli_enum(self, argv: tuple, result: dict) -> bool:
        opts = _options(argv)
        spec = PathFamilySpec(
            target=(int(argv[2]), int(argv[3])),
            forbidden=frozenset(p for p in opts.get("--avoid", "").split(",") if p),
            forbidden_aug=frozenset(p for p in opts.get("--avoid-aug", "").split(",") if p),
        )
        words = result["words"]
        return (
            result["count"] == len(words) == paths.count_bruteforce(spec)
            and words == [p.word for p in paths.enumerate_paths(spec)]
        )

    def _cli_map(self, argv: tuple, result: dict) -> bool:
        mapping = {
            "pi": bijections.pi_map,
            "delta": bijections.delta_map,
            "tau": bijections.tau_map,
            "tau-inv": bijections.tau_inverse,
        }[argv[1]]
        image = mapping(paths.parse_path(argv[2]))
        return result == {"word": image.word, "start": list(image.start), "end": list(image.end)}

    def _cli_series(self, argv: tuple, result: dict) -> bool:
        k, order = int(argv[3]), int(argv[5])
        coeffs = result["coefficients"]
        for i in range(order + 1):
            if (coeffs["F"][i], coeffs["FD"][i], coeffs["FE"][i]) != self._series_row(k, i, order):
                return False
        return result["checked_against_closed_form"] == ("--check-closed" in argv)

    def _cli_verify(self, argv: tuple, result: dict) -> bool:
        target, max_n = argv[1], int(argv[3])
        corners = {"pi": (max_n + 1) ** 2, "delta": (max_n + 1) ** 2, "tau": max_n**2}
        expected_cases = sum(corners.values()) if target == "all" else corners[target]
        cases = result["cases"]
        return (
            result["ok"] is True
            and len(cases) == expected_cases
            and all(c["ok"] and c["domain_size"] == c["codomain_size"] for c in cases)
        )

    def _cli_conjecture(self, argv: tuple, result: dict) -> bool:
        which, max_n = int(argv[1]), int(argv[3])
        rows = result["rows"]
        want = [self._series_row(which, n, max_n)[2 if which == 1 else 1] for n in range(1, max_n + 1)]
        return (
            result["verdict"] is True
            and [r["n"] for r in rows] == list(range(1, max_n + 1))
            and [r["paths"] for r in rows] == want
            and [r["partner"] for r in rows] == want
        )


def _options(argv: tuple) -> dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
