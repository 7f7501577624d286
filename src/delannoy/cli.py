"""Command line interface.

Subcommands: count, enum, map, series, verify, conjecture, bfile.
Exit codes: 0 success, 1 usage or precondition error, 2 internal cross-check
mismatch (two routes that must agree disagreed).  JSON output is a single
record with fixed key order (command, parameters, result); it holds no
timing, so the same command prints the same bytes on every run.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import factorial
from typing import Any, Iterable

from . import bijections, conjectures, counting, series
from .errors import ConsistencyError
from .paths import LatticePath, PathFamilySpec, count_bruteforce, enumerate_paths, parse_path

DEFAULT_BUDGET = 10**7

# b-file sequence -> the series coefficients it prints, as (series, k);
# h-diag is read off the h table instead.
_BFILE_SEQUENCES = {
    "h-diag": None, "F1": ("f", 1), "FD2": ("fd", 2), "FE1": ("fe", 1), "FD3": ("fd", 3),
}


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _walk_size(n: int, m: int, k: int | None, budget: int) -> int:
    """Size of the unpruned walk to (n, m): every Delannoy path, or every path
    in y >= kx when k is set.

    A cheap lower bound that already exceeds ``budget`` is returned in place
    of the exact count: the North-East paths C(n+m, n), or in the region the
    k-ballot paths (m-kn+1) C(m+n+1, n) / (m+n+1), written as a difference of
    binomials.
    """
    if k is None:
        lower = counting.binomial(n + m, n)
        return lower if lower > budget else counting.delannoy_count(n, m)
    lower = counting.binomial(n + m, n) - k * counting.binomial(n + m, n - 1)
    return lower if lower > budget else counting.schroeder_rect_count(n, m, k)


def _guard_budget(sizes: Iterable[int], budget: int) -> None:
    # stops at the first partial sum past the budget
    total = 0
    for size in sizes:
        total += size
        if total > budget:
            raise ValueError(
                f"size exceeds budget {budget}; reduce the bounds or raise --budget"
            )


def _guard_spec(spec: PathFamilySpec, budget: int) -> None:
    _guard_budget([_walk_size(*spec.target, spec.region_k, budget)], budget)


def _parse_patterns(text: str | None) -> frozenset[str]:
    if not text:
        return frozenset()
    return frozenset(part for part in text.split(",") if part)


def _emit(args: argparse.Namespace, parameters: dict, result: Any, lines: list[str]) -> None:
    if getattr(args, "format", "text") == "json":
        record = {"command": args.command, "parameters": parameters, "result": result}
        print(json.dumps(record, indent=2))
    else:
        for line in lines:
            print(line)


# ---------- count ----------


def _count_one(family: str, method: str, n: int, m: int, k: int, budget: int) -> int:
    if method == "bruteforce":
        spec = counting.family_spec(family, n, m, k)
        _guard_spec(spec, budget)
        return count_bruteforce(spec)
    return counting.FAMILIES[family][2][method](n, m, k)


def _cmd_count(args: argparse.Namespace) -> int:
    family = args.family
    if family == "schroeder":
        if args.m is not None:
            raise ValueError("family schroeder takes a single size n (its corner is (n, k*n))")
        n, m = args.n, args.k * args.n
    else:
        if args.m is None:
            raise ValueError(f"family {family} needs both corner coordinates n and m")
        n, m = args.n, args.m
    methods = (*counting.FAMILIES[family][2], "bruteforce")
    method = args.method or methods[0]
    if method != "all" and method not in methods:
        raise ValueError(f"method {method} is not available for family {family}")

    routes = methods if method == "all" else (method,)
    values = {name: _count_one(family, name, n, m, args.k, args.budget) for name in routes}
    distinct = set(values.values())
    if len(distinct) != 1:
        raise ConsistencyError(f"count {family} ({n}, {m}): methods disagree: {values}")
    value = distinct.pop()
    lines = [str(value)]
    if method == "all":
        lines += [f"  {name}: {v}" for name, v in values.items()]

    parameters = {"family": family, "n": args.n, "m": args.m, "k": args.k, "method": method}
    _emit(args, parameters, {"value": value, "methods": values}, lines)
    return 0


# ---------- enum ----------


def _cmd_enum(args: argparse.Namespace) -> int:
    spec = PathFamilySpec(
        target=tuple(args.target),
        forbidden=_parse_patterns(args.avoid),
        forbidden_aug=_parse_patterns(args.avoid_aug),
        region_k=args.region,
        first_step=args.first,
        last_step=args.last,
    )
    _guard_spec(spec, args.budget)
    words = [path.word for path in enumerate_paths(spec)]
    parameters = {
        "target": list(spec.target),
        "avoid": sorted(spec.forbidden),
        "avoid_aug": sorted(spec.forbidden_aug),
        "region": spec.region_k,
        "first": spec.first_step,
        "last": spec.last_step,
    }
    result = {"count": len(words), "words": words}
    _emit(args, parameters, result, words)
    return 0


# ---------- map ----------

# Map names are looked up on the module when used, so rebinding a map there
# reaches both map and verify.
_MAPS = {"pi": "pi_map", "delta": "delta_map", "tau": "tau_map", "tau-inv": "tau_inverse"}


def _cmd_map(args: argparse.Namespace) -> int:
    path = parse_path(args.word)
    image = getattr(bijections, _MAPS[args.name])(path)
    parameters = {"name": args.name, "word": args.word}
    result = {"word": image.word, "start": list(image.start), "end": list(image.end)}
    _emit(args, parameters, result, [image.word])
    return 0


# ---------- series ----------


def _cmd_series(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError(f"order must be nonnegative, got {args.order}")
    if args.check_closed and args.k >= 3:
        raise ValueError(f"no closed form is available for k = {args.k}")
    triple = series.assemble_triple(args.k, args.order)
    if args.check_closed:
        for i in range(args.order + 1):
            if args.k == 1:
                expected = series.closed_k1(i)
                got = (triple.f[i], triple.fd[i], triple.fe[i])
            else:
                expected = series.closed_k2(i)
                got = (triple.f[i], triple.fd[i])
            if expected != got:
                raise ConsistencyError(
                    f"closed form mismatch for k={args.k} at x^{i}: "
                    f"series {got}, closed {expected}"
                )
    available = {"F": triple.f, "FD": triple.fd, "FE": triple.fe}
    chosen = available if args.which == "all" else {args.which: available[args.which]}
    coeffs = {name: list(s.coeffs) for name, s in chosen.items()}
    if args.which == "all":
        lines = [f"{name}: " + " ".join(str(c) for c in cs) for name, cs in coeffs.items()]
    else:
        lines = [" ".join(str(c) for c in coeffs[args.which])]
    parameters = {"which": args.which, "k": args.k, "order": args.order, "check_closed": bool(args.check_closed)}
    result = {"coefficients": coeffs, "checked_against_closed_form": bool(args.check_closed)}
    _emit(args, parameters, result, lines)
    return 0


# ---------- verify ----------


# map -> (domain family, codomain family, codomain corner shift, family
# excluded from the domain).
_VERIFY_CASES = {
    "pi": ("a", "h", 0, None),
    "delta": ("h", "a", 0, None),
    "tau": ("b", "b", 1, "a"),
}


def _verify_cases(target: str, max_n: int, max_m: int, k: int | None):
    """Yield (label, domain, mapping, codomain, exclude) for every grid corner."""
    for name, (domain, codomain, shift, exclude) in _VERIFY_CASES.items():
        if target not in (name, "all"):
            continue
        region = None if name == "tau" else k  # tau relates unrestricted families only
        for n in range(shift, max_n + 1):
            for m in range(shift, max_m + 1):
                yield (
                    f"{name} ({n},{m})",
                    counting.family_spec(domain, n, m, region_k=region),
                    getattr(bijections, _MAPS[name]),
                    counting.family_spec(codomain, n - shift, m - shift, region_k=region),
                    counting.family_spec(exclude, n, m) if exclude else None,
                )


def _cmd_verify(args: argparse.Namespace) -> int:
    max_m = args.max_n if args.max_m is None else args.max_m
    if args.max_n < 0 or max_m < 0:
        raise ValueError("bounds must be nonnegative")
    if args.target == "tau" and args.k is not None:
        raise ValueError("tau is a map between unrestricted families; --k does not apply")
    _guard_budget(
        (
            2 * _walk_size(n, m, args.k, args.budget)
            for n in range(args.max_n + 1)
            for m in range(max_m + 1)
        ),
        args.budget,
    )

    rows = []
    failures = []
    for label, domain, mapping, codomain, exclude in _verify_cases(
        args.target, args.max_n, max_m, args.k
    ):
        report = bijections.verify_bijection(domain, mapping, codomain, domain_exclude=exclude)
        rows.append(
            {
                "case": label,
                "ok": report.ok,
                "domain_size": report.domain_size,
                "codomain_size": report.codomain_size,
            }
        )
        if not report.ok:
            witnesses = "; ".join(
                " ".join(p.word or "(empty)" if isinstance(p, LatticePath) else str(p) for p in item)
                for item in report.counterexamples[:5]
            )
            failures.append(f"{label}: {witnesses}")

    if failures:
        raise ConsistencyError(f"{len(failures)} case(s) failed: " + " | ".join(failures))
    lines = [
        f"{row['case']}: ok (domain {row['domain_size']}, codomain {row['codomain_size']})"
        for row in rows
    ]
    lines.append(f"all {len(rows)} cases ok")
    parameters = {
        "target": args.target,
        "max_n": args.max_n,
        "max_m": max_m,
        "k": args.k,
    }
    _emit(args, parameters, {"cases": rows, "ok": True}, lines)
    return 0


# ---------- conjecture ----------


def _cmd_conjecture(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    # The path side is one polynomial DP.  Conjecture 1's partner is a DP too:
    # (n+2)^2 cells times at most (n+2)^2 matcher states bound its work.
    # Conjecture 2's partner walks up to n! inversion sequences.
    _guard_budget(
        ((n + 2) ** 4 if args.which == 1 else factorial(n) for n in range(1, args.max_n + 1)),
        args.budget,
    )
    check = conjectures.check_conjecture1 if args.which == 1 else conjectures.check_conjecture2
    report = check(args.max_n)
    lines = [
        f"n={n}: paths {lhs}, partner {rhs} {'==' if lhs == rhs else '!='}"
        for n, lhs, rhs in report.rows
    ]
    lines.append("agree" if report.verdict else "DISAGREE")
    parameters = {"which": args.which, "max_n": args.max_n}
    result = {
        "rows": [{"n": n, "paths": lhs, "partner": rhs} for n, lhs, rhs in report.rows],
        "verdict": report.verdict,
    }
    _emit(args, parameters, result, lines)
    if not report.verdict:
        raise ConsistencyError(f"conjecture {args.which} counts disagree: {report.rows}")
    return 0


# ---------- bfile ----------


def _bfile_values(sequence: str, order: int) -> list[int]:
    if _BFILE_SEQUENCES[sequence] is None:
        table = counting.h_table(order, order)
        return [table[n, n] for n in range(order + 1)]
    which, k = _BFILE_SEQUENCES[sequence]
    triple = series.assemble_triple(k, order)
    return list(getattr(triple, which).coeffs)


def _cmd_bfile(args: argparse.Namespace) -> int:
    if args.order < 0:
        raise ValueError(f"order must be nonnegative, got {args.order}")
    values = _bfile_values(args.sequence, args.order)
    for n, value in enumerate(values):
        print(f"{n} {value}")
    return 0


# ---------- parser ----------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delannoy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=list(choices), default=choices[0])

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget",
            type=int,
            default=DEFAULT_BUDGET,
            help="refuse enumerations whose estimated size exceeds this (default 10^7)",
        )

    p = sub.add_parser("count", help="count one path family at one corner")
    p.add_argument("family", choices=sorted(counting.FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("--k", type=int, default=1, help="region slope (schroeder families)")
    p.add_argument("--method", choices=["dp", "closed", "bruteforce", "all"], default=None)
    add_budget(p)
    add_format(p)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("enum", help="list every path of a family")
    p.add_argument("--target", type=int, nargs=2, required=True, metavar=("N", "M"))
    p.add_argument("--avoid", default="", help="comma-separated forbidden factors")
    p.add_argument("--avoid-aug", default="", help="forbidden factors of the augmented path")
    p.add_argument("--region", type=int, default=None, help="require y >= k*x at every vertex")
    p.add_argument("--first", default=None, help="require this first step")
    p.add_argument("--last", default=None, help="require this last step")
    add_budget(p)
    add_format(p, choices=("words", "json"))
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("map", help="apply one rewriting map to a word")
    p.add_argument("name", choices=sorted(_MAPS))
    p.add_argument("word")
    add_format(p)
    p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("series", help="coefficients of the region generating functions")
    p.add_argument("which", choices=["F", "FD", "FE", "all"])
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--order", type=int, default=10)
    p.add_argument(
        "--check-closed",
        action="store_true",
        help="cross-check coefficients against the k=1 or k=2 closed forms",
    )
    add_format(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("verify", help="exhaustively verify the rewriting maps")
    p.add_argument("target", choices=["pi", "delta", "tau", "all"])
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--k", type=int, default=None, help="restrict to the region y >= k*x")
    add_budget(p)
    add_format(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("conjecture", help="compare path counts with the conjectured partners")
    p.add_argument("which", type=int, choices=[1, 2])
    p.add_argument("--max-n", type=int, default=6)
    add_budget(p)
    add_format(p)
    p.set_defaults(handler=_cmd_conjecture)

    p = sub.add_parser("bfile", help="print a sequence in OEIS b-file format (lines 'n value')")
    p.add_argument("sequence", choices=list(_BFILE_SEQUENCES))
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(handler=_cmd_bfile)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
