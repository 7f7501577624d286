"""Command line interface.

Subcommands: count, enum, map, series, verify, conjecture, bfile.
Exit codes: 0 success, 1 usage or precondition error, 2 internal cross-check
mismatch (two routes that must agree disagreed).  Stdout carries a result
only on exit 0; every check runs before anything is printed.  JSON output is
a single record with fixed key order (command, parameters, result): the
parameters are the parsed arguments as the command resolved them, less
--format and --budget.  It holds no timing, so the same command prints the
same bytes on every run.  --budget refuses a command unless its chosen
routes' charges, summed, fit before any runs: a walk the prefixes it examines
(over-counted at its early returns, a target below the region and an axis
root off --first), whose counting table of cells x states must fit too; a DP
or bfile h-diag its tables' cells x states; conjecture its path DP's table
and its partner table; closed forms and series nothing.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from itertools import tee
from typing import Any, Iterable

# series, bijections and conjectures are imported by the commands that run them
from . import counting
from .errors import ConsistencyError, agree
from .paths import LatticePath, PathFamilySpec, count_bruteforce, enumerate_paths, parse_path

DEFAULT_BUDGET = 10**7
_UNECHOED = {"command", "handler", "format", "budget"}  # the output controls and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _guard_budget(charges: Iterable, budget: int) -> None:
    left = budget  # each charge is told the budget and what the earlier ones left of it
    for charge in charges:  # stops at the first past the budget
        if (left := left - charge(budget, left)) < 0:
            raise ValueError(f"size exceeds budget {budget}; reduce the bounds or raise --budget")


# ---------- count ----------


def _cmd_count(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    family = args.family
    _, in_region, routes = counting.FAMILIES[family]
    if args.k is not None and not in_region:
        regional = " and ".join(name for name, (_, flag, _) in counting.FAMILIES.items() if flag)
        raise ValueError(f"family {family} has no region; --k applies to {regional}")
    k = 1 if args.k is None else args.k
    if family == "schroeder":
        if args.m is not None:
            raise ValueError("family schroeder takes a single size n (its corner is (n, k*n))")
        n, m = args.n, k * args.n
    else:
        if args.m is None:
            raise ValueError(f"family {family} needs both corner coordinates n and m")
        n, m = args.n, args.m

    routes = {**routes, "bruteforce": (counting.prefix_count, count_bruteforce)}  # the walk: its prefixes
    method = args.method or next(iter(routes))
    if method != "all" and method not in routes:
        raise ValueError(f"method {method} is not available for family {family}")

    chosen = routes if method == "all" else {method: routes[method]}
    spec = counting.family_spec(family, n, m, k)
    _guard_budget((partial(charge, spec) for charge, _ in chosen.values()), args.budget)
    values = {name: run(spec) for name, (_, run) in chosen.items()}
    value = agree(f"count {family} ({n}, {m})", values)
    lines = [str(value)]
    if method == "all":
        lines += [f"  {name}: {v}" for name, v in values.items()]

    return {"k": k, "method": method}, {"value": value, "methods": values}, lines


# ---------- enum ----------


def _cmd_enum(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    spec = PathFamilySpec(
        target=tuple(args.target),
        forbidden=filter(None, args.avoid.split(",")),  # comma-separated, empty parts dropped
        forbidden_aug=filter(None, args.avoid_aug.split(",")),
        region_k=args.region,
        first_step=args.first,
        last_step=args.last,
    )
    _guard_budget([partial(counting.prefix_count, spec)], args.budget)
    words = [path.word for path in enumerate_paths(spec)]
    resolved = {"avoid": sorted(spec.forbidden), "avoid_aug": sorted(spec.forbidden_aug)}
    return resolved, {"count": len(words), "words": words}, words


# ---------- map ----------

# CLI map name -> (its function in bijections, looked up when used so rebinding it reaches map and
# verify; its verify case or None: domain, codomain, codomain corner shift, excluded family, takes --k).
_MAPS = {
    "pi": ("pi_map", ("a", "h", 0, None, True)),
    "delta": ("delta_map", ("h", "a", 0, None, True)),
    "tau": ("tau_map", ("b", "b", 1, "a", False)),  # tau relates unrestricted families only
    "tau-inv": ("tau_inverse", None),
}


def _cmd_map(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    from . import bijections
    path = parse_path(args.word)
    image = getattr(bijections, _MAPS[args.name][0])(path)
    result = {"word": image.word, "start": list(image.start), "end": list(image.end)}
    return {}, result, [image.word]


# ---------- series ----------


def _cmd_series(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    from . import series
    if args.check_closed and args.k >= 3:
        raise ValueError(f"no closed form is available for k = {args.k}")
    triple = series.assemble_triple(args.k, args.order)
    if args.check_closed:
        closed = series.closed_k1 if args.k == 1 else series.closed_k2  # k = 2 has no FE form
        terms = [closed(i) for i in range(args.order + 1)]
        got = [(triple.f[i], triple.fd[i], triple.fe[i])[: len(want)] for i, want in enumerate(terms)]
        agree(f"closed form for k={args.k}", {"series": got, "closed": terms}, "x^{}".format)
    available = {"F": triple.f, "FD": triple.fd, "FE": triple.fe}
    chosen = available if args.which == "all" else {args.which: available[args.which]}
    coeffs = {name: list(s.coeffs) for name, s in chosen.items()}
    if args.which == "all":
        lines = [f"{name}: " + " ".join(str(c) for c in cs) for name, cs in coeffs.items()]
    else:
        lines = [" ".join(str(c) for c in coeffs[args.which])]
    return {}, {"coefficients": coeffs, "checked_against_closed_form": args.check_closed}, lines


# ---------- verify ----------


def _verify_cases(target: str, max_n: int, max_m: int, k: int | None):
    """Yield (label, domain, mapping, codomain, exclude) for every grid corner."""
    from . import bijections
    for name, (function, case) in _MAPS.items():
        if case is None or target not in (name, "all"):
            continue
        domain, codomain, shift, exclude, regional = case
        region = k if regional else None
        for n in range(shift, max_n + 1):
            for m in range(shift, max_m + 1):
                yield (
                    f"{name} ({n},{m})",
                    counting.family_spec(domain, n, m, region_k=region),
                    getattr(bijections, function),
                    counting.family_spec(codomain, n - shift, m - shift, region_k=region),
                    counting.family_spec(exclude, n, m) if exclude else None,
                )


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    from . import bijections
    max_m = args.max_n if args.max_m is None else args.max_m
    if args.max_n < 0 or max_m < 0:
        raise ValueError("bounds must be nonnegative")
    if args.target in _MAPS:  # one map: refuse what it cannot verify
        _, (_, _, shift, _, regional) = _MAPS[args.target]
        if args.k is not None and not regional:
            raise ValueError(f"{args.target} is a map between unrestricted families; --k does not apply")
        if min(args.max_n, max_m) < shift:
            raise ValueError(f"no case to verify: {args.target}'s first corner is ({shift}, {shift})")
    cases, listed = tee(_verify_cases(args.target, args.max_n, max_m, args.k))  # generated once
    _guard_budget(  # each case walks its domain and its codomain
        (partial(counting.prefix_count, spec) for case in listed for spec in case[1:4:2]), args.budget
    )

    rows, failures = [], []
    for label, domain, mapping, codomain, exclude in cases:
        report = bijections.verify_bijection(domain, mapping, codomain, domain_exclude=exclude)
        rows.append({"case": label, "ok": report.ok, "domain_size": report.domain_size,
                     "codomain_size": report.codomain_size})
        if not report.ok:
            witnesses = "; ".join(
                " ".join(p.word or "(empty)" if isinstance(p, LatticePath) else str(p) for p in item)
                for item in report.counterexamples[:5]
            )
            failures.append(f"{label}: {witnesses}")

    if failures:
        raise ConsistencyError(f"{len(failures)} case(s) failed: " + " | ".join(failures))
    lines = [f"{row['case']}: ok (domain {row['domain_size']}, codomain {row['codomain_size']})" for row in rows]
    lines.append(f"all {len(rows)} cases ok")
    return {"max_m": max_m}, {"cases": rows, "ok": True}, lines


# ---------- conjecture ----------


def _cmd_conjecture(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    from . import conjectures
    if args.max_n < 1:
        raise ValueError("--max-n must be positive")
    *_, cost = conjectures.CONJECTURES[args.which]  # its path DP's table and its partner table
    _guard_budget([lambda *_: cost(args.max_n)], args.budget)
    report = conjectures._check(args.which, args.max_n)
    sizes, paths, partners = map(list, zip(*report.rows))
    agree(f"conjecture {args.which}", {"paths": paths, "partner": partners}, lambda i: f"n={sizes[i]}")
    lines = [f"n={n}: paths {lhs}, partner {rhs} ==" for n, lhs, rhs in report.rows]
    lines.append("agree")
    rows = [{"n": n, "paths": lhs, "partner": rhs} for n, lhs, rhs in report.rows]
    return {}, {"rows": rows, "verdict": report.verdict}, lines


# ---------- bfile ----------


def _series_coeffs(k: int, part: str, order: int) -> list[int]:
    from . import series
    return list(getattr(series.assemble_triple(k, order), part).coeffs)


# b-file sequence -> (charge, values at 0..order): the h table's diagonal, read off
# its checked columns and charged its DP, or a region series' coefficients, free.
_BFILE_SEQUENCES = {
    "h-diag": (lambda order, *_: counting._dp_cost(counting.family_spec("h", order, order)), lambda order: [
        column[n] for n, column in enumerate(counting.table_columns("h", order, order))]),
    "F1": (counting._FREE, partial(_series_coeffs, 1, "f")),
    "FD2": (counting._FREE, partial(_series_coeffs, 2, "fd")),
    "FE1": (counting._FREE, partial(_series_coeffs, 1, "fe")),
    "FD3": (counting._FREE, partial(_series_coeffs, 3, "fd")),
}


def _cmd_bfile(args: argparse.Namespace) -> tuple[dict, Any, list[str]]:
    if args.order < 0:
        raise ValueError(f"order must be nonnegative, got {args.order}")
    charge, sequence = _BFILE_SEQUENCES[args.sequence]
    _guard_budget([partial(charge, args.order)], args.budget)
    values = sequence(args.order)
    return {}, values, [f"{n} {value}" for n, value in enumerate(values)]


# ---------- parser ----------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delannoy", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser, choices=("text", "json")) -> None:
        p.add_argument("--format", choices=list(choices), default=choices[0])

    def budget(text: str) -> int:  # argparse's "invalid budget value" names it
        if int(text) < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {text}")
        return int(text)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--budget",
            type=budget,
            default=DEFAULT_BUDGET,
            help="refuse a command whose chosen routes, charged and summed before any runs, cost "
            "more than this (default 10^7): a walk (enum, count bruteforce, each of verify's) the "
            "prefixes it examines, count's DP and bfile h-diag their tables' cells x states, "
            "conjecture its path DP's table and its partner table; closed forms and series nothing",
        )

    p = sub.add_parser("count", help="count one path family at one corner")
    p.add_argument("family", choices=sorted(counting.FAMILIES))
    p.add_argument("n", type=int)
    p.add_argument("m", type=int, nargs="?", default=None)
    p.add_argument("--k", type=int, default=None, help="region slope (schroeder families)")
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
    p.add_argument("target", choices=[name for name, (_, case) in _MAPS.items() if case] + ["all"])
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
    add_budget(p)
    p.set_defaults(handler=_cmd_bfile)

    return parser


def main(argv: list[str] | None = None) -> int:
    # exact counts outgrow Python's default 4300-digit limit on int -> str (3.11+)
    getattr(sys, "set_int_max_str_digits", lambda _: None)(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved, result, lines = args.handler(args)
    except (ValueError, OverflowError) as exc:  # OverflowError: a corner past what math.comb takes
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"cross-check mismatch: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "format", "text") == "json":  # bfile has no --format
        parameters = {name: v for name, v in vars(args).items() if name not in _UNECHOED} | resolved
        print(json.dumps({"command": args.command, "parameters": parameters, "result": result}, indent=2))
    else:
        for line in lines:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
