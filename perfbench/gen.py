"""Seeded job lists for the four benchmark workloads.

This module never imports the library: the set-up probe times
``import delannoy`` separately, and job generation must not hide inside it.

Every workload draws one job list per pass from ``random.Random`` seeded
with the string ``"<workload>:<seed>:<pass>"`` (string seeds hash with
SHA-512, so lists are identical across processes and interpreter hash
seeds).  Each list has a fixed shape: a fixed number of jobs in each size
stratum, with the seed choosing the exact sizes, patterns and order.  The
shape keeps the cost of a list nearly the same from seed to seed, so
run-to-run spread measures the program rather than the draw, while the known
slow paths (``forbidden_aug`` walks, the exact-count budget guard, the
``Fraction`` sums) stay in every list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("gf_orders", "grid_counts", "exhaustive", "cli_oneshot")


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a kind tag and plain, hashable arguments."""

    kind: str
    args: tuple


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _word(rng: random.Random, length: int, alphabet: str = "NED") -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal slices.

    A stratified draw: the seed moves every value, but the values always
    cover the whole range, so the cost of a list barely depends on the seed.
    """
    width = (hi - lo + 1) / count
    return [lo + int(i * width) + rng.randrange(max(1, int(width))) for i in range(count)]


# ---------- gf_orders ----------

# (order range, jobs per slope k).  Most jobs are small; every list holds
# one job per k near order 120, where the solver's ~N^2.8 cost dominates.
# The narrow 60-64 band puts the k=3 jobs there at about the cost of the
# k=1 job near 120: a cluster around the p95 rank, which keeps it steady.
_GF_STRATA = (((4, 15), 21), ((16, 40), 8), ((60, 64), 4), ((117, 120), 1))


def _gen_gf_orders(rng: random.Random) -> list[Job]:
    jobs = [
        Job("triple", (k, order))
        for (lo, hi), per_k in _GF_STRATA
        for k in (1, 2, 3)
        for order in _spread(rng, lo, hi, per_k)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------- grid_counts ----------


def _corner(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    return rng.randint(lo, hi), rng.randint(lo, hi)


def _corners(rng: random.Random, lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """``count`` corners whose coordinates are each a stratified draw."""
    ys = _spread(rng, lo, hi, count)
    rng.shuffle(ys)
    return list(zip(_spread(rng, lo, hi, count), ys))


def _gen_grid_counts(rng: random.Random) -> list[Job]:
    # Three giants; a cluster of large table jobs; a plateau of point queries
    # holding the median; cheap closed-form and region queries below it.
    # Clusters of similar cost around the ranks of the median and the tail
    # keep those percentiles steady from seed to seed.
    tables = ("h_table", "b_table")
    k = rng.randint(1, 3)
    big = {1: (1480, 1500), 2: (1080, 1100), 3: (1030, 1050)}[k]  # about equal cost
    jobs = [
        Job(rng.choice(tables), _corner(rng, 296, 300)),
        Job("delannoy", _corner(rng, 1480, 1500)),
        Job("schroeder", (rng.randint(*big), k)),
    ]
    # a_count builds two tables at its corner: (85, 85) costs about one (120, 120)
    jobs += [Job(rng.choice(tables), c) for c in _corners(rng, 118, 122, 3)]
    jobs += [Job("a_count", c) for c in _corners(rng, 83, 87, 2)]
    # b_pair is cheaper than h_pair at the same corner: the median falls
    # well inside the h_pair cluster, never on the boundary between the two.
    # Fifty jobs make the tail rung p95, which lands between the two giants
    # of equal cost (Delannoy and Schroeder).
    jobs += [Job("h_pair", c) for c in _corners(rng, 48, 52, 23)]
    jobs += [Job("b_pair", c) for c in _corners(rng, 48, 52, 4)]
    jobs += [Job("delannoy", c) for c in _corners(rng, 50, 200, 5)]
    slopes = [1, 2, 3, 1, 2]
    rng.shuffle(slopes)
    jobs += [Job("schroeder", (n, k)) for n, k in zip(_spread(rng, 10, 150, 5), slopes)]
    for n, k in zip(_spread(rng, 5, 120, 3), rng.sample((1, 2, 3), 3)):
        jobs.append(Job("schroeder_rect", (n, k * n + rng.randint(0, 40), k)))
    numerators = (((0, 0, 1),), ((0, 0, 1), (1, 1, -1)))
    for order, numerator in zip(_spread(rng, 20, 50, 2), rng.sample(numerators, 2)):
        jobs.append(Job("expand", (order, numerator)))
    rng.shuffle(jobs)
    return jobs


# ---------- exhaustive ----------


def _patterns(rng: random.Random, count: int, lo: int, hi: int) -> tuple[str, ...]:
    return tuple(sorted({_word(rng, rng.randint(lo, hi)) for _ in range(count)}))


def _aug_patterns(rng: random.Random) -> tuple[str, ...]:
    """"D" plus a North-East pattern, as in the family a = (avoid D, EENN).

    "D" leaves only the North-East paths, so the number of paths a walk
    emits, and with it the cost, barely depends on the drawn pattern.
    """
    return tuple(sorted({"D", _word(rng, rng.randint(4, 6), "NE")}))


def _heavy_spec(rng: random.Random) -> tuple:
    """(target, forbidden, forbidden_aug, region_k, first, last) at (7, 7).

    Augmented-path patterns prune nothing until a walk completes: the known
    slow path of the walkers, which visit the whole Delannoy tree here.  One
    pattern of length 6 drops few of the 48639 paths, so the listed paths,
    which set the workload's peak memory, barely depend on the draw.
    """
    return ((7, 7), (), (_word(rng, 6),), None, None, None)


def _typical_spec(rng: random.Random) -> tuple:
    """Corner (5, 5) with augmented-path patterns only.

    The walk is the full Delannoy tree whatever the patterns, so these jobs
    cost nearly the same: the median sits on them.
    """
    return ((5, 5), (), _aug_patterns(rng), None, None, None)


def _random_spec(rng: random.Random) -> tuple:
    """Any mix of constraints, on a small corner."""
    region_k = rng.randint(1, 2) if rng.random() < 0.3 else None
    if region_k:
        n = rng.randint(1, 8 // region_k)
        m = rng.randint(region_k * n, 8)
    else:
        n, m = _corner(rng, 0, 5)
    forbidden = _patterns(rng, rng.randint(1, 3), 1, 4)
    forbidden_aug = _patterns(rng, 1, 2, 4) if rng.random() < 0.3 else ()
    first = rng.choice("NED") if rng.random() < 0.25 else None
    last = rng.choice("NED") if rng.random() < 0.25 else None
    return ((n, m), forbidden, forbidden_aug, region_k, first, last)


def _gen_exhaustive(rng: random.Random) -> list[Job]:
    # Giants: two slow-path walks and both conjectures at n = 9.  A plateau
    # of typical specs holds the median; random small specs sit below it.
    # The tail rank (p95 of 50-job lists) falls on the two slow-path walks.
    jobs = [Job("spec", _heavy_spec(rng)) for _ in range(2)]
    jobs += [Job("conjecture", (1, 9)), Job("conjecture", (2, 9))]
    jobs += [Job("spec", _typical_spec(rng)) for _ in range(24)]
    jobs += [Job("spec", _random_spec(rng)) for _ in range(16)]
    for name in ("pi", "delta", "tau"):
        jobs.append(Job("bijection", (name, 6, 7, None)))
        n, m = _corner(rng, 1, 4)
        k = rng.choice((None, 1)) if name != "tau" else None
        jobs.append(Job("bijection", (name, n, max(m, n) if k else m, k)))
    rng.shuffle(jobs)
    return jobs


# ---------- cli_oneshot ----------

# Refusals: each list has one budget overrun, whose exact-count guard is
# itself slow, and one malformed or out-of-range request.
_MALFORMED = (
    ("map", "pi", "NXE"),
    ("count", "h", "3"),
    ("series", "F", "--order", "-1"),
    ("count", "schroeder", "5", "--method", "dp"),
    ("verify", "tau", "--k", "2"),
    ("conjecture", "1", "--max-n", "0"),
)


def _avoiding(rng: random.Random, length: int, avoid: str, alphabet: str = "NE") -> str:
    while True:
        w = _word(rng, length, alphabet)
        if avoid not in w:
            return w


def _tau_word(rng: random.Random) -> str:
    # EENN-avoiding, and the augmented word E w N contains EENN
    while True:
        w = _avoiding(rng, rng.randint(3, 9), "EENN")
        if w == "EN" or w.startswith("ENN") or w.endswith("EEN"):
            return w


def _cli_ok(rng: random.Random) -> tuple[str, ...]:
    kind = rng.choice(("count", "count", "count", "enum", "map", "series", "verify", "conjecture", "bfile"))
    js = ("--format", "json")
    if kind == "count":
        family = rng.choice(("delannoy", "h", "b", "a", "schroeder", "schroeder-rect"))
        if family == "schroeder":
            k = rng.randint(1, 3)
            return ("count", family, str(rng.randint(1, 40)), "--k", str(k)) + js
        if family == "schroeder-rect":
            n, k = rng.randint(1, 20), rng.randint(1, 3)
            return ("count", family, str(n), str(k * n + rng.randint(0, 10)), "--k", str(k)) + js
        if family == "delannoy":
            n, m = _corner(rng, 5, 60)
            return ("count", family, str(n), str(m)) + js
        n, m = _corner(rng, 0, 6)
        method = rng.choice(("dp", "closed", "all"))
        return ("count", family, str(n), str(m), "--method", method) + js
    if kind == "enum":
        n, m = _corner(rng, 0, 4)
        argv = ("enum", "--target", str(n), str(m))
        if rng.random() < 0.7:
            argv += ("--avoid", ",".join(sorted({_word(rng, rng.randint(2, 3)) for _ in range(2)})))
        if rng.random() < 0.3:
            argv += ("--avoid-aug", _word(rng, 3))
        return argv + js
    if kind == "map":
        name = rng.choice(("pi", "delta", "tau", "tau-inv"))
        if name == "pi":
            word = _word(rng, rng.randint(1, 12), "NE")
        elif name == "delta":
            word = _avoiding(rng, rng.randint(1, 12), "NE", "NED")
        elif name == "tau":
            word = _tau_word(rng)
        else:
            word = _avoiding(rng, rng.randint(1, 10), "EENN")
        return ("map", name, word) + js
    if kind == "series":
        k = rng.randint(1, 3)
        argv = ("series", "all", "--k", str(k), "--order", str(rng.randint(5, 20)))
        if k < 3 and rng.random() < 0.5:
            argv += ("--check-closed",)
        return argv + js
    if kind == "verify":
        target = rng.choice(("pi", "delta", "tau", "all"))
        return ("verify", target, "--max-n", str(rng.randint(1, 3))) + js
    if kind == "conjecture":
        return ("conjecture", str(rng.randint(1, 2)), "--max-n", str(rng.randint(2, 6))) + js
    sequence = rng.choice(("h-diag", "F1", "FD2", "FE1", "FD3"))
    return ("bfile", sequence, "--order", str(rng.randint(5, 20)))


def _gen_cli_oneshot(rng: random.Random) -> list[Job]:
    jobs = [Job("cli", (_cli_ok(rng), 0)) for _ in range(23)]
    n = rng.randint(1400, 1500)
    jobs.append(Job("cli", (("enum", "--target", str(n), str(n), "--format", "json"), 1)))
    jobs.append(Job("cli", (rng.choice(_MALFORMED), 1)))
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {
    "gf_orders": _gen_gf_orders,
    "grid_counts": _gen_grid_counts,
    "exhaustive": _gen_exhaustive,
    "cli_oneshot": _gen_cli_oneshot,
}


def generate(workload: str, seed: int, pass_index: int = 0) -> list[Job]:
    """The job list for one pass of ``workload``; a pure function of its arguments."""
    return _GENERATORS[workload](_rng(workload, seed, pass_index))


# ---------- reuse share ----------


def _needs(job: Job) -> list[tuple[tuple, tuple[int, ...]]]:
    """(family key, extent) pairs whose values the job's answer consists of.

    An earlier job provides the same pairs; a later need is covered when an
    earlier pair has the same key and an extent at least as large in every
    coordinate (a longer prefix, a larger table).
    """
    a = job.args
    if job.kind == "triple":
        return [(("series", a[0]), (a[1],))]
    if job.kind in ("h_table", "h_pair"):
        return [(("h",), a)]
    if job.kind in ("b_table", "b_pair"):
        return [(("b",), a)]
    if job.kind == "a_count":
        return [(("b",), a), (("h",), a)]
    if job.kind == "schroeder":
        n, k = a
        return [(("rect", n, k * n, k), ())]
    if job.kind == "schroeder_rect":
        return [(("rect",) + a, ())]
    if job.kind == "expand":
        return [(("expand", a[1]), (a[0],))]
    if job.kind == "conjecture":
        return [(("conjecture", a[0]), (a[1],))]
    return [((job.kind,) + a, ())]


def reuse_share(jobs: list[Job]) -> float:
    """Fraction of jobs whose whole answer is contained in an earlier job's answer."""
    seen: dict[tuple, list[tuple[int, ...]]] = {}
    reused = 0
    for job in jobs:
        needs = _needs(job)
        if all(
            any(all(e >= x for e, x in zip(extent, need)) for extent in seen.get(key, ()))
            for key, need in needs
        ):
            reused += 1
        for key, extent in needs:
            seen.setdefault(key, []).append(extent)
    return reused / len(jobs)
