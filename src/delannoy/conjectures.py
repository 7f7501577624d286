"""Equinumerosity checks between path families and other combinatorial families.

Two open correspondences are tested numerically:

1. peak/valley-free paths on y >= x ending at (n, n) with an east step, versus
   North-East paths to (n+1, n+1) weakly above the diagonal with no symmetric
   peak (a peak whose maximal N-run and E-run have equal length);
2. peak/valley-free paths on y >= 2x ending at (n, 2n) with a diagonal step,
   versus inversion sequences of length n with no (strict) 102 pattern.

Both path sides are spec counts (``spec_counts``).  Each partner is one
polynomial table that gives every size up to n_max in one run; the search
``count_inversion_102`` and the spec count ``count_catalan_no_symmetric_peak``
stay as independent test oracles, and no check calls them.
"""

from __future__ import annotations

import itertools
from operator import add, mul, sub
from .counting import _dp_cost, family_spec, spec_counts
# enumerate_paths and count_bruteforce stay bound here, unused: perfbench's
# tracer rebinds both names on this module.
from .paths import PathFamilySpec, _Record, count_bruteforce, enumerate_paths  # noqa: F401


def count_inversion_102(n: int) -> int:
    """Number of inversion sequences of length n avoiding the pattern 102.

    Depth-first construction with an incremental test: appending e creates an
    occurrence (as its final entry) iff some earlier pair e_j < e_i has
    e_i < e.  Only the minimal such e_i matters, so the search carries that
    single threshold and extends a prefix only while e <= threshold.
    """
    if n < 1:
        raise ValueError(f"length must be positive, got {n}")
    prefix: list[int] = []

    def extend(pos: int, threshold: int) -> int:
        if pos == n:
            return 1
        total = 0
        for e in range(pos + 1):
            if e > threshold:
                continue
            new_threshold = threshold
            for earlier in prefix:
                if e < earlier < new_threshold:
                    new_threshold = earlier
            prefix.append(e)
            total += extend(pos + 1, new_threshold)
            prefix.pop()
        return total

    return extend(0, n)  # thresholds never exceed n-1, so n acts as infinity


def count_catalan_no_symmetric_peak(n: int) -> int:
    """North-East paths to (n, n) weakly above y = x with no symmetric peak.

    With D forbidden, a maximal N-run of length j then a maximal E-run of
    length j is the factor E N^j E^j N of the augmented path, whose leading E
    and closing N end the runs at the path's two ends; no run exceeds n.
    """
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    peaks = {"E" + "N" * j + "E" * j + "N" for j in range(1, n + 1)}
    spec = PathFamilySpec(target=(n, n), forbidden={"D"}, forbidden_aug=peaks, region_k=1)
    return next(itertools.islice(spec_counts(spec), n, None))[n]  # the last column, n


def _plus(a: list[int], b: list[int]) -> list[int]:
    return list(map(add, a, b))  # truncated to the shorter series


def no_symmetric_peak_counts(n_max: int) -> list[int]:
    """Catalan paths with no symmetric peak of every size 0..n_max, by runs.

    Such a path is N^a1 E^b1 ... N^ar E^br with every a_i != b_i, and it stays
    in y >= x iff every E-run ends there.  Let f(X, Y) count the paths to
    (X, Y) that end an E-run, with f(0, 0) = 1.  One more run pair from
    (x, y), x < X and y < Y, reaches (X, Y) unless it is symmetric, so

        f(X, Y) = [1 <= X <= Y] (sum_{x<X, y<Y} f(x, y) - sum_{j>=1} f(X-j, Y-j)).

    Rows go up one at a time, keeping the column-wise prefix sums and the
    diagonal sums of the rows below: (n_max + 1)^2 cells of big-int adds.
    """
    if n_max < 0:
        raise ValueError(f"size must be nonnegative, got {n_max}")
    prefix = [1] * (n_max + 1)  # sum of f(x', y') over x' <= x and the rows y' below
    diagonal = [1] + [0] * n_max  # sum of f(x - j, y - 1 - j) over j >= 0
    sizes = [1]
    for y in range(1, n_max + 1):
        row = [0] + [prefix[x] - diagonal[x] for x in range(y)] + [0] * (n_max - y)
        diagonal = [0] + _plus(row[1:], diagonal)
        prefix = _plus(prefix, itertools.accumulate(row))
        sizes.append(row[y])
    return sizes


def _sum_of_products(pairs: list[tuple[list[int], list[int]]], length: int) -> list[int]:
    """Sum of a * b over the series pairs (a, b), truncated to ``length`` terms."""
    return [sum(sum(map(mul, a[: i + 1], b[i::-1])) for a, b in pairs) for i in range(length)]


def inversion_102_counts(n_max: int) -> list[int]:
    """102-avoiding inversion sequences of every length 0..n_max, by one table.

    Up to its first descent a sequence is weakly increasing; those give
    Catalan(n).  Otherwise let t be the least value above the descent entry
    d.  It first appears at some position p after a last value v < t, and d
    is v or lies in the gap between v and t.  Every later entry is at most t
    (else t, d and it form 102), so the bound e_i <= i - 1 no longer binds,
    and the rest depends only on the stack of gaps (unused values) below t.
    With z marking one further entry, a gap g weighs A(g) on top of the stack
    and C(g) = (1 - z) A(g) below it, where

        (1 - 2z) A(g) = 1 + z sum_{a+b=g-1} C(a) A(b).

    Phi[p][v] sums, over the weakly increasing prefixes of length p ending at
    v, the product of C over their gaps: Phi[p][v] is Phi[p-1][v] plus
    K[p][v] = sum_{w<v} Phi[p-1][w] C(v-w-1).  The descent entry weighs
    A(t-v-1) + sum_{a+b=t-v-2} C(a) A(b) = (C(t-v-1) - 1)/z after v, so
    marking t at p weighs (K[p][t] - sum_{v<t} Phi[p-1][v])/z.  A marked
    prefix stays weakly increasing up to some q >= p, and the descent at
    q + 1 adds its coefficient of z^(n-q-1) to length n.

    Each series stops at the last z-order still read.  The products make at
    most (n_max + 2)^4 (n_max + 7) / 120 big-int multiply-adds.
    """
    if n_max < 0:
        raise ValueError(f"length must be nonnegative, got {n_max}")
    A, C = [], []  # gap g <= n_max - 2 is read from position g + 2 on
    for g in range(n_max - 1):
        rhs = [1] + _sum_of_products(list(zip(C, A[::-1])), n_max - g - 2)
        A.append(list(itertools.accumulate(rhs, lambda acc, c: 2 * acc + c)))  # / (1 - 2z)
        C.append(A[g][:1] + list(map(sub, A[g][1:], A[g])))
    counts = [1, 1] + [0] * (n_max - 1)  # the empty sequence and (0)
    phi, marked = [[1] + [0] * n_max], [[0] * n_max]  # position 1: e_1 = 0
    for p in range(2, n_max + 1):
        length = n_max - p + 1  # z-orders 0 .. n_max - p are still read
        phi.append([0] * length)  # the value p - 1, new at p
        marked.append([0] * length)
        K = [_sum_of_products([(phi[v], C[t - v - 1]) for v in range(t)], length) for t in range(p)]
        below = itertools.accumulate(phi, _plus, initial=[0] * length)  # sum_{v<t} Phi[p-1][v]
        weights = [list(map(sub, k[1:], b[1:])) for k, b in zip(K, below)]
        phi = list(map(_plus, phi, K))
        marked = list(map(_plus, itertools.accumulate(marked, _plus), weights))
        counts[p] += sum(s[0] for s in phi)  # no descent
        for i, column in enumerate(zip(*marked)):  # the descent at p + 1
            counts[p + 1 + i] += sum(column)
    return counts[: n_max + 1]


class ConjectureReport(_Record):
    """Side-by-side counts for one conjecture, for each size up to n_max."""

    __slots__ = ("which", "n_max", "rows")  # rows: (n, path count, partner count) per size

    @property
    def verdict(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.rows)

    def __bool__(self) -> bool:
        return self.verdict


# Conjecture number -> (region slope k, last step of the peak/valley-free
# paths to (n, kn), partner table: entry n is the partner count at size n,
# the check's cost: its path DP's table plus the partner table's cells or
# big-int multiply-adds, as its docstring bounds them).  The tables are looked
# up when called, so rebinding one on the module reaches the check.
CONJECTURES = {
    1: (1, "E", lambda n_max: no_symmetric_peak_counts(n_max + 1)[1:],
        lambda n_max: _dp_cost(_path_spec(1, n_max)) + (n_max + 2) ** 2),
    2: (2, "D", lambda n_max: inversion_102_counts(n_max),
        lambda n_max: _dp_cost(_path_spec(2, n_max)) + (n_max + 2) ** 4 * (n_max + 7) // 120),
}


def _path_spec(which: int, n_max: int) -> PathFamilySpec:  # one DP: its column n holds size n at (n, kn)
    k, last, _, _ = CONJECTURES[which]
    return family_spec("h", n_max, k * n_max, region_k=k, last_step=last)


def _check(which: int, n_max: int) -> ConjectureReport:
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    k, _, partner, _ = CONJECTURES[which]
    partners = partner(n_max)
    columns = spec_counts(_path_spec(which, n_max))  # each column read as it passes
    rows = tuple((n, column[k * n], partners[n]) for n, column in enumerate(columns) if n >= 1)
    return ConjectureReport(which, n_max, rows)


def check_conjecture1(n_max: int) -> ConjectureReport:
    """Peak/valley-free paths on y >= x to (n, n) ending in E, versus
    symmetric-peak-free Catalan paths of size n + 1, for 1 <= n <= n_max."""
    return _check(1, n_max)


def check_conjecture2(n_max: int) -> ConjectureReport:
    """Peak/valley-free paths on y >= 2x to (n, 2n) ending in D, versus
    102-avoiding inversion sequences of length n, for 1 <= n <= n_max."""
    return _check(2, n_max)
