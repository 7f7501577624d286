"""Exact counting of Delannoy-path families.

Three independent routes are kept deliberately separate so they can check one
another: closed-form sums, transfer-matrix style dynamic programs over small
step automata, and (in the test suite) brute-force enumeration.  Region
(k-Schroeder) counts use exact rational arithmetic with integrality asserted;
no floats anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import ConsistencyError
from .paths import PathFamilySpec, _check_corner


def binomial(n: int, k: int) -> int:
    """C(n, k) with the summation convention: 0 unless 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def multinomial(top: int, a: int, b: int, c: int) -> int:
    """Trinomial coefficient top! / (a! b! c!); 0 if any lower index is negative."""
    if a < 0 or b < 0 or c < 0:
        return 0
    if top != a + b + c:
        raise ValueError(f"multinomial top {top} != {a} + {b} + {c}")
    return math.comb(top, a) * math.comb(top - a, b)


def delannoy_count(n: int, m: int) -> int:
    """Number of unrestricted paths origin -> (n, m) over steps N, E, D.

    Computed by the two classical sums (grouping by the number d of diagonal
    steps, and the binomial transform); they must agree.
    """
    _check_corner(n, m)
    # every term past min(n, m) is zero
    terms = range(min(n, m) + 1)
    by_diagonals = sum(multinomial(n + m - d, n - d, m - d, d) for d in terms)
    by_binomials = sum(binomial(n, j) * binomial(m, j) * 2**j for j in terms)
    if by_diagonals != by_binomials:
        raise ConsistencyError(
            f"delannoy_count({n}, {m}): {by_diagonals} != {by_binomials}"
        )
    return by_diagonals


@dataclass(frozen=True)
class CountTable:
    """A rectangle of counts, indexed by corner; negative corners count 0."""

    kind: str
    values: Mapping[tuple[int, int], int]

    def __getitem__(self, key: tuple[int, int]) -> int:
        n, m = key
        if n < 0 or m < 0:
            return 0
        return self.values[n, m]


# Last-step automaton for the peak/valley-free family: a peak is the factor
# NE and a valley is EN, so N may not follow E and E may not follow N.
# States: 0 = at the origin, 1 = last step N, 2 = last step E, 3 = last step D.
_H_ALLOWED_PREDECESSORS = {
    "N": (0, 1, 3),  # N after N or D, never after E
    "E": (0, 2, 3),  # E after E or D, never after N
    "D": (0, 1, 2, 3),
}


def h_table(nmax: int, mmax: int) -> CountTable:
    """Counts of paths avoiding the factors NE and EN, for all corners in range."""
    _check_corner(nmax, mmax)
    ways: dict[tuple[int, int], list[int]] = {}
    totals: dict[tuple[int, int], int] = {}
    for x in range(nmax + 1):
        for y in range(mmax + 1):
            state = [0, 0, 0, 0]
            if x == 0 and y == 0:
                state[0] = 1
            if y > 0:
                prev = ways[x, y - 1]
                state[1] = sum(prev[s] for s in _H_ALLOWED_PREDECESSORS["N"])
            if x > 0:
                prev = ways[x - 1, y]
                state[2] = sum(prev[s] for s in _H_ALLOWED_PREDECESSORS["E"])
            if x > 0 and y > 0:
                prev = ways[x - 1, y - 1]
                state[3] = sum(prev[s] for s in _H_ALLOWED_PREDECESSORS["D"])
            ways[x, y] = state
            totals[x, y] = sum(state)
    table = CountTable("h", totals)
    # The three-term recurrence h(n,m) = h(n-1,m) + h(n,m-1) - h(n-2,m-2)
    # holds only from (2,2) on; cross-check the table against it.
    for x in range(2, nmax + 1):
        for y in range(2, mmax + 1):
            expect = table[x - 1, y] + table[x, y - 1] - table[x - 2, y - 2]
            if table[x, y] != expect:
                raise ConsistencyError(f"h recurrence failed at ({x}, {y})")
    return table


def h_dp(n: int, m: int) -> int:
    """Peak/valley-free path count by the last-step automaton."""
    return h_table(n, m)[n, m]


def h_closed(n: int, m: int) -> int:
    """Peak/valley-free path count as an alternating trinomial sum.

    Its i-th term is the i-th term of b_closed(n, m) minus that of
    b_closed(n-1, m-1), so it is computed as that difference.
    """
    return b_closed(n, m) - (b_closed(n - 1, m - 1) if n >= 1 and m >= 1 else 0)


# Suffix automaton for the factor EENN over the alphabet {E, N}: state s is
# the length of the longest suffix that is a prefix of EENN; reaching 4 is a
# match and the word is dead.
_B_NEXT = {
    (0, "E"): 1, (0, "N"): 0,
    (1, "E"): 2, (1, "N"): 0,
    (2, "E"): 2, (2, "N"): 3,
    (3, "E"): 1, (3, "N"): 4,
}


def b_table(nmax: int, mmax: int) -> CountTable:
    """Counts of North-East words (no D step) avoiding the factor EENN."""
    _check_corner(nmax, mmax)
    ways: dict[tuple[int, int], list[int]] = {}
    totals: dict[tuple[int, int], int] = {}
    for x in range(nmax + 1):
        for y in range(mmax + 1):
            state = [0, 0, 0, 0]
            if x == 0 and y == 0:
                state[0] = 1
            if x > 0:
                for s, count in enumerate(ways[x - 1, y]):
                    t = _B_NEXT[s, "E"]
                    if t < 4:
                        state[t] += count
            if y > 0:
                for s, count in enumerate(ways[x, y - 1]):
                    t = _B_NEXT[s, "N"]
                    if t < 4:
                        state[t] += count
            ways[x, y] = state
            totals[x, y] = sum(state)
    table = CountTable("b", totals)
    # Same three-term recurrence as for h, but valid everywhere off the origin.
    for x in range(nmax + 1):
        for y in range(mmax + 1):
            if x == 0 and y == 0:
                continue
            expect = table[x - 1, y] + table[x, y - 1] - table[x - 2, y - 2]
            if table[x, y] != expect:
                raise ConsistencyError(f"b recurrence failed at ({x}, {y})")
    return table


def b_dp(n: int, m: int) -> int:
    """EENN-avoiding North-East word count by the suffix automaton."""
    return b_table(n, m)[n, m]


def b_closed(n: int, m: int) -> int:
    """EENN-avoiding North-East word count as an alternating trinomial sum."""
    _check_corner(n, m)
    total = 0
    i = 0
    while True:
        t = multinomial(n + m - 3 * i, n - 2 * i, m - 2 * i, i)
        if t == 0:
            break
        total += (-1) ** i * t
        i += 1
    return total


def a_count(n: int, m: int) -> int:
    """Paths whose augmented path avoids both D and EENN.

    Equals b(n, m) - b(n-1, m-1); also equals the peak/valley-free count,
    which is asserted on every call.
    """
    _check_corner(n, m)
    bt = b_table(n, m)
    value = bt[n, m] - bt[n - 1, m - 1]
    h = h_dp(n, m)
    if value != h:
        raise ConsistencyError(f"a_count({n}, {m}) = {value} != h = {h}")
    return value


def schroeder_count(n: int, k: int = 1) -> int:
    """Paths origin -> (n, kn) staying in y >= kx (k-Schroeder paths of size n).

    Computed as schroeder_rect_count(n, kn, k): at that corner the weight
    (m - kn + 1) is 1, and the two cross-checked sums there are term for term
    the multinomial and binomial-transform forms of this count.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if k < 1:
        raise ValueError(f"slope k must be a positive integer, got {k}")
    return schroeder_rect_count(n, k * n, k)


def schroeder_rect_count(n: int, m: int, k: int = 1) -> int:
    """Paths origin -> (n, m) staying in y >= kx; 0 whenever m < kn.

    Two exact forms, both carrying the corner weight (m - kn + 1): a
    rational multinomial sum over the number of diagonal steps, and for
    n >= 1 a binomial transform; both must give the same integer.
    """
    _check_corner(n, m)
    if k < 1:
        raise ValueError(f"slope k must be a positive integer, got {k}")
    if m < k * n:
        return 0
    form1 = sum(
        Fraction((m - k * n + 1) * multinomial(m + n - d, m - d, n - d, d), m - d + 1)
        for d in range(n + 1)
    )
    if form1.denominator != 1:
        raise ConsistencyError(f"schroeder_rect_count({n}, {m}, k={k}) is not an integer: {form1}")
    if n >= 1:
        form2 = Fraction(
            (m - k * n + 1)
            * sum(binomial(m, j - 1) * binomial(n, j) * 2**j for j in range(1, n + 1)),
            n,
        )
        if form1 != form2:
            raise ConsistencyError(
                f"schroeder_rect_count({n}, {m}, k={k}): {form1} != {form2}"
            )
    return int(form1)


def expand_bivariate(
    numerator: Mapping[tuple[int, int], int], order: int
) -> dict[tuple[int, int], int]:
    """Coefficients of numerator / (1 - x - y + x^2 y^2) up to total degree order.

    The denominator gives the recurrence
    c(n,m) = num(n,m) + c(n-1,m) + c(n,m-1) - c(n-2,m-2)
    with c = 0 at negative indices.  Returns c on the full (order+1)^2 grid.
    """
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    coeffs: dict[tuple[int, int], int] = {}
    c = CountTable("expansion", coeffs)  # a live view: 0 at negative indices
    for i in range(order + 1):
        for j in range(order + 1):
            coeffs[i, j] = (
                numerator.get((i, j), 0)
                + c[i - 1, j]
                + c[i, j - 1]
                - c[i - 2, j - 2]
            )
    return coeffs


# Every counted family: the fields of its PathFamilySpec beyond the corner,
# whether its corner lies in the region y >= kx, and its counting routes,
# default first; brute force over the spec counts every family too.  A route
# looks its function up when it runs, so rebinding a module attribute (a test
# mutation, a tracer) reaches every caller.
FAMILIES: dict[str, tuple[dict, bool, dict]] = {
    "delannoy": ({}, False, {"closed": lambda n, m, k: delannoy_count(n, m)}),
    "h": (
        {"forbidden": {"NE", "EN"}},
        False,
        {"dp": lambda n, m, k: h_dp(n, m), "closed": lambda n, m, k: h_closed(n, m)},
    ),
    "b": (
        {"forbidden": {"D", "EENN"}},
        False,
        {"dp": lambda n, m, k: b_dp(n, m), "closed": lambda n, m, k: b_closed(n, m)},
    ),
    "a": (
        {"forbidden_aug": {"D", "EENN"}},
        False,
        # a = b(n, m) - b(n-1, m-1) by definition, which is h's closed form
        {"dp": lambda n, m, k: a_count(n, m), "closed": lambda n, m, k: h_closed(n, m)},
    ),
    "schroeder": ({}, True, {"closed": lambda n, m, k: schroeder_count(n, k)}),
    "schroeder-rect": ({}, True, {"closed": lambda n, m, k: schroeder_rect_count(n, m, k)}),
}


def family_spec(family: str, n: int, m: int, k: int | None = None, **fields) -> PathFamilySpec:
    """The spec of ``family`` at corner (n, m).

    A region family takes its slope from ``k``; ``fields`` add further spec
    fields, such as a region for the other families or a last step.
    """
    base, in_region, _ = FAMILIES[family]
    if in_region:
        fields["region_k"] = k
    return PathFamilySpec(target=(n, m), **base, **fields)
