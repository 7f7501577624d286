"""Exact counting of Delannoy-path families.

Three independent routes are kept deliberately separate so they can check one
another: closed-form sums, one transfer-matrix dynamic program compiled from
a family's spec (``spec_counts``), and (in the test suite) brute-force
enumeration.  Every division is a checked integer division (``_exact``); no
floats or fractions anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import ConsistencyError
from .paths import _DISPLACEMENT, PathFamilySpec, _check_corner


def binomial(n: int, k: int) -> int:
    """C(n, k) with the summation convention: 0 unless 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _exact(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; a remainder raises ConsistencyError."""
    quotient, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"{what} is not an integer: remainder {rem} mod {den}")
    return quotient


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


def _matcher(patterns: frozenset[str]):
    """The Aho-Corasick automaton of ``patterns`` as a transition function.

    A state is the longest suffix of the word read that is a proper prefix of
    a pattern; a step that completes a pattern has no successor (None).
    """
    prefixes = {p[:i] for p in patterns for i in range(len(p))} | {""}
    ends = tuple(patterns)

    def step(state: str, c: str) -> str | None:
        word = state + c  # every occurrence ending at this step is a suffix of word
        if word.endswith(ends):
            return None
        return next(word[i:] for i in range(len(word) + 1) if word[i:] in prefixes)

    return step


def spec_counts(spec: PathFamilySpec) -> dict[tuple[int, int], int]:
    """The family's size at every corner (x, y) <= spec.target, as if it were
    the target, by a transfer-matrix DP (Stanley, EC1 4.7) compiled from spec.

    A state is a reachable triple: the matcher states of ``forbidden`` and of
    ``forbidden_aug`` (after the augmented path's leading E), and the last
    step when ``last_step`` is set.  The region prunes cells, ``first_step``
    the moves out of the empty word; an accepted state matches ``last_step``
    and survives the augmented path's closing N.  One column of state vectors
    is kept at a time.
    """
    n, m = spec.target
    _check_corner(n, m)
    fwd, aug = _matcher(spec.forbidden), _matcher(spec.forbidden_aug)
    # under a first-step filter the empty word has a state of its own (last step "")
    start = ("", aug("", "E"), "" if spec.first_step else None)
    index = {start: 0} if start[1] is not None else {}
    moves: dict[str, list[tuple[int, int]]] = {c: [] for c in _DISPLACEMENT}
    todo = list(index)
    while todo:
        state = todo.pop()
        for c in spec.first_step if state[2] == "" else "END":
            succ = (fwd(state[0], c), aug(state[1], c), c if spec.last_step else None)
            if succ[0] is None or succ[1] is None:
                continue
            if succ not in index:
                index[succ] = len(index)
                todo.append(succ)
            moves[c].append((index[state], index[succ]))
    accept = [i for (_, s2, last), i in index.items()
              if last == spec.last_step and aug(s2, "N") is not None]
    k = spec.region_k
    counts: dict[tuple[int, int], int] = {}
    left: list[list[int]] = []  # column x - 1
    for x in range(n + 1):
        column: list[list[int]] = []
        for y in range(m + 1):
            v = [0] * len(index)
            if (x, y) == (0, 0) and index:
                v[0] = 1
            elif k is None or y >= k * x:
                for c, (dx, dy) in _DISPLACEMENT.items():
                    if x >= dx and y >= dy:
                        source = (left if dx else column)[y - dy]
                        for s, t in moves[c]:
                            v[t] += source[s]
            column.append(v)
            counts[x, y] = sum(v[i] for i in accept)
        left = column
    return counts


def _check_three_term(table: CountTable, nmax: int, mmax: int, lo: int) -> None:
    """Cross-check t(x,y) = t(x-1,y) + t(x,y-1) - t(x-2,y-2) on x, y >= lo, off the origin."""
    for x in range(lo, nmax + 1):
        for y in range(lo, mmax + 1):
            expect = table[x - 1, y] + table[x, y - 1] - table[x - 2, y - 2]
            if (x or y) and table[x, y] != expect:
                raise ConsistencyError(f"{table.kind} recurrence failed at ({x}, {y})")


def h_table(nmax: int, mmax: int) -> CountTable:
    """Counts of paths avoiding the factors NE and EN, for all corners in range."""
    table = CountTable("h", spec_counts(family_spec("h", nmax, mmax)))
    _check_three_term(table, nmax, mmax, 2)  # the recurrence holds only from (2,2) on
    return table


def h_dp(n: int, m: int) -> int:
    """Peak/valley-free path count by the DP compiled from the family's spec."""
    return h_table(n, m)[n, m]


def h_closed(n: int, m: int) -> int:
    """Peak/valley-free path count as an alternating trinomial sum.

    Its i-th term is the i-th term of b_closed(n, m) minus that of
    b_closed(n-1, m-1), so it is computed as that difference.
    """
    return b_closed(n, m) - (b_closed(n - 1, m - 1) if n >= 1 and m >= 1 else 0)


def b_table(nmax: int, mmax: int) -> CountTable:
    """Counts of North-East words (no D step) avoiding the factor EENN."""
    table = CountTable("b", spec_counts(family_spec("b", nmax, mmax)))
    _check_three_term(table, nmax, mmax, 0)  # as for h, but everywhere off the origin
    return table


def b_dp(n: int, m: int) -> int:
    """EENN-avoiding North-East word count by the DP compiled from the family's spec."""
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

    Two exact forms, both carrying the corner weight w = m - kn + 1: a sum
    over the number d of diagonal steps, whose term d (the paths with d
    diagonal steps) is an exact quotient, and for n >= 1 a binomial
    transform; both must give the same integer.
    """
    _check_corner(n, m)
    if k < 1:
        raise ValueError(f"slope k must be a positive integer, got {k}")
    if m < k * n:
        return 0
    w, what = m - k * n + 1, f"schroeder_rect_count({n}, {m}, k={k})"
    form1 = sum(
        _exact(w * multinomial(m + n - d, m - d, n - d, d), m - d + 1, f"{what} term {d}")
        for d in range(n + 1)
    )
    if n >= 1:
        transform = sum(binomial(m, j - 1) * binomial(n, j) * 2**j for j in range(1, n + 1))
        form2 = _exact(w * transform, n, f"{what} form 2")
        if form1 != form2:
            raise ConsistencyError(f"{what}: {form1} != {form2}")
    return form1


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
