"""Exact counting of Delannoy-path families.

Three independent routes are kept deliberately separate so they can check one
another: closed-form sums, one transfer-matrix dynamic program compiled from
a family's spec (``spec_counts``), and brute-force enumeration, which the tests and
``count --method bruteforce|all`` run, each walk charged by ``prefix_count``.  Every
division is a checked integer division (``_exact``); no floats or fractions anywhere.
A closed-form sum computes one binomial for its first term and steps to each next
term by the exact term ratio (``_term_walk``), so every step is a checked division.
The last checked h table and b table are kept (``_KEPT``): a corner inside one is
answered by slicing it, with no DP and no check run again.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import accumulate, zip_longest
from operator import add, ne, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConsistencyError, agree
from .paths import _DISPLACEMENT, PathFamilySpec, _as_slope, _check_corner, _Record


def binomial(n: int, k: int) -> int:
    """C(n, k) with the summation convention: 0 unless 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _exact(num: int, den: int, what: str, *parts) -> int:
    """num / den, which must be an integer; a remainder raises ConsistencyError naming
    ``what.format(*parts)``, formatted only then, since every step of a walk or a solve divides."""
    quotient, rem = divmod(num, den)
    if rem:
        raise ConsistencyError(f"{what.format(*parts)} is not an integer: remainder {rem} mod {den}")
    return quotient


def _term_walk(first: int, last: int, ratio, what: str) -> int:
    """t_0 + ... + t_last: t_0 = first, t_(i+1) = t_i * num / den, (num, den) = ratio(i)."""
    total = term = first
    for i in range(last):
        num, den = ratio(i)
        term = _exact(term * num, den, "{} term {}", what, i + 1)
        total += term
    return total


def delannoy_count(n: int, m: int) -> int:
    """Number of unrestricted paths origin -> (n, m) over steps N, E, D.

    Computed by the two classical sums (grouping by the number d of diagonal
    steps, and the binomial transform); they must agree.
    """
    _check_corner(n, m)
    # terms multinomial(n+m-d; n-d, m-d, d) and C(n, j) C(m, j) 2^j, zero past min(n, m)
    last, what = min(n, m), f"delannoy_count({n}, {m})"
    by_diagonals = _term_walk(math.comb(n + m, n), last, lambda d: (
        (n - d) * (m - d), (n + m - d) * (d + 1)), f"{what} by diagonals")
    by_binomials = _term_walk(
        1, last, lambda j: (2 * (n - j) * (m - j), (j + 1) ** 2), f"{what} by binomials")
    return agree(what, {"by diagonals": by_diagonals, "by binomials": by_binomials})


class CountTable(_Record):
    """A rectangle of counts: columns[x][y] is corner (x, y); negative corners count 0."""

    __slots__ = ("kind", "columns")  # "h" or "b"; a tuple of columns, each a tuple of counts

    def __getitem__(self, key: tuple[int, int]) -> int:
        n, m = key
        if n < 0 or m < 0:
            return 0
        return self.columns[n][m]


def _matcher(patterns: frozenset[str]):
    """The Aho-Corasick automaton of ``patterns`` as a transition function.

    A state is the longest suffix of the word read that is a proper prefix of
    a pattern; a step that completes a pattern has no successor (None).  The
    table is filled shortest state first: a state's link, its longest proper
    suffix that is a state, is shorter, so the link's row is already known.
    """
    prefixes = {p[:i] for p in patterns for i in range(len(p))} | {""}
    link, go = {}, {(None, c): None for c in "END"}  # a state whose link is None holds a pattern
    for s in sorted(prefixes, key=len):
        link[s] = go[link[s[:-1]], s[-1]] if len(s) > 1 else ""
        for c in "END":
            word, via = s + c, go[link[s], c] if s else ""
            go[s, c] = None if word in patterns or via is None else word if word in prefixes else via
    return lambda state, c: go[state, c]


def _automaton(spec: PathFamilySpec) -> tuple[int, list[tuple[int, str, int]], list[int]]:
    """spec's transfer matrix: its state count, its moves (source, step, target)
    and its accepting states.  A state is a reachable triple: the matcher states
    of ``forbidden`` and ``forbidden_aug`` (after the augmented path's leading E)
    and the last step if ``last_step`` is set; under ``first_step`` the empty word
    has a state of its own, 0 with last step "", whose moves it filters.  An
    accepted state matches ``last_step`` and survives the augmented path's closing N."""
    fwd, aug = _matcher(spec.forbidden), _matcher(spec.forbidden_aug)
    start = ("", aug("", "E"), "" if spec.first_step else None)
    index = {start: 0} if start[1] is not None else {}
    moves, todo = [], list(index)
    while todo:
        state = todo.pop()
        for c in spec.first_step if state[2] == "" else "END":
            succ = (fwd(state[0], c), aug(state[1], c), c if spec.last_step else None)
            if succ[0] is None or succ[1] is None:
                continue
            if succ not in index:
                index[succ] = len(index)
                todo.append(succ)
            moves.append((index[state], c, index[succ]))
    return len(index), moves, [i for (_, s2, last), i in index.items()
                               if last == spec.last_step and aug(s2, "N") is not None]


def _accepted(col: list[list[int] | None], accepting: list[int], m: int) -> list[int]:
    """The sum over y = 0..m of a ``_state_columns`` column's live accepting lists."""
    live = [col[i] for i in accepting if col[i]]
    return list(reduce(partial(map, add), live)) if live else [0] * (m + 1)


def _reads_accepted(automaton) -> list[tuple[int, str]]:
    """The pairs (state t, letter E or D) whose moves into t come from exactly the accepting states."""
    froms: dict[tuple[int, str], set[int]] = {}
    for s, c, t in automaton[1]:
        if c != "N":
            froms.setdefault((t, c), set()).add(s)
    accepting = set(automaton[2])
    return [pair for pair, sources in froms.items() if sources == accepting]


def _state_columns(spec: PathFamilySpec, automaton) -> Iterator[tuple[list[list[int] | None], list[int] | None]]:
    """Columns x = 0..n of the DP over ``automaton``, spec's ``_automaton``: per state,
    the counts of its words at y = 0..m, or None if all are zero; and the column's
    ``_accepted`` sum if the DP reads it, else None.  Each move is one whole-column copy
    or add from the region's first cell: E and D shift column x - 1 up 0 and 1 cells, N
    this column up 1.  A pair of ``_reads_accepted`` takes one shift of column x - 1's
    accepting sum in place of a move from each accepting state.  Runs of N settle, so
    the only N cycles are self-loops, each a running sum; states run so other N moves
    go forward."""
    (n, m), (size, moves, accepting) = spec.target, automaton
    after = {s: t for s, c, t in moves if c == "N"}  # at most one N move out of a state
    into = [[] for _ in range(size)]  # the moves into each state, its N self-loop aside
    for s, c, t in moves:
        if (s, c) != (t, "N"):
            into[t].append((s, c))
    shared = _reads_accepted(automaton)
    for t, c in shared:  # source None, first: column x - 1's accepting sum
        into[t] = [(None, c)] + [(s, d) for s, d in into[t] if d != c]
    order = [t for t in range(size) if after.get(t, t) == t]  # no N move out but a self-loop
    for t in order:  # then, back along N moves, the states whose runs of N settle there
        order += [s for s, c in into[t] if c == "N"]
    if len(order) < size:
        raise ConsistencyError(f"N moves of {spec} cycle through more than one state")
    plan = [(t, into[t], after.get(t) == t) for t in reversed(order)]
    k, left, total = spec.region_k or 0, [None] * size, None  # column x - 1 and its accepting sum
    for x in range(n + 1):
        lo, col = min(k * x, m + 1), [None] * size  # lo: the column's first cell in the region
        for t, sources, loop in plan:
            acc = [1] + [0] * m if x == t == 0 else None
            for s, c in sources:  # the first live source is copied, the others added
                src, dy = total if s is None else (col if c == "N" else left)[s], _DISPLACEMENT[c][1]
                if src is not None:
                    a, part = max(lo, dy), src[max(lo, dy) - dy:m + 1 - dy]
                    acc = [0] * a + part if acc is None else [*acc[:a], *map(add, acc[a:], part)]
            if acc is not None and loop:
                acc[lo:] = accumulate(acc[lo:])
            col[t] = acc if acc is not None and any(acc) else None
        total = _accepted(col, accepting, m) if shared else None
        yield col, total
        left = col


def spec_counts(spec: PathFamilySpec) -> Iterator[list[int]]:
    """The family's size at every corner (x, y) <= spec.target, as if it were the
    target, by a transfer-matrix DP (Stanley, EC1 4.7): columns x = 0..n in turn,
    each a list over y = 0..m, the ``_accepted`` sum of ``_state_columns``.  Where the
    DP reads that sum itself (h's D move into its empty state comes from all three of
    its states, each accepting, so h's cell costs 4 adds, not 6), the DP's own sum is
    yielded, and the next column reads it: a caller must not change a yielded column."""
    automaton = _automaton(spec)
    for col, total in _state_columns(spec, automaton):
        yield _accepted(col, automaton[2], spec.target[1]) if total is None else total


def _dp_cost(spec: PathFamilySpec, *_: int) -> int:  # a route's charge takes prefix_count's arguments
    """The cells x states of the table ``spec_counts(spec)`` builds."""
    return (spec.target[0] + 1) * (spec.target[1] + 1) * _automaton(spec)[0]


def prefix_count(spec: PathFamilySpec, budget: int, left: int | None = None) -> int:
    """The number of prefixes ``paths._member_words`` examines for spec, the empty
    word included: every state of ``_state_columns`` at every cell, ``last_step``
    dropped, and patterns longer than "E" plus the longest word dropped, as they
    never occur.  It stops early and returns a number above ``left``, what earlier
    charges left of ``budget`` (all of it by default): before anything is built,
    the count's table, cells x a bound on the states, if that is past ``budget``;
    else the first running total, column by column, past ``left``."""
    n, m = spec.target
    fits = {p for p in spec.forbidden | spec.forbidden_aug if len(p) <= n + m + 1}
    spec = PathFamilySpec(spec.target, spec.forbidden & fits, spec.forbidden_aug & fits,
                          spec.region_k, spec.first_step)
    # a matcher has at most 1 + its patterns' total length states; first_step adds the root's own
    states = (1 + sum(map(len, spec.forbidden))) * (1 + sum(map(len, spec.forbidden_aug)))
    total, table = 0, (n + 1) * (m + 1) * (states + (spec.first_step is not None))
    if table > budget:
        return table
    for col, _ in _state_columns(spec, _automaton(spec)):
        total += sum(map(sum, filter(None, col)))
        if total > (budget if left is None else left):
            break
    return total


def _expansion(numerator: Mapping[tuple[int, int], int], n: int, m: int) -> Iterator[list[int]]:
    """Columns x = 0..n of numerator / (1 - x - y + x^2 y^2), each a list over y = 0..m.

    The denominator gives c(x,y) = num(x,y) + c(x-1,y) + c(x,y-1) - c(x-2,y-2)
    with c = 0 at negative indices, so column x is the running sum up the
    column of column x - 1 minus column x - 2 shifted up by two, with num's
    few cells in column x added first.  Keys outside the grid are ignored."""
    back2 = back1 = [0] * (m + 1)
    for x in range(n + 1):
        col = list(map(sub, back1, [0, 0] + back2))
        for (i, y), c in numerator.items():  # a numerator has a few cells
            if i == x and 0 <= y <= m:
                col[y] += c
        back2, back1 = back1, list(accumulate(col))
        yield back1


def _check_expansion(kind: str, columns: Iterable[Sequence[int]], numerator: Mapping,
                     nmax: int, mmax: int) -> Iterator[Sequence[int]]:
    """Pass on columns x = 0..nmax, each checked as it arrives against numerator /
    (1 - x - y + x^2 y^2): the first wrong, missing or extra cell up the column raises
    before the next column is asked for.  Cells compare by value, whatever the sequence."""
    for x, (got, want) in enumerate(zip_longest(columns, _expansion(numerator, nmax, mmax), fillvalue=())):
        if x > nmax or len(got) != len(want) or any(map(ne, got, want)):
            short = min(len(got), len(want))
            y = next((y for y, (a, b) in enumerate(zip(got, want)) if a != b), short)
            fault = ("recurrence failed at" if y < short else
                     "table lacks cell" if len(got) < len(want) else "table has an extra cell")
            raise ConsistencyError(f"{kind} {fault} ({x}, {y})")
        yield got


def table_columns(kind: str, nmax: int, mmax: int) -> Iterator[list[int]]:
    """Columns x = 0..nmax of the h or b table by the DP, each checked cell by
    cell against the table's generating function before it is passed on."""
    numerator = {"h": {(0, 0): 1, (1, 1): -1}, "b": {(0, 0): 1}}[kind]  # 1 - xy or 1
    return _check_expansion(kind, spec_counts(family_spec(kind, nmax, mmax)), numerator, nmax, mmax)


# kind -> the last table whose every cell passed its check, as ``_checked_table`` keeps it
_KEPT: dict[str, CountTable] = {}


def _checked_table(kind: str, nmax: int, mmax: int) -> CountTable:
    """The h or b table of ``table_columns``.  A corner inside the kept table of its kind is
    sliced from it, and is checked already: ``spec_counts`` and ``_expansion`` give each cell
    the same value whatever the target.  Any other corner is built at exactly its extent, and
    kept only once its last column passed.  Before that build, the kept table of its kind is
    dropped, and so is the other kind's if it has at most twice the new table's cells."""
    n, m = family_spec(kind, nmax, mmax).target  # refused, hit or miss, as a build refuses it
    kept = _KEPT.get(kind)
    if kept is not None and len(kept.columns) > n and len(kept.columns[0]) > m:
        if (len(kept.columns), len(kept.columns[0])) == (n + 1, m + 1):
            return kept
        return CountTable(kind, tuple(col[: m + 1] for col in kept.columns[: n + 1]))
    del kept  # no local holds a dropped table while the new one is built
    _KEPT.pop(kind, None)
    if any(len(t.columns) * len(t.columns[0]) <= 2 * (n + 1) * (m + 1) for t in _KEPT.values()):
        _KEPT.clear()  # the other kind's table
    table = _KEPT[kind] = CountTable(kind, tuple(map(tuple, table_columns(kind, n, m))))
    return table


def h_table(nmax: int, mmax: int) -> CountTable:
    """Counts of paths avoiding the factors NE and EN, for all corners in range, checked;
    a slice of the kept h table where that holds the corner (``_checked_table``)."""
    return _checked_table("h", nmax, mmax)


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
    """Counts of North-East words (no D step) avoiding the factor EENN, for all corners in
    range, checked; a slice of the kept b table where that holds the corner (``_checked_table``)."""
    return _checked_table("b", nmax, mmax)


def b_dp(n: int, m: int) -> int:
    """EENN-avoiding North-East word count by the DP compiled from the family's spec."""
    return b_table(n, m)[n, m]


def b_closed(n: int, m: int) -> int:
    """EENN-avoiding North-East word count as an alternating trinomial sum."""
    _check_corner(n, m)

    def ratio(i: int) -> tuple[int, int]:  # term i: (-1)^i multinomial(n+m-3i; n-2i, m-2i, i)
        a, b, c = n - 2 * i, m - 2 * i, n + m - 3 * i
        return -a * (a - 1) * b * (b - 1), c * (c - 1) * (c - 2) * (i + 1)

    return _term_walk(math.comb(n + m, n), min(n, m) // 2, ratio, f"b_closed({n}, {m})")


def a_count(n: int, m: int) -> int:
    """Paths whose augmented path avoids both D and EENN.

    Equals b(n, m) - b(n-1, m-1); also equals the peak/valley-free count,
    which is asserted on every call.
    """
    _check_corner(n, m)
    bt = b_table(n, m)
    return agree(f"a_count({n}, {m})", {"b table": bt[n, m] - bt[n - 1, m - 1], "h dp": h_dp(n, m)})


def schroeder_count(n: int, k: int = 1) -> int:
    """Paths origin -> (n, kn) staying in y >= kx (k-Schroeder paths of size n).

    Computed as schroeder_rect_count(n, kn, k): at that corner the weight
    (m - kn + 1) is 1, and the two cross-checked sums there are term for term
    the multinomial and binomial-transform forms of this count.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    k = _as_slope(k)
    return schroeder_rect_count(n, k * n, k)


def schroeder_rect_count(n: int, m: int, k: int = 1) -> int:
    """Paths origin -> (n, m) staying in y >= kx; 0 whenever m < kn.

    Two exact forms, both carrying the corner weight w = m - kn + 1: a sum
    over the number d of diagonal steps, whose term d (the paths with d
    diagonal steps) is an exact quotient, and for n >= 1 a binomial
    transform; both must give the same integer.
    """
    _check_corner(n, m)
    k = _as_slope(k)
    if m < k * n:
        return 0
    w, what = m - k * n + 1, f"schroeder_rect_count({n}, {m}, k={k})"
    # term d = w multinomial(m+n-d; m-d, n-d, d) / (m-d+1), from w C(m+n, n) / (m+1)
    first = _exact(w * math.comb(m + n, n), m + 1, f"{what} form 1 term 0")
    forms = {"form 1": _term_walk(first, n, lambda d: (
        (n - d) * (m - d + 1), (m + n - d) * (d + 1)), f"{what} form 1")}
    if n >= 1:
        # term i = C(m, i) C(n, i+1) 2^(i+1) for i < n
        transform = _term_walk(2 * n, n - 1, lambda i: (
            2 * (m - i) * (n - i - 1), (i + 1) * (i + 2)), f"{what} form 2")
        forms["form 2"] = _exact(w * transform, n, f"{what} form 2")
    return agree(what, forms)


def expand_bivariate(numerator: Mapping[tuple[int, int], int],
                     order: int) -> dict[tuple[int, int], int]:
    """Coefficients of numerator / (1 - x - y + x^2 y^2) on the full (order+1)^2 grid."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    columns = _expansion(numerator, order, order)
    return {(x, y): c for x, col in enumerate(columns) for y, c in enumerate(col)}


_FREE = lambda spec, *_: 0  # noqa: E731


# Every counted family: the fields of its PathFamilySpec beyond the corner,
# whether its corner lies in the region y >= kx, and its counting routes,
# default first; brute force over the spec counts every family too.  A route is
# a (charge, run) pair over the family's spec, and its charge takes prefix_count's
# arguments: a DP is charged each table's ``_dp_cost``, a closed form nothing.  A
# run looks its function up when it runs, so rebinding a module attribute (a test
# mutation, a tracer) reaches every caller.
FAMILIES: dict[str, tuple[dict, bool, dict]] = {
    "delannoy": ({}, False, {"closed": (_FREE, lambda s: delannoy_count(*s.target))}),
    "h": ({"forbidden": {"NE", "EN"}}, False,
          {"dp": (_dp_cost, lambda s: h_dp(*s.target)), "closed": (_FREE, lambda s: h_closed(*s.target))}),
    "b": ({"forbidden": {"D", "EENN"}}, False,
          {"dp": (_dp_cost, lambda s: b_dp(*s.target)), "closed": (_FREE, lambda s: b_closed(*s.target))}),
    # a = b(n, m) - b(n-1, m-1) by definition, which is h's closed form; a_count builds b's table and h's
    "a": ({"forbidden_aug": {"D", "EENN"}}, False,
          {"dp": (lambda s, *_: sum(_dp_cost(family_spec(t, *s.target)) for t in "bh"),
                  lambda s: a_count(*s.target)), "closed": (_FREE, lambda s: h_closed(*s.target))}),
    "schroeder": ({}, True, {"closed": (_FREE, lambda s: schroeder_count(s.target[0], s.region_k))}),
    "schroeder-rect": ({}, True, {"closed": (_FREE, lambda s: schroeder_rect_count(*s.target, s.region_k))}),
}


def family_spec(family: str, n: int, m: int, k: int | None = None, **fields) -> PathFamilySpec:
    """The spec of ``family`` at corner (n, m).

    A region family takes its slope from ``k``; ``fields`` add further spec
    fields, such as a region for the other families or a last step.
    """
    base, in_region, _ = FAMILIES[family]
    if in_region:  # the slope first: a bad one also makes schroeder's corner (n, kn) bad
        fields["region_k"] = _as_slope(k)
    return PathFamilySpec(target=(n, m), **base, **fields)
