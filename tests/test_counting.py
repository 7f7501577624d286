"""Counting formulas, automaton DPs, and their cross-checks."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delannoy.counting as counting_module
from delannoy import (
    CountTable,
    PathFamilySpec,
    a_count,
    b_closed,
    b_dp,
    b_table,
    binomial,
    count_bruteforce,
    delannoy_count,
    enumerate_paths,
    expand_bivariate,
    h_closed,
    h_dp,
    h_table,
    schroeder_count,
    schroeder_rect_count,
)
from delannoy.counting import _check_expansion, family_spec, spec_counts
from delannoy.errors import ConsistencyError

from conftest import naive_contains
from helpers import multinomial
from test_paths import patterns, steps


def test_binomial_summation_convention():
    assert binomial(5, 2) == 10
    assert binomial(-1, 0) == 0
    assert binomial(3, -1) == 0
    assert binomial(2, 5) == 0


def test_multinomial():
    assert multinomial(4, 2, 2, 0) == 6
    assert multinomial(3, 1, 1, 1) == 6
    assert multinomial(0, 0, 0, 0) == 1
    # negative lower index: term vanishes, even when top disagrees
    assert multinomial(1, -1, 1, 1) == 0
    with pytest.raises(ValueError):
        multinomial(4, 1, 1, 1)


def test_delannoy_values():
    assert delannoy_count(0, 0) == 1
    assert delannoy_count(1, 1) == 3
    assert delannoy_count(2, 2) == 13
    assert delannoy_count(3, 3) == 63
    assert all(delannoy_count(n, 0) == 1 for n in range(6))
    # degenerate corners sum only up to min(n, m): instant even when huge
    assert delannoy_count(10**5, 0) == 1
    assert delannoy_count(0, 10**5) == 1
    assert delannoy_count(10**5, 1) == 2 * 10**5 + 1
    with pytest.raises(ValueError):
        delannoy_count(-1, 2)


def test_delannoy_symmetry():
    for n in range(9):
        for m in range(9):
            assert delannoy_count(n, m) == delannoy_count(m, n)


def test_h_values():
    assert h_dp(0, 0) == 1
    assert h_dp(1, 1) == 1
    assert h_dp(2, 2) == 3
    assert [h_dp(1, m) for m in range(1, 8)] == list(range(1, 8))  # N^a D N^b words
    assert h_dp(0, 5) == 1


def test_h_dp_equals_h_closed():
    for n in range(13):
        for m in range(13):
            assert h_dp(n, m) == h_closed(n, m), (n, m)


def test_h_symmetry():
    table = h_table(10, 10)
    for n in range(11):
        for m in range(11):
            assert table[n, m] == table[m, n]


def test_h_recurrence_range():
    """The three-term recurrence holds from (2,2) on but fails at (1,1)."""
    table = h_table(12, 12)
    for n in range(2, 13):
        for m in range(2, 13):
            assert table[n, m] == table[n - 1, m] + table[n, m - 1] - table[n - 2, m - 2]
    lhs = table[1, 1]
    rhs = table[0, 1] + table[1, 0] - table[-1, -1]
    assert (lhs, rhs) == (1, 2)
    # checked against the bare recurrence (numerator 1), the table fails there first
    with pytest.raises(ConsistencyError, match=r"h recurrence failed at \(1, 1\)"):
        list(_check_expansion("h", table.columns, {(0, 0): 1}, 12, 12))


_NUMERATORS = {"h": {(0, 0): 1, (1, 1): -1}, "b": {(0, 0): 1}}


# (table kind, x, y): b's edges and inside, then both origins and h's far edges
@pytest.mark.parametrize("cell", [
    ("b", 0, 5), ("b", 5, 0), ("b", 5, 3), ("b", 0, 0),
    ("h", 6, 0), ("h", 0, 6), ("h", 1, 6), ("h", 0, 0),
])
def test_three_term_check_names_a_corrupted_cell(cell):
    """One wrong cell, on an edge (x = 0 or y = 0), at the origin or inside, is the first failure."""
    kind, x, y = cell
    columns = [list(column) for column in (h_table if kind == "h" else b_table)(8, 8).columns]
    columns[x][y] += 1  # a corrupted copy: the table's own columns are tuples, and may be kept
    with pytest.raises(ConsistencyError, match=rf"{kind} recurrence failed at \({x}, {y}\)$"):
        list(_check_expansion(kind, columns, _NUMERATORS[kind], 8, 8))


def test_tables_name_every_corrupted_cell(monkeypatch):
    """h_table and b_table check every cell of the DP: each one corrupted is named."""
    real = counting_module.spec_counts
    for build, kind in ((h_table, "h"), (b_table, "b")):
        for cell in itertools.product(range(7), repeat=2):
            def corrupted(spec, cell=cell):
                for x, column in enumerate(real(spec)):
                    if x == cell[0]:
                        column[cell[1]] -= 1  # one cell of a yielded column
                    yield column

            monkeypatch.setattr(counting_module, "spec_counts", corrupted)
            x, y = cell
            with pytest.raises(ConsistencyError, match=rf"{kind} recurrence failed at \({x}, {y}\)$"):
                build(6, 6)


def test_tables_stop_at_the_first_wrong_column(monkeypatch):
    """Each DP column is checked as it arrives: a wrong cell in column 2 raises
    before the DP is asked for column 3."""
    real = counting_module.spec_counts
    asked = []

    def corrupted(spec):
        for x, column in enumerate(real(spec)):
            if x == 2:
                column[3] += 1
            yield column
            asked.append(x + 1)  # the consumer came back for column x + 1

    monkeypatch.setattr(counting_module, "spec_counts", corrupted)
    with pytest.raises(ConsistencyError, match=r"h recurrence failed at \(2, 3\)$"):
        h_table(6, 6)
    assert asked == [1, 2]


# (kind, how spec_counts' columns are misshapen, the message): a column too short or too
# long, a column missing or extra; an extra column is refused even when it holds no cell
_SHAPES = {
    "short-column": ("h", lambda cols: [c[:-1] if x == 2 else c for x, c in enumerate(cols)],
                     r"h table lacks cell \(2, 6\)$"),
    "long-column": ("b", lambda cols: [c + [0] if x == 2 else c for x, c in enumerate(cols)],
                    r"b table has an extra cell \(2, 7\)$"),
    "missing-column": ("h", lambda cols: cols[:-1], r"h table lacks cell \(6, 0\)$"),
    "extra-column": ("b", lambda cols: [*cols, [1]], r"b table has an extra cell \(7, 0\)$"),
    "extra-empty-column": ("h", lambda cols: [*cols, []], r"h table has an extra cell \(7, 0\)$"),
}


@pytest.mark.parametrize("kind,misshape,message", _SHAPES.values(), ids=_SHAPES)
def test_tables_name_a_missing_or_extra_cell(monkeypatch, kind, misshape, message):
    """A DP column of the wrong length, or a wrong number of columns, raises ConsistencyError
    naming its first missing or extra cell, not a bare StopIteration or zip's ValueError."""
    real = counting_module.spec_counts
    monkeypatch.setattr(counting_module, "spec_counts", lambda spec: iter(misshape(list(real(spec)))))
    with pytest.raises(ConsistencyError, match=message):
        (h_table if kind == "h" else b_table)(6, 6)
    assert kind not in counting_module._KEPT


def _fresh_table(kind: str, n: int, m: int) -> CountTable:
    """The table built and checked at exactly (n, m), past every kept table."""
    return CountTable(kind, tuple(map(tuple, counting_module.table_columns(kind, n, m))))


def _assert_kept_tables_sound() -> None:
    """Each kept table is a fresh build of its extent, and two kept tables differ in size
    by more than a factor of two."""
    kept = counting_module._KEPT
    for kind, table in kept.items():
        assert table.kind == kind
        assert table == _fresh_table(kind, len(table.columns) - 1, len(table.columns[0]) - 1)
    if len(kept) == 2:
        small, large = sorted(len(t.columns) * len(t.columns[0]) for t in kept.values())
        assert large > 2 * small


_REQUESTS = st.lists(st.tuples(st.sampled_from(["h_table", "b_table", "h_dp", "b_dp", "a_count"]),
                               st.integers(0, 40), st.integers(0, 40)), min_size=1, max_size=6)


@settings(deadline=None)
@given(_REQUESTS)
@example([("h_table", 40, 5), ("h_table", 5, 40), ("h_dp", 40, 5)])  # each built at its own extent
@example([("h_table", 30, 30), ("b_dp", 3, 3), ("a_count", 30, 29)])  # a b corner inside the h table
def test_kept_tables_answer_as_fresh_builds(requests):
    """Any sequence of table and point requests, hits and misses mixed, answers each as a
    fresh build at its own corner would; returned tables hold tuples of ints."""
    counting_module._KEPT.clear()
    for name, n, m in requests:
        answer = getattr(counting_module, name)(n, m)
        kind = "b" if name[0] == "b" else "h"  # a(n, m) = h(n, m)
        fresh = _fresh_table(kind, n, m)
        if name.endswith("_table"):
            assert answer == fresh
            assert type(answer.columns) is tuple and len(answer.columns) == n + 1
            assert all(type(col) is tuple and len(col) == m + 1 for col in answer.columns)
            assert all(type(count) is int for col in answer.columns for count in col)
        else:
            assert answer == fresh[n, m]
        _assert_kept_tables_sound()


def test_a_corner_inside_the_kept_table_runs_no_dp(monkeypatch):
    """The exact extent returns the kept table itself; a smaller corner its slice."""
    corners = ((0, 0), (12, 0), (0, 9), (5, 9), (12, 8), (7, 3))
    fresh = {corner: _fresh_table("h", *corner) for corner in corners}
    table = h_table(12, 9)

    def dp(spec):
        raise AssertionError(f"the DP ran for {spec.target}")

    monkeypatch.setattr(counting_module, "spec_counts", dp)
    assert h_table(12, 9) is table
    for corner in corners:
        assert h_table(*corner) == fresh[corner]
        assert h_dp(*corner) == table[corner]
    with pytest.raises(AssertionError, match=r"\(3, 3\)"):  # b's corner inside h's table is b's miss
        b_table(3, 3)
    with pytest.raises(ValueError, match="nonnegative"):  # refused as a build refuses it
        h_table(-1, 3)


def test_a_raising_check_keeps_nothing_for_its_kind(monkeypatch):
    """A check that raises drops the kept table of its kind and keeps nothing in its place;
    the other kind's larger table stays."""
    b = b_table(30, 30)
    h_table(10, 10)  # 121 cells: b's 961 are more than twice as many
    real = counting_module.spec_counts

    def corrupted(spec):
        for x, column in enumerate(real(spec)):
            yield [c + (x == 11) for c in column]

    monkeypatch.setattr(counting_module, "spec_counts", corrupted)
    with pytest.raises(ConsistencyError, match=r"h recurrence failed at \(11, 0\)$"):
        h_table(12, 12)
    assert counting_module._KEPT == {"b": b}
    monkeypatch.undo()
    assert h_table(5, 5) == _fresh_table("h", 5, 5)


def test_two_tables_of_similar_size_are_never_kept_at_once():
    """A build drops the other kind's table if that has at most twice its cells."""
    kept = counting_module._KEPT
    h_table(20, 20)  # 441 cells
    b_table(20, 20)
    assert list(kept) == ["b"]
    h_table(10, 40)  # 451 cells drop b's 441
    assert list(kept) == ["h"]
    b_table(14, 14)  # 2 * 225 = 450 < 451: h stays
    assert sorted(kept) == ["b", "h"]
    b_table(14, 15)  # 2 * 240 = 480 >= 451: h goes
    assert list(kept) == ["b"]
    h_table(9, 9)  # 100 cells: b's 240 stay
    assert sorted(kept) == ["b", "h"]
    b_table(1, 24)  # outside b's (14, 15); 2 * 50 = 100: exactly twice, so h goes
    assert list(kept) == ["b"]
    _assert_kept_tables_sound()


@pytest.mark.parametrize("first", ["h", "b"])
def test_a_build_never_holds_the_table_it_drops(first):
    """The kept table a miss drops, of its own kind or the other's, is freed before the build
    starts: the build's peak stays near one table, not two."""
    tracemalloc.start()
    try:
        (h_table if first == "h" else b_table)(80, 79)
        one = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        h_table(80, 80)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert list(counting_module._KEPT) == ["h"]
    assert peak < 1.5 * one


def test_b_values():
    assert b_dp(0, 0) == 1
    assert b_dp(1, 1) == 2
    assert b_dp(2, 2) == 5  # all six NE-words except EENN
    assert b_dp(2, 1) == 3


def test_b_against_naive_word_filter():
    for n in range(6):
        for m in range(6):
            naive = sum(
                1
                for letters in itertools.product("NE", repeat=n + m)
                if "".join(letters).count("E") == n
                and not naive_contains("".join(letters), "EENN")
            )
            assert b_dp(n, m) == naive == b_closed(n, m)


def test_b_recurrence_everywhere_off_origin():
    table = b_table(12, 12)
    for n in range(13):
        for m in range(13):
            if (n, m) == (0, 0):
                continue
            assert table[n, m] == table[n - 1, m] + table[n, m - 1] - table[n - 2, m - 2]


def test_b_symmetry():
    table = b_table(10, 10)
    for n in range(11):
        for m in range(11):
            assert table[n, m] == table[m, n]


def test_a_count():
    assert a_count(0, 0) == 1
    assert a_count(1, 1) == 1
    assert a_count(2, 2) == 3
    bt = b_table(9, 9)
    for n in range(10):
        for m in range(10):
            assert a_count(n, m) == bt[n, m] - bt[n - 1, m - 1] == h_dp(n, m)


def test_a_count_matches_bruteforce():
    for n in range(7):
        for m in range(7):
            spec = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            assert a_count(n, m) == count_bruteforce(spec)


def test_schroeder_values():
    assert schroeder_count(0, 1) == 1
    assert schroeder_count(1, 1) == 2
    assert schroeder_count(2, 1) == 6
    assert schroeder_count(3, 1) == 22  # the large Schroeder numbers
    assert schroeder_count(2, 2) == 10
    with pytest.raises(ValueError):
        schroeder_count(-1, 1)
    with pytest.raises(ValueError):
        schroeder_count(2, 0)


def test_schroeder_rect_values():
    assert schroeder_rect_count(1, 2, 1) == 4  # NEN, NNE, ND, DN
    assert schroeder_rect_count(0, 7, 3) == 1  # N^7 only
    assert schroeder_rect_count(2, 1, 1) == 0  # below the corner line
    assert schroeder_rect_count(3, 5, 2) == 0


def test_schroeder_rect_corner_specializes_to_schroeder():
    for k in (1, 2, 3):
        for n in range(7):
            assert schroeder_rect_count(n, k * n, k) == schroeder_count(n, k)


def test_schroeder_rect_matches_bruteforce_small():
    for k in (1, 2, 3):
        for n in range(5):
            for m in range(9):
                spec = PathFamilySpec(target=(n, m), region_k=k)
                assert schroeder_rect_count(n, m, k) == count_bruteforce(spec), (n, m, k)


def test_schroeder_rect_terms_count_paths_by_diagonal_steps():
    # the d-th term of the multinomial form, each an exact quotient
    for k in (1, 2, 3):
        for n in range(5):
            for m in range(k * n, k * n + 5):
                by_d = [0] * (n + 1)
                for path in enumerate_paths(PathFamilySpec(target=(n, m), region_k=k)):
                    by_d[path.word.count("D")] += 1
                for d in range(n + 1):
                    term = (m - k * n + 1) * multinomial(m + n - d, m - d, n - d, d)
                    assert term == by_d[d] * (m - d + 1), (n, m, k, d)


def _perturb_step(monkeypatch, label, shift):
    """Add shift to the term that the checked division labelled ``label`` returns."""
    exact = counting_module._exact

    def perturbed(num, den, what, *parts):
        return exact(num, den, what, *parts) + (shift if what.format(*parts) == label else 0)

    monkeypatch.setattr(counting_module, "_exact", perturbed)


@pytest.mark.parametrize(
    "shift,error", [(1, "form 1 term 2 is not an integer"), (10, "39 != 22")], ids=["1", "10"]
)
def test_schroeder_rect_perturbed_term_raises(monkeypatch, shift, error):
    # form 1 at (3, 3) walks 5, 10, 6, 1 with the step 10 -> 10 * 6 / 10: 11 leaves a
    # remainder there; 20 divides exactly to the end (20, 12, 2), but form 1 sums to 39
    assert schroeder_rect_count(3, 3, 1) == 22
    _perturb_step(monkeypatch, "schroeder_rect_count(3, 3, k=1) form 1 term 1", shift)
    with pytest.raises(ConsistencyError, match=error):
        schroeder_rect_count(3, 3, 1)


@pytest.mark.parametrize(
    "walk,shift,error",
    [
        ("by diagonals", 1, "by diagonals term 2 is not an integer"),
        ("by diagonals", 30, "106 != 63"),
        ("by binomials", 1, "by binomials term 3 is not an integer"),
    ],
    ids=["diagonals-remainder", "diagonals-mismatch", "binomials-remainder"],
)
def test_delannoy_perturbed_step_raises(monkeypatch, walk, shift, error):
    # by diagonals at (3, 3) walks 20, 30, 12, 1; 60 divides exactly to the end (24, 2);
    # by binomials walks 1, 18, 36, 8, and 19 goes through 38 to 38 * 2 / 9
    assert delannoy_count(3, 3) == 63
    _perturb_step(monkeypatch, f"delannoy_count(3, 3) {walk} term 1", shift)
    with pytest.raises(ConsistencyError, match=error):
        delannoy_count(3, 3)


# Oracles for the term walks: every term from fresh binomials, as the sums are written.
def _delannoy_by_terms(n, m):
    return sum(
        math.comb(n + m - d, d) * math.comb(n + m - 2 * d, n - d) for d in range(min(n, m) + 1)
    )


def _b_by_terms(n, m):
    return sum(
        (-1) ** i * math.comb(n + m - 3 * i, i) * math.comb(n + m - 4 * i, n - 2 * i)
        for i in range(min(n, m) // 2 + 1)
    )


def _schroeder_rect_by_terms(n, m, k):
    if m < k * n:
        return 0
    total = 0
    for d in range(n + 1):
        term, rem = divmod(
            (m - k * n + 1) * math.comb(m + n - d, d) * math.comb(m + n - 2 * d, n - d), m - d + 1
        )
        assert rem == 0, (n, m, k, d)
        total += term
    return total


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 60), st.integers(0, 60), st.integers(1, 4))
@example(0, 0, 1)
@example(7, 0, 1)
@example(0, 9, 2)
@example(10, 29, 3)  # m < kn
@example(10, 30, 3)  # m = kn
@example(15, 60, 4)
def test_term_walks_match_fresh_binomial_sums(n, m, k):
    assert delannoy_count(n, m) == _delannoy_by_terms(n, m)
    assert b_closed(n, m) == _b_by_terms(n, m)
    assert schroeder_rect_count(n, m, k) == _schroeder_rect_by_terms(n, m, k)


def test_term_walks_match_fresh_binomial_sums_at_large_corners():
    assert delannoy_count(1490, 1490) == _delannoy_by_terms(1490, 1490)
    for k in (1, 2, 3):
        assert schroeder_count(1000, k) == _schroeder_rect_by_terms(1000, 1000 * k, k)


def test_count_table_conventions():
    table = CountTable("h", [[1]])
    assert table[-1, 0] == 0
    assert table[0, -3] == 0
    assert table[0, 0] == 1
    with pytest.raises(IndexError):
        table[1, 1]


def test_expand_bivariate_unit_numerator_gives_b():
    coeffs = expand_bivariate({(0, 0): 1}, 12)
    table = b_table(12, 12)
    for n in range(13):
        for m in range(13):
            assert coeffs[n, m] == table[n, m]


def test_expand_bivariate_one_minus_xy_gives_h():
    coeffs = expand_bivariate({(0, 0): 1, (1, 1): -1}, 12)
    table = h_table(12, 12)
    for n in range(13):
        for m in range(13):
            assert coeffs[n, m] == table[n, m]


def test_expand_bivariate_edges():
    assert expand_bivariate({(0, 0): 5}, 0) == {(0, 0): 5}
    with pytest.raises(ValueError):
        expand_bivariate({(0, 0): 1}, -1)


def _naive_expansion(numerator, order):
    """numerator / (1 - x - y + x^2 y^2), one cell at a time from the recurrence."""
    c = {}
    for x in range(order + 1):
        for y in range(order + 1):
            c[x, y] = (numerator.get((x, y), 0) + c.get((x - 1, y), 0) + c.get((x, y - 1), 0)
                       - c.get((x - 2, y - 2), 0))
    return c


_OFF_GRID = {(-1, 0): 3, (0, -1): 5, (-2, -2): 7, (2, 0): -2, (0, 2): 4, (3, 3): 9}


@settings(deadline=None, max_examples=150)
@given(
    st.dictionaries(
        st.tuples(st.integers(-3, 7), st.integers(-3, 7)), st.integers(-9, 9), max_size=8
    ),
    st.integers(0, 5),
)
# keys left of, below and beyond the grid at orders 0, 1 and 2
@example({(0, 0): 1, **_OFF_GRID}, 0)
@example({(1, 0): 2, (1, 1): -1, **_OFF_GRID}, 1)
@example({(0, 1): 1, (2, 2): 6, **_OFF_GRID}, 2)
@example({(-1, 1): 1, (1, -1): 1, (5, 0): 1}, 2)
def test_expand_bivariate_matches_the_naive_recurrence(numerator, order):
    """Sparse numerators, keys outside the grid (negative, past n, past m) ignored."""
    assert expand_bivariate(numerator, order) == _naive_expansion(numerator, order)


@settings(deadline=None)
@given(
    st.integers(0, 4),
    st.integers(0, 5),
    st.frozensets(patterns, max_size=3),
    st.frozensets(patterns, max_size=2),
    st.sampled_from([None, 1, 2, 3]),
    steps,
    steps,
)
# an augmented pattern E or N kills every path, the empty one included
@example(2, 2, frozenset(), frozenset({"E"}), None, None, None)
@example(2, 2, frozenset(), frozenset({"N", "DD"}), None, None, None)
# a first or last step filter excludes the empty path at (0, 0)
@example(0, 0, frozenset(), frozenset(), None, "E", None)
@example(0, 0, frozenset(), frozenset(), None, None, "N")
# column 3 lies wholly below y >= 2x: its first region cell 6 is past the top row
@example(3, 4, frozenset(), frozenset(), 2, None, None)
# a one-row corner takes no N or D move; a one-column corner no E or D move
@example(4, 0, frozenset({"EE"}), frozenset(), None, None, None)
@example(0, 5, frozenset({"NNN"}), frozenset(), None, None, None)
# step filters inside a region
@example(3, 5, frozenset(), frozenset({"EN"}), 1, "D", None)
@example(3, 5, frozenset({"NE", "EN"}), frozenset(), 1, None, "E")
@example(2, 5, frozenset({"NE", "EN"}), frozenset(), 2, None, "D")
# an N chain "" -> N -> NN -> NNN into a state with an N self-loop
@example(3, 6, frozenset({"NNNE"}), frozenset(), None, None, None)
# the empty matcher state takes N moves from E, from EE and from itself
@example(4, 5, frozenset({"EEE"}), frozenset(), None, None, None)
# first and last step N inside a region
@example(3, 6, frozenset(), frozenset(), 1, "N", "N")
@example(2, 6, frozenset({"NNN"}), frozenset(), 2, "N", "N")
# a dead start state: every column is zero, in a region and under step filters too
@example(3, 4, frozenset(), frozenset({"E"}), 1, "N", "N")
# h inside y >= 2x, whose D move into its empty state reads column x - 1's accepting sum;
# that move comes from a state that does not accept under a last step D or an augmented DN
@example(3, 6, frozenset({"NE", "EN"}), frozenset(), 2, None, None)
@example(4, 4, frozenset({"NE", "EN"}), frozenset(), None, None, "D")
@example(4, 4, frozenset({"NE", "EN"}), frozenset({"DN"}), None, None, None)
def test_spec_counts_match_bruteforce(n, m, forbidden, forbidden_aug, region_k, first, last):
    """Random specs: the compiled DP's count at every corner equals the walk's."""
    spec = PathFamilySpec(
        target=(n, m),
        forbidden=forbidden,
        forbidden_aug=forbidden_aug,
        region_k=region_k,
        first_step=first,
        last_step=last,
    )
    columns = list(spec_counts(spec))
    assert len(columns) == n + 1 and all(len(column) == m + 1 for column in columns)
    for x, column in enumerate(columns):
        for y, value in enumerate(column):
            corner = PathFamilySpec((x, y), forbidden, forbidden_aug, region_k, first, last)
            assert value == count_bruteforce(corner), (x, y)


def test_only_a_letter_from_exactly_the_accepting_states_reads_their_sum():
    """h's D move into its empty state, 0, comes from all three of its states, each
    accepting: that pair alone reads column x - 1's accepting sum.  b has no such
    letter, nor has h under a last-step filter or an augmented pattern ending in N,
    where a state the move comes from does not accept."""
    def pairs(family, **fields):
        return counting_module._reads_accepted(counting_module._automaton(family_spec(family, 3, 3, **fields)))

    assert pairs("h") == [(0, "D")]
    assert pairs("b") == pairs("h", last_step="D") == pairs("h", forbidden_aug={"DN"}) == []


@settings(deadline=None, max_examples=300)
@given(
    st.frozensets(st.text(alphabet="NED", min_size=1, max_size=6), max_size=4),
    st.frozensets(patterns, max_size=3),
    steps,
    steps,
)
@example(frozenset({"NNNE"}), frozenset(), None, None)
@example(frozenset({"NNNNNN", "ENNN"}), frozenset({"NNE"}), "N", "N")
def test_compiled_n_moves_cycle_only_through_self_loops(forbidden, forbidden_aug, first, last):
    """Each compiled state has at most one N move out, and following N moves
    from any state reaches a state with none or an N self-loop."""
    spec = PathFamilySpec(
        target=(0, 0), forbidden=forbidden, forbidden_aug=forbidden_aug,
        first_step=first, last_step=last,
    )
    size, moves, _ = counting_module._automaton(spec)
    after = {}
    for s, c, t in moves:
        if c == "N":
            assert s not in after, f"state {s} has two N moves"
            after[s] = t
    for start in range(size):
        seen, s = {start}, start
        while after.get(s, s) != s:
            s = after[s]
            assert s not in seen, f"an N cycle through {sorted(seen)}"
            seen.add(s)


def test_spec_counts_refuses_a_longer_n_cycle(monkeypatch):
    """An N cycle through two states cannot be a running sum; the DP raises
    instead of counting."""
    moves = [(0, "N", 1), (1, "N", 0), (0, "E", 0)]
    monkeypatch.setattr(counting_module, "_automaton", lambda spec: (2, moves, [0]))
    with pytest.raises(ConsistencyError, match="cycle"):
        list(spec_counts(PathFamilySpec(target=(2, 2))))


@settings(max_examples=300)
@given(st.frozensets(st.text(alphabet="NED", min_size=1, max_size=6), max_size=4),
       st.text(alphabet="NED", max_size=30))
@example(frozenset({"N", "ENE"}), "EN")  # a proper prefix of ENE holds the pattern N
@example(frozenset({"NNNE"}), "NNNNNE")
def test_matcher_state_is_the_longest_suffix_that_starts_a_pattern(patterns, word):
    """After each step the state is the longest suffix of the word read that is
    a proper prefix of a pattern, and None once a pattern has occurred."""
    step, state = counting_module._matcher(patterns), ""
    starts = {p[:i] for p in patterns for i in range(len(p))}
    for i in range(1, len(word) + 1):
        state = step(state, word[i - 1])
        read = word[:i]
        if any(p in read for p in patterns):
            assert state is None
            return
        assert state == next(read[j:] for j in range(i + 1) if read[j:] in starts | {""})


def _walk_prefixes(spec):
    """The walker's prefixes, counted level by level over words: a word is kept
    when it ends in the target's box, every vertex lies in the region, it has no
    forbidden factor, "E" + word has no forbidden augmented factor, and its first
    step matches.  Each condition holds for a word's prefixes too, so only kept
    words are extended."""
    n, m = spec.target
    k = spec.region_k

    def kept(word):
        x = y = 0
        for c in word:
            x, y = x + (c != "N"), y + (c != "E")
            if x > n or y > m or (k is not None and y < k * x):
                return False
        return (
            not any(p in word for p in spec.forbidden)
            and not any(p in "E" + word for p in spec.forbidden_aug)
            and (not word or spec.first_step in (None, word[0]))
        )

    total, level = 0, [""]
    while level:
        level = [word for word in level if kept(word)]
        total += len(level)
        level = [word + c for word in level for c in "NED"]
    return total


@settings(deadline=None, max_examples=250)
@given(
    st.integers(0, 5),
    st.integers(0, 5),
    st.frozensets(patterns, max_size=3),
    st.frozensets(patterns, max_size=3),
    st.sampled_from([None, 1, 2, 3]),
    steps,
    steps,
)
@example(2, 2, frozenset(), frozenset({"E"}), None, None, None)  # no prefix, not even the root
@example(3, 3, frozenset(), frozenset({"E", "DD"}), 1, "N", None)
@example(3, 2, frozenset(), frozenset(), 1, None, None)  # the target lies below the region
@example(5, 4, frozenset({"NN"}), frozenset({"EN"}), 2, "D", "E")
@example(5, 5, frozenset({"NE", "EN"}), frozenset(), None, None, "N")
def test_prefix_count_is_the_walkers_prefix_count(n, m, forbidden, forbidden_aug, region_k, first, last):
    """The budget charge of a walk is the number of prefixes it pushes, and a
    charge one below it is reported as past the budget."""
    spec = PathFamilySpec(
        target=(n, m), forbidden=forbidden, forbidden_aug=forbidden_aug,
        region_k=region_k, first_step=first, last_step=last,
    )
    want = _walk_prefixes(spec)
    assert counting_module.prefix_count(spec, 10**9) == want
    assert counting_module.prefix_count(spec, want - 1) > want - 1


def test_prefix_count_refuses_a_large_table_before_building_it(monkeypatch):
    """The count's table is cells x a bound on the states; a table past the
    budget is refused before the automaton is built."""
    monkeypatch.setattr(counting_module, "_automaton", lambda spec: pytest.fail("the automaton was built"))
    assert counting_module.prefix_count(PathFamilySpec(target=(20000, 20000)), 10**7) == 20001**2
    # 10^7 cells x (1 + 20) states, though the walk dies after 20 N steps up each column
    spec = PathFamilySpec(target=(1, 4999999), forbidden={"N" * 20})
    assert counting_module.prefix_count(spec, 10**7) == 10**7 * 21
    # one pattern that fits bounds the states: 5001 cells x 5001 states
    spec = PathFamilySpec(target=(0, 5000), forbidden={"N" * 5000})
    assert counting_module.prefix_count(spec, 10**7) == 5001**2


def test_prefix_count_drops_patterns_longer_than_any_word():
    """A pattern longer than "E" plus the longest word never occurs: it adds no
    state to the count.  Kept, one of 100000 letters would make a table of
    4 x 100001 cells x states at (1, 1), past a budget of 10."""
    for spec in (
        PathFamilySpec(target=(1, 1), forbidden={"N" * 100_000}),
        PathFamilySpec(target=(1, 1), forbidden_aug={"E" * 100_000, "ENNN"}),
    ):
        assert counting_module.prefix_count(spec, 10) == _walk_prefixes(spec) == 6
    # ENN, "E" plus the word NN, is as long as a pattern that occurs gets: it is
    # kept, and its table is 3 cells x 4 states
    spec = PathFamilySpec(target=(0, 2), forbidden_aug={"ENN"})
    assert counting_module.prefix_count(spec, 12) == _walk_prefixes(spec) == 2
    assert counting_module.prefix_count(spec, 11) == 12


def test_long_patterns_compile_in_time_linear_in_their_prefixes():
    """Each compiled state is found from its failure link, not by a scan of its
    suffixes: the 3000 states of one long pattern compile at once."""
    spec = PathFamilySpec(target=(0, 3000), forbidden={"N" * 3000})
    assert counting_module._automaton(spec)[0] == 3000
    # the walk pushes the empty word and N^1..N^2999; N^3000 completes the pattern
    assert counting_module.prefix_count(spec, 10**7) == 3000


def test_prefix_count_stops_at_the_first_column_past_the_budget(monkeypatch):
    columns = []
    real = counting_module._state_columns
    monkeypatch.setattr(counting_module, "_state_columns",
                        lambda *a: (columns.append(col) or col for col in real(*a)))
    # columns 0 and 1 of the walk to (1450, 1450) hold 1451 and 1451^2 prefixes
    assert counting_module.prefix_count(PathFamilySpec(target=(1450, 1450)), 10**7) > 10**7
    assert len(columns) == 3
