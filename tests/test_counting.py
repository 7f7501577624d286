"""Counting formulas, automaton DPs, and their cross-checks."""

from __future__ import annotations

import itertools

import pytest

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
    expand_bivariate,
    h_closed,
    h_dp,
    h_table,
    multinomial,
    schroeder_count,
    schroeder_rect_count,
)

from conftest import naive_contains


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


def test_count_table_conventions():
    table = CountTable(kind="h", values={(0, 0): 1})
    assert table[-1, 0] == 0
    assert table[0, -3] == 0
    assert table[0, 0] == 1
    with pytest.raises(KeyError):
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
