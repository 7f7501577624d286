"""Inversion sequences, symmetric-peak-free Catalan paths, and the two
equinumerosity harnesses."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from delannoy import (
    PathFamilySpec,
    assemble_triple,
    check_conjecture1,
    check_conjecture2,
    count_bruteforce,
    count_catalan_no_symmetric_peak,
    count_inversion_102,
    enumerate_paths,
)
from delannoy.conjectures import inversion_102_counts, no_symmetric_peak_counts
from helpers import InversionSequence, inversion_sequences


def test_inversion_sequence_validation():
    InversionSequence((0, 1, 0, 3))
    with pytest.raises(ValueError):
        InversionSequence((1,))  # e_1 must be 0
    with pytest.raises(ValueError):
        InversionSequence((0, 2))  # e_2 <= 1
    with pytest.raises(ValueError):
        InversionSequence((0, -1))
    assert InversionSequence((0, 1.0)).entries == (0, 1)  # an integral float is its integer
    with pytest.raises(ValueError, match="not an integer"):
        InversionSequence((0, 1.7))  # not truncated to (0, 1)


def test_pattern_102_detection():
    assert InversionSequence((0, 1, 0, 2)).has_pattern_102()
    assert not InversionSequence((0, 0, 1, 2)).has_pattern_102()
    assert not InversionSequence((0, 1, 1, 1)).has_pattern_102()
    # equalities do not count: the letters must be strictly ordered low/mid/high
    assert not InversionSequence((0, 1, 0, 1)).has_pattern_102()
    assert InversionSequence((0, 0, 2, 1, 3)).has_pattern_102()


def test_inversion_sequences_generator():
    assert list(inversion_sequences(0)) == [()]
    assert list(inversion_sequences(2)) == [(0, 0), (0, 1)]
    assert sum(1 for _ in inversion_sequences(5)) == 120  # n!
    with pytest.raises(ValueError):
        inversion_sequences(-1)


@pytest.mark.parametrize("n", range(1, 8))
def test_count_inversion_102_matches_naive_filter(n):
    naive = sum(
        1 for e in inversion_sequences(n) if not InversionSequence(e).has_pattern_102()
    )
    assert count_inversion_102(n) == naive


def test_count_inversion_102_values():
    assert [count_inversion_102(n) for n in range(1, 8)] == [1, 2, 6, 22, 89, 381, 1694]
    with pytest.raises(ValueError):
        count_inversion_102(0)


def test_inversion_counts_match_fd2_coefficients():
    triple = assemble_triple(2, 8)
    for n in range(1, 9):
        assert count_inversion_102(n) == triple.fd[n]


def test_catalan_no_symmetric_peak_values():
    assert count_catalan_no_symmetric_peak(1) == 0  # NE is a symmetric peak
    assert count_catalan_no_symmetric_peak(2) == 0
    assert count_catalan_no_symmetric_peak(3) == 1  # NNENEE only
    assert count_catalan_no_symmetric_peak(4) == 3
    with pytest.raises(ValueError):
        count_catalan_no_symmetric_peak(0)


def test_catalan_no_symmetric_peak_matches_fe1_shifted():
    # sizes shift by one against the E-ending series for slope 1
    triple = assemble_triple(1, 9)
    for size in range(1, 11):
        assert count_catalan_no_symmetric_peak(size) == triple.fe[size - 1]


def _partner_spec(size):
    return PathFamilySpec(
        target=(size, size),
        forbidden={"D"},
        region_k=1,
        forbidden_aug={"E" + "N" * j + "E" * j + "N" for j in range(1, size + 1)},
    )


def _has_symmetric_peak(word):
    """A maximal N-run followed by a maximal E-run of the same length."""
    runs = [(c, len(list(group))) for c, group in itertools.groupby(word)]
    return any(a[0] == "N" and b == ("E", a[1]) for a, b in zip(runs, runs[1:]))


def test_partner_spec_is_the_run_length_scan():
    """The augmented-pattern spec keeps exactly the Catalan words that the
    run-length scan keeps, in the same order, and the partner counts them."""
    table = no_symmetric_peak_counts(10)
    for size in range(1, 11):
        catalan = PathFamilySpec(target=(size, size), forbidden={"D"}, region_k=1)
        scanned = [p.word for p in enumerate_paths(catalan) if not _has_symmetric_peak(p.word)]
        assert [p.word for p in enumerate_paths(_partner_spec(size))] == scanned, size
        assert count_catalan_no_symmetric_peak(size) == len(scanned), size
        assert table[size] == len(scanned), size


def test_inversion_table_matches_the_search():
    """The polynomial table against the depth-first search, every length <= 10."""
    assert inversion_102_counts(10) == [1] + [count_inversion_102(n) for n in range(1, 11)]
    for n_max in range(10):  # each table agrees with the longest one on its range
        assert inversion_102_counts(n_max) == inversion_102_counts(10)[: n_max + 1]
    with pytest.raises(ValueError):
        inversion_102_counts(-1)


def test_run_table_matches_the_spec_partner():
    """The run DP against the augmented-pattern spec, every size <= 12."""
    table = no_symmetric_peak_counts(12)
    assert table[0] == 1  # the empty path
    assert table[1:] == [count_catalan_no_symmetric_peak(n) for n in range(1, 13)]
    assert no_symmetric_peak_counts(5) == table[:6]
    with pytest.raises(ValueError):
        no_symmetric_peak_counts(-1)


def test_conjecture1_report():
    report = check_conjecture1(7)
    assert report.verdict
    assert bool(report)
    assert report.rows[0] == (1, 0, 0)
    assert report.rows[1] == (2, 1, 1)
    assert report.rows[5] == (6, 62, 62)
    with pytest.raises(ValueError):
        check_conjecture1(0)


def test_conjecture2_report():
    report = check_conjecture2(7)
    assert report.verdict
    assert report.rows[3] == (4, 22, 22)
    assert report.rows[6] == (7, 1694, 1694)
    with pytest.raises(ValueError):
        check_conjecture2(0)


def test_conjecture_path_sides_match_the_series():
    """Both columns (the path side read off one DP table, the partner off its
    own table) against the series routes, well past the search's reach."""
    for check, k, which, n_max in ((check_conjecture2, 2, "fd", 30), (check_conjecture1, 1, "fe", 200)):
        report = check(n_max)
        assert report.verdict
        series = getattr(assemble_triple(k, n_max), which)
        assert report.rows == tuple((n, series[n], series[n]) for n in range(1, n_max + 1))


def test_conjecture_path_side_streams_its_columns():
    """The path side reads cell (n, kn) of each DP column as it passes: it never
    holds the whole table (1.6 MB under tracemalloc at n_max = 120 when it did)."""
    tracemalloc.start()
    try:
        report = check_conjecture1(120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict and len(report.rows) == 120
    assert peak < 500_000


def test_corner_families_coincide():
    """On the corner (n, kn) inside y >= kx, the EENN-avoiding North-East
    paths are exactly those whose augmented path also avoids EENN: region
    paths cannot start with ENN, end with EEN, or equal EN."""
    for k in (1, 2, 3):
        for n in range(7):
            plain = PathFamilySpec(
                target=(n, k * n), forbidden=frozenset({"D", "EENN"}), region_k=k
            )
            di_aug = PathFamilySpec(
                target=(n, k * n), forbidden_aug=frozenset({"D", "EENN"}), region_k=k
            )
            assert count_bruteforce(plain) == count_bruteforce(di_aug), (k, n)


def test_last_step_split_at_the_corner():
    for k in (1, 2, 3):
        for n in range(6):
            base = dict(
                target=(n, k * n), forbidden=frozenset({"NE", "EN"}), region_k=k
            )
            total = count_bruteforce(PathFamilySpec(**base))
            by_d = count_bruteforce(PathFamilySpec(**base, last_step="D"))
            by_e = count_bruteforce(PathFamilySpec(**base, last_step="E"))
            by_n = count_bruteforce(PathFamilySpec(**base, last_step="N"))
            assert by_n == 0  # a region path cannot end with N
            assert total == by_d + by_e + (1 if n == 0 else 0)
