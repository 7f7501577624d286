"""Acceptance gate: ten criteria, one test (and one summary line) each.

Every comparison here is exact; the only tolerances are wall-clock limits on
the exhaustive checks.  Criteria that pit a formula against enumeration keep
the two routes visibly separate in the test body.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from delannoy import (
    PathFamilySpec,
    a_count,
    assemble_triple,
    b_closed,
    b_table,
    check_conjecture1,
    check_conjecture2,
    closed_k1,
    closed_k2,
    count_bruteforce,
    count_inversion_102,
    delannoy_count,
    delta_map,
    enumerate_paths,
    expand_bivariate,
    h_closed,
    h_table,
    pi_map,
    radical_check_k1,
    satisfies,
    schroeder_count,
    schroeder_rect_count,
    tau_inverse,
    tau_map,
    verify_bijection,
)

from helpers import multinomial


def test_criterion_01_bruteforce_matches_every_formula():
    """Brute-force counts equal the closed/DP formulas for all n, m <= 7."""
    t0 = time.perf_counter()
    for n in range(8):
        for m in range(8):
            plain = count_bruteforce(PathFamilySpec(target=(n, m)))
            assert plain == delannoy_count(n, m), (n, m)
            peakless = count_bruteforce(
                PathFamilySpec(target=(n, m), forbidden=frozenset({"NE", "EN"}))
            )
            assert peakless == h_closed(n, m), (n, m)
            eenn_free = count_bruteforce(
                PathFamilySpec(target=(n, m), forbidden=frozenset({"D", "EENN"}))
            )
            assert eenn_free == b_closed(n, m), (n, m)
            aug_clean = count_bruteforce(
                PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            )
            assert aug_clean == a_count(n, m), (n, m)
    assert time.perf_counter() - t0 < 30


def test_criterion_02_recurrences_on_their_exact_ranges():
    """The three-term recurrence: h from (2,2) on, failing at (1,1) with
    sides 1 vs 2; b everywhere off the origin under the zero convention."""
    h = h_table(12, 12)
    for n in range(2, 13):
        for m in range(2, 13):
            assert h[n, m] == h[n - 1, m] + h[n, m - 1] - h[n - 2, m - 2], (n, m)
    left = h[1, 1]
    right = h[0, 1] + h[1, 0] - h[-1, -1]
    assert left == 1 and right == 2 and left != right
    b = b_table(12, 12)
    assert b[0, 0] == 1
    for n in range(13):
        for m in range(13):
            if (n, m) == (0, 0):
                continue
            assert b[n, m] == b[n - 1, m] + b[n, m - 1] - b[n - 2, m - 2], (n, m)


def test_criterion_03_bijections_verified_exhaustively():
    """pi/delta round-trip and land in the claimed codomains for n, m <= 6;
    tau and tau_inverse are mutually inverse there (including EN -> empty);
    region-restricted variants hold for k <= 3, n <= 5.  Under 60 s."""
    t0 = time.perf_counter()
    for n in range(7):
        for m in range(7):
            for p in enumerate_paths(PathFamilySpec(target=(n, m), forbidden=frozenset({"D"}))):
                assert delta_map(pi_map(p)) == p
            for q in enumerate_paths(PathFamilySpec(target=(n, m), forbidden=frozenset({"NE"}))):
                assert pi_map(delta_map(q)) == q
            domain = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            codomain = PathFamilySpec(target=(n, m), forbidden=frozenset({"NE", "EN"}))
            assert verify_bijection(domain, pi_map, codomain).ok, (n, m)
            assert verify_bijection(codomain, delta_map, domain).ok, (n, m)
    checked_degenerate = False
    for n in range(1, 7):
        for m in range(1, 7):
            domain = PathFamilySpec(target=(n, m), forbidden=frozenset({"D", "EENN"}))
            exclude = PathFamilySpec(target=(n, m), forbidden_aug=frozenset({"D", "EENN"}))
            codomain = PathFamilySpec(target=(n - 1, m - 1), forbidden=frozenset({"D", "EENN"}))
            report = verify_bijection(domain, tau_map, codomain, domain_exclude=exclude)
            assert report.ok, (n, m)
            for p in enumerate_paths(domain):
                if satisfies(p, exclude):
                    continue
                image = tau_map(p)
                assert tau_inverse(image) == p
                if p.word == "EN":
                    assert image.word == ""
                    checked_degenerate = True
            for q in enumerate_paths(codomain):
                assert tau_map(tau_inverse(q)) == q
    assert checked_degenerate
    for k in (1, 2, 3):
        for n in range(6):
            corner = PathFamilySpec(
                target=(n, k * n), forbidden=frozenset({"D", "EENN"}), region_k=k
            )
            peakless = PathFamilySpec(
                target=(n, k * n), forbidden=frozenset({"NE", "EN"}), region_k=k
            )
            assert verify_bijection(corner, pi_map, peakless).ok, (k, n)
            assert verify_bijection(peakless, delta_map, corner).ok, (k, n)
    assert time.perf_counter() - t0 < 60


def test_criterion_04_series_prefixes_exact():
    """All ten documented coefficient prefixes, for slopes 1, 2, 3."""
    t1 = assemble_triple(1, 7)
    assert t1.f == (1, 1, 2, 5, 13, 35, 97, 275)
    assert t1.fd == (0, 1, 1, 2, 5, 13, 35, 97)
    assert t1.fe == (0, 0, 1, 3, 8, 22, 62, 178)
    t2 = assemble_triple(2, 9)
    assert t2.f == (1, 1, 3, 11, 44, 186, 818, 3706, 17182, 81136)
    assert t2.fd[:8] == (0, 1, 2, 6, 22, 89, 381, 1694)
    assert t2.fe[:8] == (0, 0, 1, 5, 22, 97, 437, 2012)
    t3 = assemble_triple(3, 7)
    assert t3.f == (1, 1, 4, 20, 111, 657, 4065, 25981)
    assert t3.fd == (0, 1, 3, 13, 67, 380, 2288, 14351)
    assert t3.fe == (0, 0, 1, 7, 44, 277, 1777, 11630)


def test_criterion_05_closed_forms_match_series_to_order_20():
    t0 = time.perf_counter()
    t1 = assemble_triple(1, 20)
    t2 = assemble_triple(2, 20)
    for n in range(21):
        assert closed_k1(n) == (t1.f[n], t1.fd[n], t1.fe[n]), n
        assert closed_k2(n) == (t2.f[n], t2.fd[n]), n
    assert time.perf_counter() - t0 < 5


def test_criterion_06_series_coefficients_count_paths():
    """[x^n] of each series equals the brute-force region count for k <= 3,
    n <= 7, termwise over the last-step split (D-ending, E-ending, empty)."""
    for k in (1, 2, 3):
        triple = assemble_triple(k, 7)
        for n in range(8):
            base = dict(target=(n, k * n), forbidden=frozenset({"NE", "EN"}), region_k=k)
            total = count_bruteforce(PathFamilySpec(**base))
            by_d = count_bruteforce(PathFamilySpec(**base, last_step="D"))
            by_e = count_bruteforce(PathFamilySpec(**base, last_step="E"))
            assert triple.f[n] == total, (k, n)
            assert triple.fd[n] == by_d, (k, n)
            assert triple.fe[n] == by_e, (k, n)
            assert total == by_d + by_e + (1 if n == 0 else 0), (k, n)


def test_criterion_07_region_count_formulas_in_both_forms():
    """Both corner-count formulas, each in both stated forms, equal brute
    force for k <= 3, n <= 6, m <= 12, including m < kn; all rational
    intermediate sums are integral."""

    def corner_form1(n: int, k: int) -> Fraction:
        return sum(
            Fraction(multinomial(k * n + n - d, k * n - d, n - d, d), k * n - d + 1)
            for d in range(n + 1)
        )

    def corner_form2(n: int, k: int) -> Fraction:
        return Fraction(
            sum(math.comb(k * n, j - 1) * math.comb(n, j) * 2**j for j in range(1, n + 1)),
            n,
        )

    def rect_form1(n: int, m: int, k: int) -> Fraction:
        return sum(
            Fraction((m - k * n + 1) * multinomial(m + n - d, m - d, n - d, d), m - d + 1)
            for d in range(n + 1)
        )

    def rect_form2(n: int, m: int, k: int) -> Fraction:
        return Fraction(
            (m - k * n + 1)
            * sum(math.comb(m, j - 1) * math.comb(n, j) * 2**j for j in range(1, n + 1)),
            n,
        )

    for k in (1, 2, 3):
        for n in range(7):
            corner = count_bruteforce(PathFamilySpec(target=(n, k * n), region_k=k))
            f1 = corner_form1(n, k)
            assert f1.denominator == 1 and int(f1) == corner, (k, n)
            if n >= 1:
                f2 = corner_form2(n, k)
                assert f2.denominator == 1 and int(f2) == corner, (k, n)
            assert schroeder_count(n, k) == corner
            for m in range(13):
                actual = count_bruteforce(PathFamilySpec(target=(n, m), region_k=k))
                if m < k * n:
                    assert actual == 0 == schroeder_rect_count(n, m, k), (k, n, m)
                    continue
                r1 = rect_form1(n, m, k)
                assert r1.denominator == 1 and int(r1) == actual, (k, n, m)
                if n >= 1:
                    r2 = rect_form2(n, m, k)
                    assert r2.denominator == 1 and int(r2) == actual, (k, n, m)
                assert schroeder_rect_count(n, m, k) == actual, (k, n, m)


def test_criterion_08_bivariate_expansion_matches_tables():
    """Expanding 1/(1-x-y+x^2y^2) gives the b table; the numerator 1-xy
    gives the h table; both checked on the full 13 x 13 grid."""
    b = b_table(12, 12)
    h = h_table(12, 12)
    unit = expand_bivariate({(0, 0): 1}, 12)
    shifted = expand_bivariate({(0, 0): 1, (1, 1): -1}, 12)
    for n in range(13):
        for m in range(13):
            assert unit[n, m] == b[n, m], (n, m)
            assert shifted[n, m] == h[n, m], (n, m)


def test_criterion_09_conjecture_harnesses_agree():
    """Both conjectured equinumerosities hold for all n <= 8, and the
    inversion-sequence counts reproduce the k=2 diagonal series.  Under 120 s."""
    t0 = time.perf_counter()
    report1 = check_conjecture1(8)
    assert report1.verdict, report1.rows
    report2 = check_conjecture2(8)
    assert report2.verdict, report2.rows
    triple = assemble_triple(2, 8)
    for n in range(1, 9):
        assert count_inversion_102(n) == triple.fd[n], n
    assert time.perf_counter() - t0 < 120


def test_criterion_10_radical_identity_to_order_20():
    """((1-x)^2 - 2x^2 F)^2 = (1-x)^4 - 4x^2(1-x) exactly through x^20,
    with FD = xF and FE = (1-x)F - 1."""
    check = radical_check_k1(20)
    assert check.ok and check.first_mismatch is None