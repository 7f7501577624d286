"""Truncated power series and the region generating functions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delannoy.counting as counting_module
import delannoy.series as series_module
from delannoy import (
    ConsistencyError,
    PowerSeries,
    SeriesTriple,
    assemble_triple,
    catalan,
    closed_k1,
    closed_k2,
    count_bruteforce,
    radical_check_k1,
    solve_fd,
)
from delannoy.counting import family_spec, spec_counts

# Leading coefficients of the three series for each slope, frozen from the
# closed forms and cross-checked against brute-force path counts elsewhere.
GOLDEN = {
    1: {
        "f": (1, 1, 2, 5, 13, 35, 97, 275),
        "fd": (0, 1, 1, 2, 5, 13, 35, 97),
        "fe": (0, 0, 1, 3, 8, 22, 62, 178),
    },
    2: {
        "f": (1, 1, 3, 11, 44, 186, 818, 3706, 17182, 81136),
        "fd": (0, 1, 2, 6, 22, 89, 381, 1694),
        "fe": (0, 0, 1, 5, 22, 97, 437, 2012),
    },
    3: {
        "f": (1, 1, 4, 20, 111, 657, 4065, 25981),
        "fd": (0, 1, 3, 13, 67, 380, 2288, 14351),
        "fe": (0, 0, 1, 7, 44, 277, 1777, 11630),
    },
}


def test_powerseries_basic_arithmetic():
    x = PowerSeries.x(4)
    assert ((1 + x) ** 2).coeffs == (1, 2, 1, 0, 0)
    assert ((1 - x) * (1 + x)).coeffs == (1, 0, -1, 0, 0)
    assert (x * x * x).coeffs == (0, 0, 0, 1, 0)
    assert (3 * x - x).coeffs == (0, 2, 0, 0, 0)
    assert (0 - x).coeffs == (0, -1, 0, 0, 0)


def _double_sum(a, b):
    """The truncated product as the plain convolution: every (i, j) pair, no shortcut."""
    n = min(len(a), len(b))
    return tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(n))


_coefficient = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))


@settings(max_examples=300, deadline=None)
@given(st.lists(_coefficient, min_size=1, max_size=14), st.lists(_coefficient, min_size=1, max_size=14),
       st.integers(0, 4))
def test_powerseries_product_is_the_double_sum(a, b, shift):
    """Squares take each cross term once and every other product skips zeros;
    both must give the plain convolution, on distinct, equal and shared operands."""
    s = PowerSeries((0,) * shift + tuple(a))  # leading zeros
    t = PowerSeries(tuple(b))  # mixed orders truncate to the smaller
    twin = PowerSeries(tuple(s.coeffs))  # equal to s, not the same object
    x, one = PowerSeries.x(s.order), PowerSeries.one(s.order)
    for left, right in ((s, t), (t, s), (s, s), (t, t), (s, twin), (x, x), (one, s), (s, one), (x, s)):
        assert (left * right).coeffs == _double_sum(left.coeffs, right.coeffs), (left, right)


def test_powerseries_mixed_orders_truncate_to_smaller():
    a = PowerSeries((1, 1, 1, 1, 1))
    b = PowerSeries((1, 2))
    assert (a + b).order == 1
    assert (a * b).coeffs == (1, 3)


def test_powerseries_coefficient_access_is_strict():
    s = PowerSeries((7, 0, 4))
    assert s[0] == 7 and s[2] == 4
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


def test_powerseries_truncate_and_validation():
    s = PowerSeries((1, 2, 3))
    assert s.truncate(1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        s.truncate(5)
    with pytest.raises(ValueError):
        PowerSeries(())
    assert PowerSeries((1, 2.0)).coeffs == (1, 2)  # an integral float is its integer
    with pytest.raises(ValueError, match="integers"):
        PowerSeries((1, 2.5))  # not truncated to (1, 2)
    with pytest.raises(ValueError, match="integers"):
        s + 0.5  # a constant operand is checked the same way
    with pytest.raises(ValueError):
        s**-1


def test_powerseries_compose():
    x = PowerSeries.x(5)
    inner = x + x * x
    outer = 1 + x + x**2
    # 1 + (x + x^2) + (x + x^2)^2 = 1 + x + 2x^2 + 2x^3 + x^4
    assert outer.compose(inner).coeffs == (1, 1, 2, 2, 1, 0)
    with pytest.raises(ValueError):
        outer.compose(1 + x)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_golden_prefixes(k):
    order = len(GOLDEN[k]["f"]) - 1
    triple = assemble_triple(k, max(order, 9))
    for name, expected in GOLDEN[k].items():
        got = getattr(triple, name).coeffs[: len(expected)]
        assert got == expected, (k, name)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fixed_point_low_order_edges(k):
    assert solve_fd(k, 0).coeffs == (0,)
    assert solve_fd(k, 1).coeffs == (0, 1)  # a single D step, any slope


def test_solve_fd_validation():
    with pytest.raises(ValueError):
        solve_fd(0, 5)
    with pytest.raises(ValueError):
        solve_fd(1, -1)
    for k in (True, 1.5):  # the slope follows paths.PathFamilySpec's rule
        with pytest.raises(ValueError, match="slope k"):
            solve_fd(k, 5)
    assert solve_fd(2.0, 5) == solve_fd(2, 5)
    assert assemble_triple(2.0, 5).k == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_triple_splits_by_last_step(k):
    """FD and FE count the region's peak/valley-free paths to (n, kn) by last step."""
    triple = assemble_triple(k, 6)
    for n in range(7):
        for last, series in (("D", triple.fd), ("E", triple.fe)):
            spec = family_spec("h", n, k * n, region_k=k, last_step=last)
            assert series[n] == count_bruteforce(spec), (n, last)


def test_catalan():
    assert [catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    with pytest.raises(ValueError):
        catalan(-1)


def test_closed_k1_matches_series():
    triple = assemble_triple(1, 20)
    for n in range(21):
        assert closed_k1(n) == (triple.f[n], triple.fd[n], triple.fe[n]), n
        assert all(type(c) is int for c in closed_k1(n)), n  # never a bool, even at n = 0


def test_closed_k2_matches_series():
    triple = assemble_triple(2, 20)
    for n in range(21):
        assert closed_k2(n) == (triple.f[n], triple.fd[n]), n


def test_closed_forms_match_series_at_every_index_to_order_200():
    """Every index up to the orders of the `gf_orders` benchmark jobs, where the
    squares multiply long big integers."""
    k1, k2 = assemble_triple(1, 200), assemble_triple(2, 200)
    for n in range(201):
        assert closed_k1(n) == (k1.f[n], k1.fd[n], k1.fe[n]), n
        assert closed_k2(n) == (k2.f[n], k2.fd[n]), n
    assert radical_check_k1(200).ok


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_k1(-1)
    with pytest.raises(ValueError):
        closed_k2(-2)
    with pytest.raises(ValueError):
        radical_check_k1(-1)


def test_radical_identity_holds():
    check = radical_check_k1(20)
    assert check.ok
    assert check.first_mismatch is None
    assert bool(check)
    assert radical_check_k1(0).ok  # vacuously true on the constant term


def test_radical_check_refuses_other_slopes():
    with pytest.raises(ValueError, match="got a triple for k=2"):
        radical_check_k1(5, assemble_triple(2, 5))


def test_radical_identity_rejects_corrupted_series():
    triple = assemble_triple(1, 10)
    bad_f = triple.f + PowerSeries((0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0))
    mutant = SeriesTriple(k=1, f=bad_f, fd=triple.fd, fe=triple.fe)
    check = radical_check_k1(10, triple=mutant)
    assert not check.ok
    assert check.first_mismatch == 5  # the corrupted coefficient
    assert not bool(check)


def test_substitution_identity_for_k2():
    """The cubic-tree series A(t) = t (1 + A)^3 turns into the k=2 diagonal
    series under t = x - x^2."""
    order = 12
    t = PowerSeries.x(order)
    a = PowerSeries.zero(order)
    for _ in range(order + 1):
        a = t * (1 + a) ** 3
    assert t * (1 + a) ** 3 == a
    substituted = a.compose(t - t * t)
    assert substituted == assemble_triple(2, order).fd


# G^(k+1) at every k, and from k = 3 on G^(2k-1), which only there has its own recurrence
@pytest.mark.parametrize("k,power", [(1, 2), (2, 3), (3, 4), (3, 5), (4, 7)],
                         ids=["1", "2", "3", "3-G^5", "4-G^7"])
def test_assemble_rejects_a_non_fixed_point(monkeypatch, k, power):
    # a solve that keeps G^(power+1) where G^power belongs stays integral and
    # self-consistent, so only the substitution check can catch it
    honest_next = series_module._miller_next
    monkeypatch.setattr(
        series_module, "_miller_next", lambda g, p, a: honest_next(g, p, a + (a == power))
    )
    with pytest.raises(ConsistencyError, match=f"fixed point for k={k} not stable"):
        series_module.assemble_triple(k, 6)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_each_distinct_power_is_solved_once(monkeypatch, k):
    """G^(2k-1) is G at k = 1 and G^(k+1) at k = 2, so only from k = 3 on does
    it take a Miller recurrence of its own."""
    honest_next = series_module._miller_next
    powers = []
    monkeypatch.setattr(
        series_module, "_miller_next", lambda g, p, a: powers.append(a) or honest_next(g, p, a)
    )
    order = 30
    series_module.assemble_triple(k, order)
    assert len(powers) == (order if k <= 2 else 2 * order)
    assert set(powers) == ({k + 1} if k <= 2 else {k + 1, 2 * k - 1})


@pytest.mark.parametrize("k,at_most", [(3, 7), (5, 9)])
def test_checks_take_each_power_once(monkeypatch, k, at_most):
    """One solve and one check: k + 4 products (G^(k-1), G^2, G^k, x G^k and
    x G^(k-1) F) for assemble_triple and for solve_fd, a view of it."""
    honest_mul = PowerSeries.__mul__
    calls = []

    def counted_mul(self, other):
        calls.append(1)
        return honest_mul(self, other)

    monkeypatch.setattr(series_module.PowerSeries, "__mul__", counted_mul)
    for solve in (solve_fd, assemble_triple):
        calls.clear()
        solve(k, 40)
        assert len(calls) <= at_most, solve.__name__


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_series_count_region_paths_by_last_step(k):
    """F, FD and FE are the paths DP's counts at the corners (n, kn): evidence
    for F and FE that does not start from FD."""
    n_max = 25
    triple = assemble_triple(k, n_max)
    for name, last in (("f", None), ("fd", "D"), ("fe", "E")):
        columns = spec_counts(family_spec("h", n_max, k * n_max, region_k=k, last_step=last))
        got = [column[k * n] for n, column in enumerate(columns)]
        assert got == list(getattr(triple, name).coeffs), name


def _fd_by_full_substitution(k, order):
    """The N+1-round fixed-point iteration, each round a full substitution."""
    x = PowerSeries.x(order)
    fd = PowerSeries.zero(order)
    for _ in range(order + 1):
        fd = x * (1 + fd) ** (k + 1) - x * x * (1 + fd) ** (2 * k - 1)
    return fd


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(0, 25))
def test_online_solver_matches_full_substitution(k, order):
    assert solve_fd(k, order) == _fd_by_full_substitution(k, order)


def test_high_order_series_match_closed_forms():
    triple = assemble_triple(1, 300)
    for n in (100, 200, 300):
        assert closed_k1(n) == (triple.f[n], triple.fd[n], triple.fe[n]), n
    triple = assemble_triple(2, 250)
    for n in (100, 200, 250):
        assert closed_k2(n) == (triple.f[n], triple.fd[n]), n


def test_solve_fd_substitution_check_is_live(monkeypatch):
    """The solver never calls PowerSeries.__pow__; only its final check does."""
    honest_pow = PowerSeries.__pow__

    def perturbed_pow(self, exponent):
        coeffs = list(honest_pow(self, exponent).coeffs)
        coeffs[3] += 1
        return PowerSeries(tuple(coeffs))

    monkeypatch.setattr(series_module.PowerSeries, "__pow__", perturbed_pow)
    with pytest.raises(ConsistencyError):
        solve_fd(2, 8)


def test_inexact_divisions_raise(monkeypatch):
    # (1 + x + x^2)^2 starts 1, 2, 3; a stored prefix 1, 1 is not that power
    with pytest.raises(ConsistencyError):
        series_module._miller_next([1, 1, 1], [1, 1], 2)
    # closed_k2(4)'s F walks 143, -120, 21, the last step -120 * -84 / 480; -119 leaves a remainder
    exact = counting_module._exact

    def perturbed(num, den, what):
        return exact(num, den, what) + (what == "closed_k2(4) F term 1")

    assert closed_k2(4) == (44, 22)
    monkeypatch.setattr(counting_module, "_exact", perturbed)
    with pytest.raises(ConsistencyError, match=r"closed_k2\(4\) F term 2 is not an integer"):
        closed_k2(4)
