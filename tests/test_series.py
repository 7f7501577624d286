"""Truncated power series and the region generating functions."""

from __future__ import annotations

import functools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delannoy.counting as counting_module
import delannoy.series as series_module
from delannoy import (
    ConsistencyError,
    RadicalCheck,
    SeriesTriple,
    assemble_triple,
    closed_k1,
    closed_k2,
    count_bruteforce,
    radical_check_k1,
    solve_fd,
)
from delannoy.counting import family_spec, spec_counts

from helpers import catalan, double_sum, radical_check_by_squaring

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


_coefficient = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))


@settings(max_examples=300, deadline=None)
@given(st.lists(_coefficient, min_size=1, max_size=14), st.lists(_coefficient, min_size=1, max_size=14),
       st.integers(0, 4))
def test_powerseries_product_is_the_double_sum(a, b, shift):
    """Squares take each cross term once and every other product skips zeros; both must give
    the plain convolution to the shorter operand's order, on distinct, equal and zero-led operands."""
    s = [0] * shift + a  # leading zeros
    twin = list(s)  # equal to s, not the same object
    one, x = [1] + [0] * (len(s) - 1), [0, 1, *[0] * len(s)][: len(s)]
    for left, right in ((s, b), (b, s), (s, s), (b, b), (s, twin), (x, x), (one, s), (s, one), (x, s)):
        assert series_module._product(left, right) == double_sum(left, right), (left, right)


def _power(a, exponent):
    """a ** exponent to a's order, by repeated plain convolution."""
    result = [1] + [0] * (len(a) - 1)
    for _ in range(exponent):
        result = double_sum(result, a)
    return result


@pytest.mark.parametrize("k", [1, 2, 3])
def test_golden_prefixes(k):
    order = len(GOLDEN[k]["f"]) - 1
    triple = assemble_triple(k, max(order, 9))
    for name, expected in GOLDEN[k].items():
        got = getattr(triple, name)[: len(expected)]
        assert got == expected, (k, name)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fixed_point_low_order_edges(k):
    assert solve_fd(k, 0) == (0,)
    assert solve_fd(k, 1) == (0, 1)  # a single D step, any slope


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
    bad_f = tuple(c + (i == 5) for i, c in enumerate(triple.f))
    mutant = SeriesTriple(k=1, f=bad_f, fd=triple.fd, fe=triple.fe)
    check = radical_check_k1(10, triple=mutant)
    assert not check.ok
    assert check.first_mismatch == 5  # the corrupted coefficient
    assert not bool(check)


_K1_SERIES = ("f", "fd", "fe")


@functools.cache
def _k1_triple(order):
    return assemble_triple(1, order)


def _moved(triple, moves):
    """A copy of a k=1 triple with moves[(name, index)] added to those coefficients."""
    coeffs = {name: list(getattr(triple, name)) for name in _K1_SERIES}
    for (name, index), delta in moves.items():
        coeffs[name][index] += delta
    return SeriesTriple(1, *(tuple(coeffs[name]) for name in _K1_SERIES))


@given(st.data())
@settings(deadline=None)
def test_radical_check_matches_the_squaring_oracle(data):
    """The differential-equation check and the squaring check agree on the verdict and on
    the first failing index, for triples built at the order or a few past it and moved at
    up to three coefficients, 0 and the order among them."""
    order = data.draw(st.integers(0, 60), label="order")
    built = order + data.draw(st.integers(0, 3), label="built past the order")
    moves = data.draw(st.dictionaries(
        st.tuples(st.sampled_from(_K1_SERIES), st.sampled_from((0, order)) | st.integers(0, built)),
        st.integers(-3, 3) | st.integers(-2**80, 2**80), max_size=3), label="moves")
    mutant = _moved(_k1_triple(built), moves)
    assert radical_check_k1(order, mutant) == radical_check_by_squaring(order, mutant)


def test_radical_check_at_order_400_matches_the_squaring_oracle():
    """Long coefficients: each series moved at the last index, and F moved at 398 with FD and
    FE moved along, so that only the radical equation sees it (P moves at 400)."""
    triple = assemble_triple(1, 400)
    consistent = {("f", 398): 1, ("fd", 399): 1, ("fe", 398): 1, ("fe", 399): -1}
    for moves in ({("f", 400): 1}, {("fd", 400): -1}, {("fe", 400): 1}, consistent):
        mutant = _moved(triple, moves)
        check = radical_check_k1(400, mutant)
        assert check == radical_check_by_squaring(400, mutant) == RadicalCheck(False, 400), moves
    assert radical_check_k1(399, _moved(triple, consistent)).ok


def _sqrt_delta(order):
    """sqrt(D), D = 1 - 4x + 2x^2 + x^4, by s_n = (D_n - sum_(0<j<n) s_j s_(n-j)) / 2."""
    delta = (1, -4, 2, 0, 1) + (0,) * order
    s = [1]
    for n in range(1, order + 1):
        twice = delta[n] - sum(s[j] * s[n - j] for j in range(1, n))
        assert twice % 2 == 0, n
        s.append(twice // 2)
    return s


def _first_residual(p):
    """The first n + 1 with [x^n](2 D P' - D' P) nonzero, each coefficient summed from D's
    coefficients, or None: the rule the radical check expands by hand."""
    d = (1, -4, 2, 0, 1)
    d_prime = [(i + 1) * c for i, c in enumerate(d[1:])]

    def at(j):
        return p[j] if 0 <= j < len(p) else 0

    for n in range(len(p) - 1):
        if (sum(2 * c * (n - i + 1) * at(n - i + 1) for i, c in enumerate(d))
                != sum(c * at(n - i) for i, c in enumerate(d_prime))):
            return n + 1
    return None


def test_radical_rule_is_the_equation_of_sqrt_delta():
    """The proof obligation: sqrt(D) to order 300 satisfies 2 D P' = D' P, it is
    (1-x)^2 - 2 x^2 F for the solved F, and a copy moved by 1 at index i fails at i."""
    s = _sqrt_delta(300)
    assert _first_residual(s) is None
    f = (0, 0) + assemble_triple(1, 300).f  # f_(n-2) at n
    assert s == [(1, -2, 1, 0)[min(n, 3)] - 2 * f[n] for n in range(301)]
    for i in (1, 2, 3, 4, 5, 150, 299, 300):
        moved = s[:i] + [s[i] + 1] + s[i + 1:]
        assert _first_residual(moved) == i, i
    for i in (2, 3, 150, 300):  # F moved by 1 at i - 2, FD and FE along, moves P by -2 at i
        moves = {("f", i - 2): 1, ("fd", i - 1): 1, ("fe", i - 2): 1, ("fe", i - 1): -1}
        assert radical_check_k1(300, _moved(_k1_triple(300), moves)) == RadicalCheck(False, i), i


def test_inverse_sqrt_delta_recurrence_is_its_equation():
    """The proof obligation for d = 1/sqrt(D): d^2 D = 1 gives 2 D d' + D' d = 0, whose
    coefficient n is (n+1) d_(n+1) = (4n+2) d_n - 2n d_(n-1) - (n-1) d_(n-3), d zero at
    negative indices; and d_n is b(n, n), d_n - d_(n-1) is h(n, n)."""
    s = _sqrt_delta(300)
    d = [1]  # the exact inverse of s, s_0 = 1: d_n = -sum_(0<j<=n) s_j d_(n-j)
    for n in range(1, 301):
        d.append(-sum(s[j] * d[n - j] for j in range(1, n + 1)))
    delta = (1, -4, 2, 0, 1)
    delta_prime = [(i + 1) * c for i, c in enumerate(delta[1:])]

    def at(j):
        return d[j] if j >= 0 else 0

    for n in range(300):  # [x^n](2 D d' + D' d) reads d up to n + 1
        assert (sum(2 * c * (n - i + 1) * at(n - i + 1) for i, c in enumerate(delta))
                + sum(c * at(n - i) for i, c in enumerate(delta_prime))) == 0, n
        assert (n + 1) * d[n + 1] == (4 * n + 2) * d[n] - 2 * n * at(n - 1) - (n - 1) * at(n - 3), n
    h, b = (list(counting_module.table_columns(kind, 60, 60)) for kind in "hb")
    for n in range(61):
        assert b[n][n] == d[n], n
        assert h[n][n] == d[n] - at(n - 1), n


def test_radical_check_makes_no_series_product(monkeypatch):
    """On a triple already built the check is O(order): no series product at all, where
    the substitution check that built the triple takes one."""
    triple = assemble_triple(1, 120)
    calls = []
    honest_product = series_module._product

    def counted_product(a, b):
        calls.append(1)
        return honest_product(a, b)

    monkeypatch.setattr(series_module, "_product", counted_product)
    assert radical_check_k1(120, triple).ok
    assert calls == []
    series_module._CHECKED.clear()
    assert assemble_triple(1, 120) == triple
    assert calls == [1]  # the counter sees products


def test_radical_check_truncates_the_triple_to_the_order():
    short = assemble_triple(1, 10)
    with pytest.raises(ValueError, match="cannot extend truncation 10 to 12"):
        radical_check_k1(12, short)
    mutant = _moved(assemble_triple(1, 30), {("f", 25): 7})
    assert radical_check_k1(24, mutant).ok  # checked only up to the order
    assert radical_check_k1(25, mutant) == RadicalCheck(False, 25)
    assert radical_check_k1(0, short).ok
    assert radical_check_k1(0, _moved(short, {("fe", 0): 1})) == RadicalCheck(False, 0)


def test_substitution_identity_for_k2():
    """The cubic-tree series A(t) = t (1 + A)^3 turns into the k=2 diagonal
    series under t = x - x^2."""
    order = 12
    a = [0] * (order + 1)
    for _ in range(order + 1):
        a = [0, *_power([1, *a[1:]], 3)[:-1]]
    assert [0, *_power([1, *a[1:]], 3)[:-1]] == a
    inner, substituted = [0, 1, -1, *[0] * (order - 2)], [0] * (order + 1)
    for c in reversed(a):  # A(t - t^2) by Horner's rule
        substituted = double_sum(substituted, inner)
        substituted[0] += c
    assert tuple(substituted) == assemble_triple(2, order).fd


# Each perturbed solve stays integral and self-consistent, so only the substitution check can
# catch it: for k <= 3 the P-recurrence's last step off by one; from k = 4 on, and at k = 3 below
# its first recurrence step (order 5), a Miller step that keeps G^(power+1) where G^power belongs
@pytest.mark.parametrize("k,power,order", [(1, None, 6), (2, None, 6), (3, None, 8), (3, 5, 4), (4, 5, 6),
                                           (4, 7, 6)], ids=["1", "2", "3", "3-G^5", "4-G^5", "4-G^7"])
def test_assemble_rejects_a_non_fixed_point(monkeypatch, k, power, order):
    if power is None:
        honest_step = series_module._recurrence_next
        monkeypatch.setattr(series_module, "_recurrence_next",
                            lambda polys, g: honest_step(polys, g) + (len(g) == order))
    else:
        honest_next = series_module._miller_next
        monkeypatch.setattr(series_module, "_miller_next",
                            lambda g, p, a: honest_next(g, p, a + (a == power)))
    where = rf"x\^{order}:" if power is None else r"x\^"  # a wrong last coefficient is named
    with pytest.raises(ConsistencyError, match=f"fixed point for k={k} not stable to order {order} at {where}"):
        series_module.assemble_triple(k, order)


# the order r of each slope's P-recurrence: Miller's recurrence gives G's first r coefficients
FIRST_STEP = {1: 4, 2: 3, 3: 5}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_each_distinct_power_is_solved_once(monkeypatch, k):
    """G^(2k-1) is G at k = 1 and G^(k+1) at k = 2, so only from k = 3 on does
    it take a Miller recurrence of its own.  For k <= 3 Miller's steps stop at
    the P-recurrence's first, which then takes one step per coefficient."""
    honest_next, honest_step = series_module._miller_next, series_module._recurrence_next
    powers, steps = [], []
    monkeypatch.setattr(
        series_module, "_miller_next", lambda g, p, a: powers.append(a) or honest_next(g, p, a)
    )
    monkeypatch.setattr(
        series_module, "_recurrence_next", lambda polys, g: steps.append(len(g)) or honest_step(polys, g)
    )
    order = 30
    series_module.assemble_triple(k, order)
    first = FIRST_STEP.get(k, order + 1)
    assert len(powers) == (first - 1) * (1 if k <= 2 else 2)
    assert set(powers) == ({k + 1} if k <= 2 else {k + 1, 2 * k - 1})
    assert steps == list(range(first, order + 1))


@functools.cache
def _miller_g(k, order):
    """G = 1 + FD by Miller's recurrence alone, written here: [x^n]FD = [x^(n-1)]G^(k+1) -
    [x^(n-2)]G^(2k-1), and each power P = G^a steps by n p_n = sum_j ((a+1) j - n) g_j p_(n-j)."""
    g = [1]
    powers = {k + 1: [1], 2 * k - 1: [1]}
    for n in range(1, order + 1):
        g.append(powers[k + 1][n - 1] - (powers[2 * k - 1][n - 2] if n > 1 else 0))
        for a, p in powers.items():
            total = sum(((a + 1) * j - n) * g[j] * p[n - j] for j in range(1, n + 1))
            assert total % n == 0, (k, a, n)
            p.append(total // n)
    return tuple(g)


@given(st.integers(1, 3), st.integers(0, 200))
@settings(deadline=None)
def test_recurrence_solve_matches_miller(k, order):
    assert (1,) + solve_fd(k, order)[1:] == _miller_g(k, 200)[: order + 1]


def test_recurrence_solve_to_order_600():
    """Past the orders the property test draws: the closed forms at sampled indices, and at
    k = 3 every coefficient of the Miller solve."""
    k1, k2 = assemble_triple(1, 600), assemble_triple(2, 600)
    for n in (0, 1, 5, 199, 200, 201, 333, 477, 598, 599, 600):
        assert closed_k1(n) == (k1.f[n], k1.fd[n], k1.fe[n]), n
        assert closed_k2(n) == (k2.f[n], k2.fd[n]), n
    assert (1,) + solve_fd(3, 600)[1:] == _miller_g(3, 600)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_a_wrong_recurrence_entry_is_caught(monkeypatch, k):
    """Every entry of each table, one at a time, off by one: an inexact division or the
    substitution check raises; no wrong series comes back."""
    table = series_module._RECURRENCES[k]
    for i, poly in enumerate(table):
        for j in range(len(poly)):
            wrong = poly[:j] + (poly[j] + 1,) + poly[j + 1:]
            monkeypatch.setitem(series_module._RECURRENCES, k, table[:i] + (wrong,) + table[i + 1:])
            with pytest.raises(ConsistencyError):
                assemble_triple(k, 30)


def test_slope1_recurrence_holds_at_every_n():
    """A certificate for _RECURRENCES[1], not a fit.  At k = 1 the fixed point reads
    x G^2 - (1 + x^2) G + 1 = 0, so s = 1 + x^2 - 2 x G has s^2 = D = 1 - 4x + 2x^2 + x^4 and
    s_0 = 1: s = sqrt(D), s_j = [j in {0, 2}] - 2 g_(j-1).  s^2 = D gives 2 D s' = D' s, whose
    coefficient m is the sum over t of D_t (2 (m + 1 - t) - t) s_(m+1-t).  Put m = n + 4, so
    every index n + 5 - t is at least 1, and s_j = -2 g_(j-1) but at j = 2, where the constant
    term's polynomial must vanish at its one n.  Both steps run as polynomials in n from D's
    coefficients; divided by its content, the result is the table, entry for entry."""
    delta, shift = (1, -4, 2, 0, 1), 4
    derived = [()] * (shift + 1)  # P_i(n), the factor of g_(n+i), top coefficient first
    for t, d in enumerate(delta):
        a, b = 2 * d, 2 * d * (1 - t) - t * d  # the factor of s_(m+1-t): a m + b
        b += a * shift  # m = n + 4
        derived[shift - t] = (-2 * a, -2 * b)  # s_(n+5-t) = -2 g_(n+4-t)
        for j in (0, 2):  # the constant term of s_j: 1, met at n = j + t - 5
            if (n := j + t - shift - 1) >= 0:
                assert a * n + b == 0, (t, n)
    content = math.gcd(*(c for poly in derived for c in poly)) * (1 if derived[-1][0] > 0 else -1)
    assert tuple(tuple(c // content for c in poly) for poly in derived) == series_module._RECURRENCES[1]
    g = (1, *solve_fd(1, 60)[1:])
    assert _sqrt_delta(60) == [(n == 0) + (n == 2) - 2 * (g[n - 1] if n else 0) for n in range(61)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_leading_polynomial_has_no_root_at_nonnegative_n(k):
    """P_r's coefficients are all positive, so P_r(n) >= P_r(0) > 0 for every n >= 0: each
    recurrence step divides by a nonzero integer."""
    table = series_module._RECURRENCES[k]
    assert len(table) - 1 == FIRST_STEP[k]
    assert len({len(poly) for poly in table}) == 1  # one degree
    assert all(c > 0 for c in table[-1])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_check_forms_each_power_of_g_once(monkeypatch, k):
    """G^2 is shared by F = G^2 - x G^k and the powers G^(k-1), G^k: one square per solve,
    and k products in all (G^2, G^3 to G^k, and G^(k-1) times F), since each x is a shift;
    at k = 1, G^0 F is F itself, so the square is the only product."""
    honest_product = series_module._product
    squares = []

    def counted_product(a, b):
        squares.append(a == b)
        return honest_product(a, b)

    monkeypatch.setattr(series_module, "_product", counted_product)
    assemble_triple(k, 20)
    assert sum(squares) == 1
    assert len(squares) == k


def test_check_keeps_two_powers_of_g_at_a_time():
    """The check reads G^2, G^(k-1) and G^k only: it keeps the last two powers as it
    forms them, not every power to G^k (4.4 MB at k = 20000, order 3, when it did)."""
    tracemalloc.start()
    try:
        triple = assemble_triple(5000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert triple.fd == (0, 1, 5000, 37497501)  # g_3 = (k+1)k + C(k+1, 2) - (2k-1)
    assert peak < 400_000  # the 5001 powers took 1.1 MB


@pytest.mark.parametrize("k,at_most", [(3, 7), (5, 9)])
def test_checks_take_each_power_once(monkeypatch, k, at_most):
    """One solve and one check, within k + 4 products, for assemble_triple and for
    solve_fd, a view of it (test_check_forms_each_power_of_g_once counts them exactly)."""
    honest_product = series_module._product
    calls = []

    def counted_product(a, b):
        calls.append(1)
        return honest_product(a, b)

    monkeypatch.setattr(series_module, "_product", counted_product)
    for solve in (solve_fd, assemble_triple):
        calls.clear()
        series_module._CHECKED.clear()  # or the second call is answered by the first's triple
        solve(k, 40)
        assert len(calls) <= at_most, solve.__name__


@given(st.integers(1, 5), st.integers(0, 150), st.integers(0, 150))
@settings(deadline=None)
def test_a_kept_triple_answers_as_a_fresh_solve(k, first, second):
    """After a call at one order, a call at another equals a fresh solve, field for field:
    the kept triple's truncation below its order, a new solve above it."""
    series_module._CHECKED.clear()
    kept = assemble_triple(k, first)
    got = assemble_triple(k, second)
    series_module._CHECKED.clear()
    fresh = assemble_triple(k, second)
    for name in SeriesTriple.__slots__:
        assert getattr(got, name) == getattr(fresh, name), name
    assert len(got.f) - 1 == len(got.fd) - 1 == len(got.fe) - 1 == second
    assert all(type(s) is tuple and all(type(c) is int for c in s) for s in (got.f, got.fd, got.fe))
    if first == second:
        assert got is kept


def test_a_failed_check_keeps_no_triple(monkeypatch):
    """A check that raises leaves no triple for its slope, not even the shorter one kept
    before it, so the next honest call solves and checks again."""
    honest_product = series_module._product
    honest = assemble_triple(2, 10)

    def perturbed_product(a, b):
        coeffs = honest_product(a, b)
        coeffs[3] += 1
        return coeffs

    monkeypatch.setattr(series_module, "_product", perturbed_product)
    with pytest.raises(ConsistencyError):
        assemble_triple(2, 20)
    assert 2 not in series_module._CHECKED
    calls = []

    def counted_product(a, b):
        calls.append(1)
        return honest_product(a, b)

    monkeypatch.setattr(series_module, "_product", counted_product)
    assert assemble_triple(2, 10) == honest
    assert len(calls) == 2  # the check's products at k = 2 (test_check_forms_each_power_of_g_once)
    calls.clear()
    assemble_triple(2, 7)
    assert calls == []  # answered by the triple just checked


def test_a_float_order_is_refused_with_a_triple_kept():
    for kept in (False, True):
        if kept:
            assemble_triple(1, 3)
        for order in (3.0, 2.0):
            with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
                assemble_triple(1, order)
    assert assemble_triple(1, True).f == (1, 1)  # a bool is the integer it is, as before


def test_at_most_four_slopes_are_kept():
    """The least recently used slope goes first once a fifth is kept."""
    for k in range(1, 51):
        assemble_triple(k, 3)
    assert list(series_module._CHECKED) == [47, 48, 49, 50]
    assemble_triple(47, 2)  # used again, so no longer the least recent
    assemble_triple(51, 3)
    assert list(series_module._CHECKED) == [49, 50, 47, 51]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_series_count_region_paths_by_last_step(k):
    """F, FD and FE are the paths DP's counts at the corners (n, kn): evidence
    for F and FE that does not start from FD."""
    n_max = 25
    triple = assemble_triple(k, n_max)
    for name, last in (("f", None), ("fd", "D"), ("fe", "E")):
        columns = spec_counts(family_spec("h", n_max, k * n_max, region_k=k, last_step=last))
        got = [column[k * n] for n, column in enumerate(columns)]
        assert got == list(getattr(triple, name)), name


def _fd_by_full_substitution(k, order):
    """The N+1-round fixed-point iteration, each round a full substitution."""
    fd = [0] * (order + 1)
    for _ in range(order + 1):
        g = [1, *fd[1:]]
        high, low = _power(g, k + 1), [0, *_power(g, 2 * k - 1)]  # G^(k+1), x G^(2k-1)
        fd = [0, *(a - b for a, b in zip(high, low))][: order + 1]  # x (G^(k+1) - x G^(2k-1))
    return tuple(fd)


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
    """The solver never calls the product kernel; only its final check does."""
    honest_product = series_module._product

    def perturbed_product(a, b):
        coeffs = honest_product(a, b)
        coeffs[3] += 1
        return coeffs

    monkeypatch.setattr(series_module, "_product", perturbed_product)
    with pytest.raises(ConsistencyError):
        solve_fd(2, 8)


def test_inexact_divisions_raise(monkeypatch):
    # (1 + x + x^2)^2 starts 1, 2, 3; a stored prefix 1, 1 is not that power
    with pytest.raises(ConsistencyError):
        series_module._miller_next([1, 1, 1], [1, 1], 2)
    # closed_k2(4)'s F walks 143, -120, 21, the last step -120 * -84 / 480; -119 leaves a remainder
    exact = counting_module._exact

    def perturbed(num, den, what, *parts):
        return exact(num, den, what, *parts) + (what.format(*parts) == "closed_k2(4) F term 1")

    assert closed_k2(4) == (44, 22)
    monkeypatch.setattr(counting_module, "_exact", perturbed)
    with pytest.raises(ConsistencyError, match=r"closed_k2\(4\) F term 2 is not an integer"):
        closed_k2(4)
