"""``agree``, the one comparison of routes, and every site that calls it; and every
exact division, ``counting._exact``, at each of its calls."""

from __future__ import annotations

import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delannoy.conjectures as conjectures_module
import delannoy.counting as counting_module
import delannoy.series as series_module
from delannoy import ConsistencyError, a_count, assemble_triple, closed_k2, delannoy_count, schroeder_rect_count
from delannoy.cli import build_parser
from delannoy.errors import agree

NAMES = st.lists(st.sampled_from(["dp", "closed", "bruteforce", "series", "form 1"]),
                 min_size=2, max_size=3, unique=True)
VALUES = st.one_of(st.integers(), st.lists(st.integers(), min_size=1, max_size=5),
                   st.tuples(st.integers(), st.integers()))


def _message(what: str, values: list, names: list[str]) -> str:
    return f"{what}: {' != '.join(map(str, values))} ({', '.join(names)} disagree)"


@settings(max_examples=200, deadline=None)
@given(st.one_of(VALUES, st.just([])), NAMES)
def test_agree_returns_the_value_every_route_gave(value, names):
    routes = {name: list(value) if isinstance(value, list) else value for name in names}  # equal, not the same
    result = agree("what", routes)
    assert result == value and type(result) is type(value)


@settings(max_examples=200, deadline=None)
@given(VALUES, NAMES, st.data())
def test_agree_names_every_route_and_its_value_where_one_differs(value, names, data):
    bumped = data.draw(st.sampled_from(names))
    at = data.draw(st.integers(0, len(value) - 1)) if isinstance(value, list) else None

    def bump(v):
        if isinstance(v, tuple):
            return (v[0] + 1, *v[1:])
        return v + 1 if at is None else v[:at] + [v[at] + 1] + v[at + 1:]

    routes = {name: bump(value) if name == bumped else value for name in names}
    with pytest.raises(ConsistencyError) as raised:
        agree("what", routes, "x^{}".format)
    if at is None:
        assert str(raised.value) == _message("what", list(routes.values()), names)
    else:  # a sequence is reported at the one position that differs, in its own terms
        assert str(raised.value) == _message(f"what at x^{at}", [v[at] for v in routes.values()], names)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(), max_size=5), st.lists(st.integers(), min_size=1, max_size=3), NAMES, st.data())
def test_agree_refuses_lists_of_unequal_length(prefix, extra, names, data):
    longer = data.draw(st.sampled_from(names))
    routes = {name: prefix + extra if name == longer else list(prefix) for name in names}
    with pytest.raises(ConsistencyError) as raised:
        agree("what", routes)
    shown = [extra[0] if name == longer else "(missing)" for name in names]
    assert str(raised.value) == _message(f"what at [{len(prefix)}]", shown, names)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="Python 3.10 has no int -> str limit")
def test_agree_shows_an_int_too_long_for_str_by_its_size():
    """Under Python's default 4300-digit limit on int -> str, which only the CLI lifts,
    agree still raises ConsistencyError naming every route."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for routes, message in (
            ({"a": 10**5000, "b": 0, "c": -(10**5000)},
             "x: <int of 16610 bits> != 0 != -<int of 16610 bits> (a, b, c disagree)"),
            ({"series": [(1, 2), (3, 10**5000)], "closed": [(1, 2), (3, 4)]},
             "x at [1]: (3, <int of 16610 bits>) != (3, 4) (series, closed disagree)"),
        ):
            with pytest.raises(ConsistencyError) as raised:
                agree("x", routes)
            assert str(raised.value) == message
    finally:
        sys.set_int_max_str_digits(old)


def _cli(*argv):
    def call():
        args = build_parser().parse_args(list(argv))
        args.handler(args)  # a ConsistencyError escapes; main would turn it into exit 2

    return call


def _bump_walk(label):
    """Perturb _term_walk: the sum whose label ends with ``label`` comes out one higher."""
    return lambda honest: lambda first, last, ratio, what: honest(first, last, ratio, what) + what.endswith(label)


def _bump_corner(honest):
    def table(n, m):  # b(n, m) one higher, b(n-1, m-1) as it was
        bt = honest(n, m)
        bt.columns[n][m] += 1
        return bt

    return table


# Every site that compares routes: (module, attribute, perturbation of one route,
# the call, and the message naming each route and its value).
SITES = {
    "cli-count": (counting_module, "h_closed", lambda honest: lambda n, m: 999,
                  _cli("count", "h", "3", "3", "--method", "all"),
                  "count h (3, 3): 9 != 999 != 9 (dp, closed, bruteforce disagree)"),
    "cli-series": (series_module, "closed_k1", lambda honest: lambda n: (5, 2, 4) if n == 3 else honest(n),
                   _cli("series", "F", "--k", "1", "--order", "5", "--check-closed"),
                   "closed form for k=1 at x^3: (5, 2, 3) != (5, 2, 4) (series, closed disagree)"),
    "cli-conjecture": (conjectures_module, "inversion_102_counts",
                       lambda honest: lambda n_max: [c + (n == 3) for n, c in enumerate(honest(n_max))],
                       _cli("conjecture", "2", "--max-n", "4"),
                       "conjecture 2 at n=3: 6 != 7 (paths, partner disagree)"),
    "delannoy_count": (counting_module, "_term_walk", _bump_walk("by binomials"), lambda: delannoy_count(3, 3),
                       "delannoy_count(3, 3): 63 != 64 (by diagonals, by binomials disagree)"),
    "schroeder_rect_count": (counting_module, "_term_walk", _bump_walk("form 1"),
                             lambda: schroeder_rect_count(3, 3, 1),
                             "schroeder_rect_count(3, 3, k=1): 23 != 22 (form 1, form 2 disagree)"),
    "a_count-h": (counting_module, "h_dp", lambda honest: lambda n, m: honest(n, m) + 1, lambda: a_count(3, 3),
                  "a_count(3, 3): 9 != 10 (b table, h dp disagree)"),
    "a_count-b": (counting_module, "b_table", _bump_corner, lambda: a_count(3, 3),
                  "a_count(3, 3): 10 != 9 (b table, h dp disagree)"),
    # a P-recurrence whose last step (k = 2) is off by one stays integral, so only the
    # substitution check catches it
    "assemble_triple": (series_module, "_recurrence_next",
                        lambda honest: lambda polys, g: honest(polys, g) + (len(g) == 6),
                        lambda: assemble_triple(2, 6),
                        "fixed point for k=2 not stable to order 6 at x^6: 382 != 381 (solved, substituted disagree)"),
}


@pytest.mark.parametrize("module,name,perturb,call,message", SITES.values(), ids=SITES)
def test_every_site_names_each_route_and_its_value(monkeypatch, module, name, perturb, call, message):
    call()  # honest routes agree
    series_module._CHECKED.clear()  # or the checked triple would answer the perturbed call
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    with pytest.raises(ConsistencyError) as raised:
        call()
    assert str(raised.value) == message


# Every call of counting._exact: (module, attribute, perturbation that leaves a remainder
# there, the call, and the message).  A call whose own arguments leave one perturbs nothing.
# A floor division in its place would return a number and pass.
EXACT_SITES = {
    "term-walk": (None, None, None, lambda: counting_module._term_walk(1, 1, lambda i: (1, 2), "walk"),
                  "walk term 1 is not an integer: remainder 1 mod 2"),
    "schroeder-form-1-term-0": (counting_module, "math",
                                lambda honest: SimpleNamespace(comb=lambda n, k: honest.comb(n, k) + 1),
                                lambda: schroeder_rect_count(1, 1, 1),
                                "schroeder_rect_count(1, 1, k=1) form 1 term 0 is not an integer: remainder 1 mod 2"),
    "schroeder-form-2": (counting_module, "_term_walk", _bump_walk("form 2"), lambda: schroeder_rect_count(2, 2, 1),
                         "schroeder_rect_count(2, 2, k=1) form 2 is not an integer: remainder 1 mod 2"),
    "miller": (None, None, None, lambda: series_module._miller_next([1, 1, 1], [1, 1], 2),
               "coefficient 2 of (1+FD)^2 is not an integer: remainder 1 mod 2"),  # 5 / 2
    "recurrence": (None, None, None, lambda: series_module._recurrence_next(((1,), (2,)), [1]),
                   "coefficient 1 of 1+FD is not an integer: remainder 1 mod 2"),  # -1 / 2
    "closed-k2-F-term-0": (series_module, "binomial", lambda honest: lambda n, k: honest(n, k) + 1,
                           lambda: closed_k2(1), "closed_k2(1) F term 0 is not an integer: remainder 1 mod 2"),
    "closed-k2-FD-term-0": (series_module, "binomial", lambda honest: lambda n, k: honest(n, k) + (n == 3 * k + 3),
                            lambda: closed_k2(2), "closed_k2(2) FD term 0 is not an integer: remainder 1 mod 2"),
}


@pytest.mark.parametrize("module,name,perturb,call,message", EXACT_SITES.values(), ids=EXACT_SITES)
def test_every_exact_division_refuses_a_remainder(monkeypatch, module, name, perturb, call, message):
    if perturb is not None:
        call()  # exact when honest
        monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    with pytest.raises(ConsistencyError) as raised:
        call()
    assert str(raised.value) == message
