"""The command line contract: outputs, exit codes, JSON stability."""

from __future__ import annotations

import json
import sys
import tracemalloc

import pytest

import delannoy.bijections as bijections_module
import delannoy.cli as cli_module
import delannoy.conjectures as conjectures_module
import delannoy.counting as counting_module
import delannoy.series as series_module
from delannoy import assemble_triple, h_closed
from delannoy.cli import _BFILE_SEQUENCES, DEFAULT_BUDGET, main
from delannoy.counting import _dp_cost, family_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------- count ----------


def test_count_h_all_methods(capsys):
    code, out, _ = run(capsys, "count", "h", "2", "2", "--method", "all")
    assert code == 0
    assert out.splitlines()[0] == "3"
    assert "dp: 3" in out and "closed: 3" in out and "bruteforce: 3" in out


@pytest.mark.parametrize(
    "family,args,expected",
    [
        ("delannoy", ("3", "3"), "63"),
        ("h", ("2", "2"), "3"),
        ("b", ("2", "2"), "5"),
        ("a", ("1", "1"), "1"),
        ("b", ("0", "0"), "1"),
    ],
)
def test_count_families(capsys, family, args, expected):
    code, out, _ = run(capsys, "count", family, *args)
    assert code == 0
    assert out.splitlines()[0] == expected


def test_count_schroeder(capsys):
    code, out, _ = run(capsys, "count", "schroeder", "2", "--k", "1")
    assert (code, out.splitlines()[0]) == (0, "6")
    code, out, _ = run(capsys, "count", "schroeder-rect", "1", "2", "--k", "1")
    assert (code, out.splitlines()[0]) == (0, "4")
    code, out, _ = run(capsys, "count", "schroeder-rect", "3", "2", "--k", "1", "--method", "all")
    assert (code, out.splitlines()[0]) == (0, "0")


@pytest.fixture
def default_int_str_limit():
    """Python's default 4300-digit limit on int <-> str (3.11+), which main lifts."""
    if not hasattr(sys, "set_int_max_str_digits"):  # 3.10 has no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_count_prints_a_count_past_4300_digits(capsys, default_int_str_limit):
    code, out, _ = run(capsys, "count", "schroeder", "5000", "--k", "2", "--format", "json")
    assert code == 0
    value = json.loads(out)["result"]["value"]
    assert value == counting_module.schroeder_count(5000, 2) and len(str(value)) > 4300


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "h", "2")[0] == 1  # missing m
    assert run(capsys, "count", "schroeder", "2", "3")[0] == 1  # extra m
    assert run(capsys, "count", "h", "2", "2", "--method", "nope")[0] == 1
    assert run(capsys, "count", "nosuch", "1", "1")[0] == 1
    assert run(capsys, "count", "delannoy", "-1", "4")[0] == 1
    assert run(capsys, "count", "delannoy", "2", "2", "--method", "dp")[0] == 1


def test_count_schroeder_names_a_bad_slope_before_its_corner(capsys):
    # the slope sets schroeder's corner (n, kn), so it is checked first
    code, out, err = run(capsys, "count", "schroeder", "3", "--k", "-1")
    assert (code, out) == (1, "") and "slope k must be a positive integer, got -1" in err
    code, out, err = run(capsys, "count", "schroeder", "-1")
    assert (code, out) == (1, "") and "corner coordinates must be nonnegative, got (-1, -1)" in err


@pytest.mark.parametrize("family", ["delannoy", "h", "b", "a"])
def test_count_refuses_a_slope_without_a_region(capsys, family):
    # h in y >= 2x at (4, 8) is 44 (assemble_triple(2, 4).f[4]); unrestricted it is 180
    code, out, err = run(capsys, "count", family, "4", "8", "--k", "2")
    assert (code, out) == (1, "")
    assert "schroeder and schroeder-rect" in err
    assert run(capsys, "count", family, "4", "8", "--k", "1")[0] == 1
    code, out, _ = run(capsys, "count", family, "4", "8", "--format", "json")
    assert code == 0 and json.loads(out)["parameters"]["k"] == 1


def test_count_mutation_trips_cross_check(capsys, monkeypatch):
    monkeypatch.setattr(counting_module, "h_closed", lambda n, m: 999)
    code, _, err = run(capsys, "count", "h", "2", "2", "--method", "all")
    assert code == 2
    assert "disagree" in err


@pytest.mark.parametrize(
    "family,n,m,attr",
    [
        ("delannoy", "2", "2", "delannoy_count"),
        ("b", "2", "2", "b_closed"),
        ("a", "2", "2", "b_closed"),
        ("schroeder", "2", None, "schroeder_count"),
        ("schroeder-rect", "2", "3", "schroeder_rect_count"),
    ],
)
def test_count_mutations_per_family(capsys, monkeypatch, family, n, m, attr):
    monkeypatch.setattr(counting_module, attr, lambda *a, **kw: 999)
    argv = ["count", family, n] + ([m] if m else []) + ["--method", "all"]
    code, _, err = run(capsys, *argv)
    assert code == 2, (family, err)


# ---------- enum ----------


def test_enum_words_output(capsys):
    code, out, _ = run(capsys, "enum", "--target", "2", "2", "--avoid", "NE,EN")
    assert code == 0
    assert out == "EDN\nNDE\nDD\n"


def test_enum_empty_path(capsys):
    code, out, _ = run(capsys, "enum", "--target", "0", "0")
    assert (code, out) == (0, "\n")


def test_enum_with_no_path_prints_no_line(capsys):
    argv = ("enum", "--target", "1", "1", "--avoid", "E,N,D")
    assert run(capsys, *argv) == (0, "", "")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)["result"] == {"count": 0, "words": []}


def test_enum_region_and_aug(capsys):
    code, out, _ = run(capsys, "enum", "--target", "1", "2", "--region", "1")
    assert code == 0
    assert out.split() == ["NEN", "NNE", "ND", "DN"]
    code, out, _ = run(capsys, "enum", "--target", "1", "1", "--avoid-aug", "D,EENN")
    assert out.split() == ["NE"]


def test_enum_errors(capsys):
    code, _, err = run(capsys, "enum", "--target", "-1", "2")
    assert code == 1
    code, _, err = run(capsys, "enum", "--target", "40", "40")
    assert code == 1 and "budget" in err
    assert run(capsys, "enum", "--target", "2", "2", "--avoid", "NX")[0] == 1
    assert run(capsys, "enum", "--target", "2", "2", "--region", "0")[0] == 1


def test_long_walks_have_no_depth_limit(capsys):
    code, out, _ = run(capsys, "enum", "--target", "0", "1500")
    assert (code, out) == (0, "N" * 1500 + "\n")
    code, out, _ = run(capsys, "count", "b", "1500", "0", "--method", "bruteforce")
    assert (code, out) == (0, "1\n")


def test_budget_boundary_is_the_walk_prefix_count(capsys):
    # the walk to (8, 8) pushes 731281 prefixes, the empty word included
    assert run(capsys, "enum", "--target", "8", "8", "--budget", "731281")[0] == 0
    code, _, err = run(capsys, "enum", "--target", "8", "8", "--budget", "731280")
    assert code == 1 and "budget" in err
    region = ("enum", "--target", "3", "6", "--region", "2", "--budget")
    assert run(capsys, *region, "179")[0] == 0
    code, _, err = run(capsys, *region, "178")
    assert code == 1 and "budget" in err


def test_budget_charges_a_d_free_walk_its_prefixes(capsys):
    # the walker never tries a D step here: 48619 North-East prefixes
    assert run(capsys, "enum", "--target", "8", "8", "--avoid", "D", "--budget", "48619")[0] == 0
    code, _, err = run(capsys, "enum", "--target", "8", "8", "--avoid", "D", "--budget", "48618")
    assert code == 1 and "budget" in err
    # the same for D forbidden in the augmented path, and in the region y >= 2x
    aug = ("enum", "--target", "3", "6", "--avoid-aug", "D", "--region", "2", "--budget")
    assert run(capsys, *aug, "56")[0] == 0
    assert run(capsys, *aug, "55")[0] == 1


def test_a_walk_the_family_size_undercharged_is_refused(capsys):
    # D(2, 300) = 180601 paths, but the walk pushes 18271603 prefixes
    code, out, err = run(capsys, "enum", "--target", "2", "300")
    assert (code, out) == (1, "") and "budget" in err


def test_a_count_whose_table_exceeds_the_budget_is_refused(capsys):
    # 10^7 cells x 21 states; the walk would push a few hundred prefixes
    code, out, err = run(capsys, "enum", "--target", "1", "4999999", "--avoid", "N" * 20)
    assert (code, out) == (1, "") and "budget" in err
    # a grid of more cells than the budget is refused, whatever the walk prunes
    code, out, err = run(capsys, "enum", "--target", "0", "10000000", "--avoid", "NN")
    assert (code, out) == (1, "") and "budget" in err


def test_dp_budget_boundary_is_cells_times_states(capsys):
    # at (2, 2): 9 cells x 3 states for h, x 4 for b; a's DP builds b's table and h's
    for family, charge in (("h", 27), ("b", 36), ("a", 63)):
        assert run(capsys, "count", family, "2", "2", "--budget", str(charge))[0] == 0
        code, out, err = run(capsys, "count", family, "2", "2", "--budget", str(charge - 1))
        assert (code, out) == (1, "") and "budget" in err
    code, out, err = run(capsys, "count", "h", "100000", "100000")
    assert (code, out) == (1, "") and "budget" in err
    assert run(capsys, "count", "h", "800", "800")[0] == 0  # 1924803 < 10^7
    assert run(capsys, "count", "h", "2", "2", "--method", "closed", "--budget", "0")[0] == 0


@pytest.mark.parametrize("argv,partner", [
    (("count", "h", "3", "3", "--method", "dp"), 0),
    (("count", "b", "3", "3", "--method", "dp"), 0),
    (("count", "a", "3", "3", "--method", "dp"), 0),
    (("bfile", "h-diag", "--order", "3"), 0),
    (("conjecture", "1", "--max-n", "4"), 36),  # its partner table: (n+2)^2 cells
    (("conjecture", "2", "--max-n", "4"), 118),  # its partner table: (n+2)^4 (n+7) // 120 multiply-adds
], ids=["count-h", "count-b", "count-a", "bfile-h-diag", "conjecture-1", "conjecture-2"])
def test_dp_that_runs_is_the_dp_charged(capsys, monkeypatch, argv, partner):
    """Every DP table a command builds is charged: the cells x states of the
    tables ``_state_columns`` runs are the DP part of the least admitted budget."""
    built, state_columns = [], counting_module._state_columns

    def counted(spec, automaton):
        built.append((spec.target[0] + 1) * (spec.target[1] + 1) * automaton[0])
        return state_columns(spec, automaton)

    monkeypatch.setattr(counting_module, "_state_columns", counted)
    assert run(capsys, *argv)[0] == 0 and built
    charge = sum(built) + partner
    assert run(capsys, *argv, "--budget", str(charge))[0] == 0
    code, out, err = run(capsys, *argv, "--budget", str(charge - 1))
    assert (code, out) == (1, "") and "budget" in err


def test_count_all_is_charged_every_route_summed_before_any_runs(capsys, monkeypatch):
    # at (3, 3): the DP's 16 cells x 3 states, plus the walk's 40 prefixes; the closed form is free
    argv = ("count", "h", "3", "3", "--method", "all", "--budget")
    assert run(capsys, *argv, "88") == (0, "9\n  dp: 9\n  closed: 9\n  bruteforce: 9\n", "")
    for module, route in ((counting_module, "h_dp"), (counting_module, "h_closed"), (cli_module, "count_bruteforce")):
        monkeypatch.setattr(module, route, lambda *a: pytest.fail(f"{route} ran"))
    code, out, err = run(capsys, *argv, "87")
    assert (code, out) == (1, "") and "exceeds budget 87" in err


def test_walk_charge_stops_at_what_the_earlier_routes_left(capsys, monkeypatch):
    # a's DP is charged 9929367 of the default 10^7, so the walk's count stops at its first
    # column past the 70633 left: 1191 + 708647 prefixes, not a third column of 280863206
    totals, state_columns = [], counting_module._state_columns

    def counted(spec, automaton):
        for col in state_columns(spec, automaton):
            totals.append(sum(map(sum, filter(None, col))))
            yield col

    monkeypatch.setattr(counting_module, "_state_columns", counted)
    code, out, err = run(capsys, "count", "a", "1190", "1190", "--method", "all")
    assert (code, out) == (1, "") and "exceeds budget 10000000" in err
    assert totals == [1191, 708647]


def test_a_pattern_longer_than_any_word_costs_nothing(capsys):
    plain = run(capsys, "enum", "--target", "1", "1")
    assert plain[0] == 0
    assert run(capsys, "enum", "--target", "1", "1", "--avoid", "N" * 5000) == plain


def test_negative_budget_is_a_usage_error(capsys):
    for argv in (("enum", "--target", "1", "1"), ("verify", "pi"), ("conjecture", "1")):
        code, out, err = run(capsys, *argv, "--budget", "-5")
        assert (code, out) == (1, "") and "--budget" in err
    assert run(capsys, "enum", "--target", "1", "1", "--budget", "0")[0] == 1  # the root is one prefix
    assert run(capsys, "enum", "--target", "1", "1", "--budget", "1")[0] == 1
    assert run(capsys, "enum", "--target", "0", "0", "--budget", "1") == (0, "\n", "")


def test_huge_enumeration_is_refused_without_counting_it(capsys):
    code, _, err = run(capsys, "enum", "--target", "20000", "20000")
    assert code == 1 and "budget" in err


def test_enum_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "enum", "--target", "1", "1", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)
    assert record["command"] == "enum"
    assert record["result"]["words"] == ["EN", "NE", "D"]
    assert record["result"]["count"] == 3
    assert out == json.dumps(record, indent=2) + "\n"
    assert list(record) == ["command", "parameters", "result"]


# ---------- map ----------


def test_map_outputs(capsys):
    assert run(capsys, "map", "pi", "ENNEENNNENEEN")[1] == "ENDENNDDEN\n"
    assert run(capsys, "map", "delta", "ENDENNDDEN")[1] == "ENNEENNNENEEN\n"
    assert run(capsys, "map", "tau", "EN")[1] == "\n"
    assert run(capsys, "map", "tau-inv", "")[1] == "EN\n"


def test_map_json(capsys):
    code, out, _ = run(capsys, "map", "tau", "ENNEEN", "--format", "json")
    record = json.loads(out)
    assert (code, record["result"]["word"]) == (0, "NEEN")
    assert record["result"]["end"] == [2, 2]
    assert out == json.dumps(record, indent=2) + "\n"


def test_map_errors(capsys):
    assert run(capsys, "map", "pi", "END")[0] == 1  # has a diagonal
    assert run(capsys, "map", "tau", "NEN")[0] == 1  # not in the domain
    assert run(capsys, "map", "pi", "ENX")[0] == 1  # parse error
    assert run(capsys, "map", "sigma", "EN")[0] == 1  # unknown map


# ---------- series ----------


def test_series_text_output(capsys):
    code, out, _ = run(capsys, "series", "F", "--k", "2", "--order", "7")
    assert (code, out) == (0, "1 1 3 11 44 186 818 3706\n")
    code, out, _ = run(capsys, "series", "FD", "--k", "3", "--order", "7")
    assert (code, out) == (0, "0 1 3 13 67 380 2288 14351\n")


def test_series_all_with_closed_check(capsys):
    code, out, _ = run(
        capsys, "series", "all", "--k", "1", "--order", "7", "--check-closed"
    )
    assert code == 0
    assert "F: 1 1 2 5 13 35 97 275" in out
    assert "FD: 0 1 1 2 5 13 35 97" in out
    assert "FE: 0 0 1 3 8 22 62 178" in out


def test_series_check_closed_k2(capsys):
    assert run(capsys, "series", "F", "--k", "2", "--order", "10", "--check-closed")[0] == 0


def test_series_usage_errors(capsys):
    code, _, err = run(capsys, "series", "F", "--k", "3", "--order", "5", "--check-closed")
    assert code == 1 and "closed form" in err
    assert run(capsys, "series", "F", "--k", "0")[0] == 1
    assert run(capsys, "series", "F", "--order", "-2")[0] == 1
    assert run(capsys, "series", "G")[0] == 1


def test_series_check_closed_mutation(capsys, monkeypatch):
    monkeypatch.setattr(series_module, "closed_k1", lambda n: (0, 0, 0))
    code, _, err = run(capsys, "series", "F", "--k", "1", "--order", "4", "--check-closed")
    assert code == 2 and "mismatch" in err


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "FE", "--k", "1", "--order", "5", "--format", "json")
    record = json.loads(out)
    assert record["result"]["coefficients"]["FE"] == [0, 0, 1, 3, 8, 22]
    assert out == json.dumps(record, indent=2) + "\n"


# ---------- verify ----------


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "3", "--max-m", "3")
    assert code == 0
    assert "all 41 cases ok" in out


def test_verify_pi_with_region(capsys):
    code, out, _ = run(capsys, "verify", "pi", "--max-n", "3", "--k", "2")
    assert code == 0


def test_verify_tau_includes_degenerate_corner(capsys):
    code, out, _ = run(capsys, "verify", "tau", "--max-n", "1", "--max-m", "1")
    assert code == 0
    assert "tau (1,1): ok (domain 1, codomain 1)" in out  # EN -> empty path


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "tau", "--max-n", "2", "--k", "1")[0] == 1
    assert run(capsys, "verify", "pi", "--max-n", "-1")[0] == 1
    code, _, err = run(capsys, "verify", "pi", "--max-n", "12", "--budget", "1000")
    assert code == 1 and "budget" in err


def test_verify_budget_charges_each_walk(capsys, monkeypatch):
    """Each case is charged its domain and codomain walks, before any is walked."""
    # tau at (1,1) walks b, which forbids D: the 5 prefixes of the walk to
    # (1,1) and the 1 of the walk to the shifted corner (0,0), 6 in all; but
    # the count of the first has a table of 4 cells x 2 states (D's matcher;
    # EENN is longer than any word there), and a table past the budget is refused
    assert run(capsys, "verify", "tau", "--max-n", "1", "--budget", "8")[0] == 0
    assert run(capsys, "verify", "tau", "--max-n", "1", "--budget", "7")[0] == 1
    walked = []
    monkeypatch.setattr(bijections_module, "verify_bijection", lambda *a, **kw: walked.append(a))
    code, _, err = run(capsys, "verify", "all", "--max-n", "12", "--k", "3")
    assert code == 1 and "exceeds budget 10000000" in err
    assert walked == []


def test_verify_charge_stops_listing_cases_at_the_first_past_the_budget(capsys, monkeypatch):
    # the grid holds 271202 cases; the charge refuses after the first few
    # dozen, so a huge --max-n is refused without holding every case
    listed, cases = [], cli_module._verify_cases
    monkeypatch.setattr(cli_module, "_verify_cases", lambda *a: (listed.append(c) or c for c in cases(*a)))
    code, out, err = run(capsys, "verify", "all", "--max-n", "300", "--budget", "1000")
    assert (code, out) == (1, "") and "budget" in err
    assert 0 < len(listed) < 100


def test_verify_all_to_ten_passes_the_default_budget(capsys, monkeypatch):
    # its walks push 3711199 prefixes in all; the walks themselves are stubbed out
    report = bijections_module.BijectionReport(1, 1, True, True, True)
    monkeypatch.setattr(bijections_module, "verify_bijection", lambda *a, **kw: report)
    code, out, _ = run(capsys, "verify", "all", "--max-n", "10")
    assert code == 0 and out.endswith("all 342 cases ok\n")
    code, _, err = run(capsys, "verify", "all", "--max-n", "10", "--budget", "3711198")
    assert code == 1 and "budget" in err


def test_verify_all_to_nine_fits_the_default_budget(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "9")
    assert code == 0 and out.endswith("all 281 cases ok\n")


def test_verify_grid_with_no_case_is_refused(capsys):
    # tau's cases start at corner (1, 1); a grid without it verifies nothing
    for bounds in (("--max-n", "0"), ("--max-n", "3", "--max-m", "0")):
        code, out, err = run(capsys, "verify", "tau", *bounds)
        assert (code, out) == (1, "") and "(1, 1)" in err
    assert run(capsys, "verify", "all", "--max-n", "0")[0] == 0  # pi and delta at (0, 0)


def test_verify_reads_each_case_from_the_map_table(capsys, monkeypatch):
    # one more entry in the table is one more map to verify, under every command that reads it
    monkeypatch.setitem(cli_module._MAPS, "pi-again", ("pi_map", ("a", "h", 0, None, True)))
    code, out, _ = run(capsys, "verify", "all", "--max-n", "1")
    assert code == 0 and out.endswith("all 13 cases ok\n")  # 4 corners each for pi, delta, pi-again; 1 for tau
    assert "pi-again (1,1): ok (domain 1, codomain 1)" in out
    code, out, _ = run(capsys, "verify", "pi-again", "--max-n", "1", "--k", "1")
    assert code == 0 and out.endswith("all 4 cases ok\n")
    assert run(capsys, "map", "pi-again", "NE")[1] == "D\n"


def test_verify_mutation_fails_with_witnesses(capsys, monkeypatch):
    monkeypatch.setattr(bijections_module, "pi_map", lambda p: p)
    code, _, err = run(capsys, "verify", "pi", "--max-n", "2", "--max-m", "2")
    assert code == 2
    assert "failed" in err


# ---------- conjecture ----------


def test_conjecture_commands(capsys):
    code, out, _ = run(capsys, "conjecture", "1", "--max-n", "4")
    assert code == 0
    assert "agree" in out
    code, out, _ = run(capsys, "conjecture", "2", "--max-n", "4")
    assert code == 0
    assert "n=4: paths 22, partner 22 ==" in out


def test_conjecture_json(capsys):
    code, out, _ = run(capsys, "conjecture", "2", "--max-n", "3", "--format", "json")
    record = json.loads(out)
    assert record["result"]["verdict"] is True
    assert record["result"]["rows"][2] == {"n": 3, "paths": 6, "partner": 6}
    assert out == json.dumps(record, indent=2) + "\n"


def test_conjecture_mutation(capsys, monkeypatch):
    monkeypatch.setattr(conjectures_module, "inversion_102_counts", lambda n_max: [0] * (n_max + 1))
    code, out, err = run(capsys, "conjecture", "2", "--max-n", "3")
    assert code == 2 and "disagree" in err


def test_conjecture1_mutation(capsys, monkeypatch):
    monkeypatch.setattr(conjectures_module, "no_symmetric_peak_counts", lambda n_max: [0] * (n_max + 1))
    code, out, err = run(capsys, "conjecture", "1", "--max-n", "3")
    assert code == 2 and "disagree" in err


def test_conjecture_checks_never_call_the_oracles(capsys, monkeypatch):
    for oracle in ("count_inversion_102", "count_catalan_no_symmetric_peak"):
        monkeypatch.setattr(conjectures_module, oracle, lambda n: pytest.fail("oracle called"))
    for which in ("1", "2"):
        assert run(capsys, "conjecture", which, "--max-n", "9")[0] == 0


def test_conjecture_budget_counts_its_path_dp_and_its_partner(capsys, monkeypatch):
    # each side is one table for every size, charged once: the path DP's cells x
    # 4 states, plus conjecture 1's (n+2)^2 partner cells or conjecture 2's
    # (n+2)^4 (n+7) // 120 partner multiply-adds
    code, out, _ = run(capsys, "conjecture", "1", "--max-n", "500")
    assert code == 0 and out.endswith("agree\n")
    code, out, _ = run(capsys, "conjecture", "2", "--max-n", "30")
    assert code == 0 and out.endswith("agree\n")
    for which, charge in (("1", 136), ("2", 298)):  # at --max-n 4: 25 x 4 + 36 and 45 x 4 + 118
        assert run(capsys, "conjecture", which, "--max-n", "4", "--budget", str(charge))[0] == 0
        code, _, err = run(capsys, "conjecture", which, "--max-n", "4", "--budget", str(charge - 1))
        assert code == 1 and "budget" in err
    monkeypatch.setattr(conjectures_module, "_check", lambda *a: pytest.fail("checked"))
    with pytest.raises(pytest.fail.Exception, match="checked"):  # 1414^2 x 4 + 1415^2 = 9999809, admitted
        run(capsys, "conjecture", "1", "--max-n", "1413")
    for which, n_max in (("1", "1414"), ("2", "1000000")):
        code, _, err = run(capsys, "conjecture", which, "--max-n", n_max)
        assert code == 1 and "exceeds budget 10000000" in err


def test_conjecture_usage(capsys):
    assert run(capsys, "conjecture", "3")[0] == 1
    assert run(capsys, "conjecture", "1", "--max-n", "0")[0] == 1


# ---------- bfile ----------


def test_bfile_h_diag(capsys):
    code, out, _ = run(capsys, "bfile", "h-diag", "--order", "4")
    assert code == 0
    assert out == "0 1\n1 1\n2 3\n3 9\n4 27\n"


def test_bfile_series_sequences(capsys):
    code, out, _ = run(capsys, "bfile", "F1", "--order", "7")
    assert out.splitlines()[-1] == "7 275"
    code, out, _ = run(capsys, "bfile", "FD2", "--order", "7")
    assert out.splitlines() == ["0 0", "1 1", "2 2", "3 6", "4 22", "5 89", "6 381", "7 1694"]
    code, out, _ = run(capsys, "bfile", "FE1", "--order", "5")
    assert out.splitlines() == ["0 0", "1 0", "2 1", "3 3", "4 8", "5 22"]
    code, out, _ = run(capsys, "bfile", "FD3", "--order", "3")
    assert out == "0 0\n1 1\n2 3\n3 13\n"


def test_bfile_reaches_high_order(capsys):
    code, out, _ = run(capsys, "bfile", "FD3", "--order", "300")
    rows = out.splitlines()
    assert code == 0 and len(rows) == 301
    assert rows[60] == f"60 {assemble_triple(3, 60).fd[60]}"


def test_bfile_h_diag_streams_the_table():
    """h-diag reads each checked column as it passes: it never holds the
    (order+1)^2 table (1.9 MB under tracemalloc at order 120 when it did)."""
    tracemalloc.start()
    try:
        _, sequence = _BFILE_SEQUENCES["h-diag"]
        values = sequence(120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values[:5] == [1, 1, 3, 9, 27] and values[120] == h_closed(120, 120)
    assert peak < 500_000


def test_bfile_h_diag_budget_boundary_is_cells_times_states(capsys):
    # at order 2: 9 cells x h's 3 states, charged before any column is built
    assert run(capsys, "bfile", "h-diag", "--order", "2", "--budget", "27")[0] == 0
    code, out, err = run(capsys, "bfile", "h-diag", "--order", "2", "--budget", "26")
    assert (code, out) == (1, "") and "budget" in err
    code, out, err = run(capsys, "bfile", "h-diag", "--order", "100000")
    assert (code, out) == (1, "") and "budget" in err
    assert _dp_cost(family_spec("h", 1500, 1500)) == 6_759_003 and 6_759_003 <= DEFAULT_BUDGET  # admitted
    for sequence in ("F1", "FD2", "FE1", "FD3"):  # the series sequences are not charged
        assert run(capsys, "bfile", sequence, "--order", "3", "--budget", "0")[0] == 0


def test_bfile_usage(capsys):
    assert run(capsys, "bfile", "nosuch")[0] == 1
    assert run(capsys, "bfile", "F1", "--order", "-1")[0] == 1


# ---------- global ----------


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# One mutation per command that cross-checks routes: (module, attribute, mutant, argv).
EXIT_2_MUTATIONS = {
    "count": (counting_module, "h_closed", lambda n, m: 999, ("count", "h", "2", "2", "--method", "all")),
    "series": (series_module, "closed_k1", lambda n: (0, 0, 0),
               ("series", "F", "--k", "1", "--order", "4", "--check-closed")),
    "verify": (bijections_module, "pi_map", lambda p: p, ("verify", "pi", "--max-n", "2", "--max-m", "2")),
    "conjecture": (conjectures_module, "inversion_102_counts", lambda n_max: [0] * (n_max + 1),
                   ("conjecture", "2", "--max-n", "3")),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("module,name,mutant,argv", EXIT_2_MUTATIONS.values(), ids=EXIT_2_MUTATIONS)
def test_exit_2_prints_nothing_on_stdout(capsys, monkeypatch, module, name, mutant, argv, fmt):
    monkeypatch.setattr(module, name, mutant)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert err.startswith("cross-check mismatch:")


def test_json_key_order_is_stable(capsys):
    code, out1, _ = run(capsys, "count", "h", "3", "3", "--format", "json")
    code, out2, _ = run(capsys, "count", "h", "3", "3", "--format", "json")
    assert out1 == out2
    assert out1.index('"command"') < out1.index('"parameters"') < out1.index('"result"')