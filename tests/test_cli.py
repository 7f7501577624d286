"""The command line contract: outputs, exit codes, JSON stability."""

from __future__ import annotations

import json

import pytest

import delannoy.bijections as bijections_module
import delannoy.conjectures as conjectures_module
import delannoy.counting as counting_module
import delannoy.series as series_module
from delannoy import assemble_triple, schroeder_rect_count
from delannoy.cli import main


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


def test_count_usage_errors(capsys):
    assert run(capsys, "count", "h", "2")[0] == 1  # missing m
    assert run(capsys, "count", "schroeder", "2", "3")[0] == 1  # extra m
    assert run(capsys, "count", "h", "2", "2", "--method", "nope")[0] == 1
    assert run(capsys, "count", "nosuch", "1", "1")[0] == 1
    assert run(capsys, "count", "delannoy", "-1", "4")[0] == 1
    assert run(capsys, "count", "delannoy", "2", "2", "--method", "dp")[0] == 1


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


def test_budget_boundary_is_the_unpruned_walk_size(capsys):
    # D(8, 8) = 265729 paths to (8, 8)
    assert run(capsys, "enum", "--target", "8", "8", "--budget", "265729")[0] == 0
    code, _, err = run(capsys, "enum", "--target", "8", "8", "--budget", "265728")
    assert code == 1 and "budget" in err
    size = schroeder_rect_count(3, 6, 2)
    region = ("enum", "--target", "3", "6", "--region", "2", "--budget")
    assert run(capsys, *region, str(size))[0] == 0
    code, _, err = run(capsys, *region, str(size - 1))
    assert code == 1 and "budget" in err


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
    monkeypatch.setattr(conjectures_module, "count_inversion_102", lambda n: 0)
    code, out, err = run(capsys, "conjecture", "2", "--max-n", "3")
    assert code == 2 and "disagree" in err


def test_conjecture_budget_counts_only_the_partner(capsys):
    # the path side is a polynomial DP; conjecture 2's partner walks n! sequences
    code, out, _ = run(capsys, "conjecture", "2", "--max-n", "10")
    assert code == 0 and out.endswith("agree\n")
    code, _, err = run(capsys, "conjecture", "2", "--max-n", "11")
    assert code == 1 and "budget" in err
    # conjecture 1's partner is a DP charged (n+2)^4 per size: past the budget from 33 on
    code, out, _ = run(capsys, "conjecture", "1", "--max-n", "32")
    assert code == 0 and out.endswith("agree\n")
    for max_n in ("33", "10000"):
        code, _, err = run(capsys, "conjecture", "1", "--max-n", max_n)
        assert code == 1 and "budget" in err


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


def test_json_key_order_is_stable(capsys):
    code, out1, _ = run(capsys, "count", "h", "3", "3", "--format", "json")
    code, out2, _ = run(capsys, "count", "h", "3", "3", "--format", "json")
    assert out1 == out2
    assert out1.index('"command"') < out1.index('"parameters"') < out1.index('"result"')