"""The paired-bench script's summary reproduces a committed BENCH file's summary."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["gf_orders", "grid_counts", "exhaustive", "cli_oneshot"])
def test_summary_of_bench_26_runs_is_its_summary(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    recorded = json.loads((ROOT / "BENCH_26.json").read_text())["workloads"][workload]
    assert _bench_pairs().summarize(recorded["runs"], better) == recorded["summary"]


def test_seed_ranges():
    parse = _bench_pairs().parse_seeds
    assert parse("2951-2953") == [2951, 2952, 2953]
    assert parse("7") == [7]


def test_one_pair_is_its_own_summary():
    """One seed gives one pair, whose values are each side's three quartiles (Python 3.10
    to 3.12 refuse quartiles of one value)."""
    runs = [{"pair": 0, "seed": 1, "side": side, "metrics": {"wall_s": wall, "ok_ratio": 1.0}}
            for side, wall in (("parent", 0.04), ("change", 0.01))]
    summary = _bench_pairs().summarize(runs, {"wall_s": "lower", "ok_ratio": "higher"})
    assert summary["wall_s"] == {"parent": {"q1": 0.04, "median": 0.04, "q3": 0.04},
                                 "change": {"q1": 0.01, "median": 0.01, "q3": 0.01},
                                 "change_wins": 1, "pairs": 1}
    assert summary["ok_ratio"]["change_wins"] == 0
