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
