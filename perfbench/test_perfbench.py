"""Self-tests for the benchmark harness: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from delannoy import counting  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_job_list(workload):
    assert gen.generate(workload, 7, 0) == gen.generate(workload, 7, 0)
    assert gen.generate(workload, 7, 1) == gen.generate(workload, 7, 1)
    assert gen.generate(workload, 7, 0) != gen.generate(workload, 8, 0)
    assert gen.generate(workload, 7, 0) != gen.generate(workload, 7, 1)


def test_job_lists_do_not_depend_on_the_hash_seed():
    code = f"import sys; sys.path.insert(0, {str(BENCH)!r}); import gen; " + (
        "print(repr([gen.generate(w, 3, 2) for w in gen.WORKLOADS]))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_list_shape_is_fixed(workload):
    sizes = {len(gen.generate(workload, seed, 0)) for seed in range(5)}
    assert len(sizes) == 1


def test_tail_percentile_leaves_ten_jobs_beyond():
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(408) == 95.0
    assert run.tail_percentile(1000) == 99.0
    assert run.tail_percentile(20) == 50.0
    for n in range(20, 3000, 7):
        p = run.tail_percentile(n)
        ranked = sorted(range(n))
        beyond = n - 1 - ranked.index(run.nearest_rank(ranked, p))
        assert beyond >= 10, (n, p)
        higher = [q for q in run.TAIL_LADDER if q > p]
        if higher:
            q = min(higher)
            assert n - 1 - ranked.index(run.nearest_rank(ranked, q)) < 10, (n, q)
    with pytest.raises(ValueError):
        run.tail_percentile(19)


def _span(name, layer, parent, start, end):
    return spans.Span(name, layer, "job" if parent is None else "dp", "0:0", parent, start, end)


def test_self_time_subtracts_children():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    tree = [
        _span("root", "bench", None, 0.0, 10.0),
        _span("a", "counting", 0, 1.0, 4.0),
        _span("a1", "paths", 1, 2.0, 3.0),
        _span("b", "counting", 0, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    metrics = spans.layer_metrics(tree, passes=1)
    assert metrics["counting.self_s"] == 6.0
    assert metrics["paths.self_s"] == 1.0
    assert metrics["bench.self_s"] == 3.0
    assert metrics["counting.dp_s"] == 6.0
    halved = spans.layer_metrics(tree, passes=2)
    assert halved["counting.calls"] == 1.0


def test_self_time_clips_overlapping_children():
    tree = [
        _span("root", "bench", None, 0.0, 10.0),
        _span("a", "counting", 0, 2.0, 6.0),
        _span("b", "counting", 0, 4.0, 12.0),  # overlaps a and outlives root
    ]
    assert spans.self_times(tree)[0] == 2.0


def test_tracer_splits_layers_and_restores_functions():
    original = counting.a_count
    tracer = spans.Tracer()
    with tracer.installed():
        counting.a_count(3, 3)  # outside a job: not recorded
        assert tracer.spans == []
        with tracer.job("0:0", "a_count"):
            counting.a_count(3, 3)
    assert counting.a_count is original
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["a_count", "a_count", "b_table"]
    assert "h_dp" in names and "h_table" in names
    metrics = spans.layer_metrics(tracer.spans, passes=1)
    assert metrics["counting.cells"] == 2 * 16
