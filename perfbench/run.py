#!/usr/bin/env python3
"""Benchmark of the delannoy library: seeded closed-loop workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload gf_orders --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client runs one job at a time; each job starts when the previous one
has finished, as a user waits for each count, series or verdict.  A run
draws one job list per pass from the seed and runs passes until the next
one would overrun ``--seconds`` (at least ``MIN_PASSES``).  Every answer is
checked by an independent route outside the timed interval.  Reported
times are scaled to a reference machine speed (see ``REF_NOMINAL_MS``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each list
twice, untraced and traced, and reports per-layer metrics from spans
recorded around the benchmark's calls into the library.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The library is loaded from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_PASSES = 4
MIN_TRACED_PASSES = 3  # a traced pass runs its list twice
SETUP_PROBES = 21
CLI_PROBES_PER_PASS = 5
PROBE_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host's speed drifts by about +-20% over tens of seconds (a fixed loop
# timed for a minute on a shared 2-vCPU VM read 22 to 34 ms).  Every job is
# followed by an untimed reference loop, and reported times are scaled to a
# machine on which that loop takes REF_NOMINAL_MS: raw * REF_NOMINAL_MS /
# (median reference time of the same list).  Library changes cannot move the
# reference, so a slower or faster program still moves the scaled times in
# full; raw times are printed alongside.
REF_ITERATIONS = 20_000
REF_NOMINAL_MS = 1.7

# Times `import delannoy` plus generating the first job list, in a fresh
# interpreter; the interpreter's own start-up is excluded (see cli.interp_ms).
# The child also times the reference loop, so it is scaled by its own speed.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, {bench!r})
import gen, run
ref = run.reference_ms()
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import delannoy
gen.generate({workload!r}, {seed}, 0)
print(time.perf_counter() - t0, ref)
"""


def tail_percentile(n_jobs: int) -> float:
    """Highest ladder percentile with at least ten of ``n_jobs`` samples beyond it."""
    for p in TAIL_LADDER:
        if n_jobs - math.ceil(p / 100 * n_jobs) >= 10:
            return p
    raise ValueError(f"{n_jobs} jobs leave fewer than ten beyond the median")


def nearest_rank(values: list[float], p: float) -> float:
    """The ceil(p% * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def reference_ms() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    return (time.perf_counter() - t0) * 1e3


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(raw, scaled) median set-up time over SETUP_PROBES fresh interpreters, after a warm-up."""
    code = _SETUP_CODE.format(bench=str(BENCH), src=str(SRC), workload=workload, seed=seed)
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, "-c", code], check=True, timeout=PROBE_TIMEOUT_S,
                             stdin=subprocess.DEVNULL, capture_output=True, text=True)
        if i:  # the first run only writes bytecode caches
            seconds, ref_ms = (float(v) for v in out.stdout.split())
            raw.append(seconds)
            scaled.append(seconds * REF_NOMINAL_MS / ref_ms)
    return statistics.median(raw), statistics.median(scaled)


def _probe_ms(code: str, env) -> float:
    import jobs

    t0 = time.perf_counter()
    if jobs.run_python(["-c", code], env).code != 0:
        raise RuntimeError(f"probe {code!r} failed")
    return (time.perf_counter() - t0) * 1e3


def cli_probes(env) -> tuple[list[float], list[float]]:
    """CLI_PROBES_PER_PASS timings (ms) of `python -c pass` and of `import delannoy.cli`."""
    interp, imp = [], []
    for _ in range(CLI_PROBES_PER_PASS):  # interleaved, so load changes hit both alike
        interp.append(_probe_ms("pass", env))
        imp.append(_probe_ms("import delannoy.cli", env))
    return interp, imp


class Pass:
    """Per-job latency, CPU and verdict for one run through one job list."""

    def __init__(self) -> None:
        self.ms: list[float] = []
        self.cpu_s: list[float] = []
        self.ref_ms: list[float] = []
        self.failed = 0
        self.codes: list[int] = []
        self.child_rss_kb = 0

    @property
    def wall_s(self) -> float:
        return sum(self.ms) / 1e3

    @property
    def scale(self) -> float:
        """Factor from this list's raw times to times at the reference speed."""
        return REF_NOMINAL_MS / statistics.median(self.ref_ms)


def run_pass(job_list, workload: str, checker, env, tracer=None, pass_index: int = 0) -> Pass:
    import jobs  # imports the library; see main()

    result = Pass()
    for i, job in enumerate(job_list):
        job_id = f"{pass_index}:{i}"
        error = None
        answer = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                answer = jobs.run_cli(job.args[0], env) if workload == "cli_oneshot" else jobs.execute(job)
            elif workload == "cli_oneshot":
                with tracer.job(job_id, f"cli {job.args[0][0]}", layer="cli"):
                    answer = jobs.run_cli(job.args[0], env)
            else:
                with tracer.job(job_id, job.kind):
                    answer = jobs.execute(job)
        except Exception as exc:  # a job that raises counts as failed; the run goes on
            error = exc
        dt = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if isinstance(answer, jobs.ChildRun):
            cpu += answer.cpu_s
            result.codes.append(answer.code)
            result.child_rss_kb = max(result.child_rss_kb, answer.maxrss_kb)
        ok = False
        if error is None:
            try:
                ok = checker.check(job, answer)
            except Exception as exc:
                error = exc
        if not ok:
            result.failed += 1
            print(f"FAILED {workload} pass {pass_index} job {i}: {job} {error or ''}", file=sys.stderr)
        result.ms.append(dt * 1e3)
        result.cpu_s.append(cpu)
        result.ref_ms.append(reference_ms())
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import gen
    import jobs
    import spans

    setup = measure_setup(workload, seed) if not trace else None
    checker = jobs.Checker()
    env = jobs.cli_env()
    if workload == "cli_oneshot":
        jobs.run_cli(("count", "h", "2", "2"), env)  # untimed: writes bytecode caches
    tracer = spans.Tracer() if trace else None
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    plain: list[Pass] = []
    traced: list[Pass] = []
    reuse = []
    interp_ms: list[float] = []
    import_ms: list[float] = []
    t_start = time.perf_counter()
    while True:
        index = len(plain)
        job_list = gen.generate(workload, seed, index)
        reuse.append(gen.reuse_share(job_list))
        if tracer is None:
            plain.append(run_pass(job_list, workload, checker, env, None, index))
        else:
            # Alternate which run of the list goes first, so warm allocator
            # arenas and page caches favour neither side of the ratio.
            for traced_now in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_now:
                    with tracer.installed():
                        traced.append(run_pass(job_list, workload, checker, env, tracer, index))
                else:
                    plain.append(run_pass(job_list, workload, checker, env, None, index))
            if workload == "cli_oneshot":
                # probes spread over the run, so they see the same machine as the jobs
                interp, imp = cli_probes(env)
                interp_ms += interp
                import_ms += imp
        elapsed = time.perf_counter() - t_start
        if len(plain) >= min_passes and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    runs = plain + traced
    attempted = sum(len(p.ms) for p in runs)
    failed = sum(p.failed for p in runs)
    n_jobs = len(plain[0].ms)
    all_ms = [ms for p in plain for ms in p.ms]
    # The rung depends only on the list shape, so it is the same in every run.
    tail_p = tail_percentile(MIN_PASSES * n_jobs)
    info = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "jobs_per_list": n_jobs,
        "tail_percentile": tail_p,
        "reuse_share": statistics.mean(reuse),
    }
    if not trace:
        if workload == "cli_oneshot":
            rss_kb = max(p.child_rss_kb for p in plain)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        common = {
            "peak_rss_mb": ("MB", rss_kb / 1024),
            "ok_ratio": ("ratio", (attempted - failed) / attempted),
        }
        values = _timings(plain, setup[1], tail_p, scaled=True) | common
        info["raw"] = _timings(plain, setup[0], tail_p, scaled=False)
    else:
        per_layer = spans.layer_metrics(tracer.spans, len(traced))
        traced_wall = sum(p.wall_s for p in traced)
        interp = imp = exec_ms = 0.0
        if workload == "cli_oneshot":
            interp = statistics.median(interp_ms)
            imp = statistics.median(import_ms) - interp
            exec_ms = statistics.median(all_ms + [ms for p in traced for ms in p.ms]) - interp - imp
        codes = [c for p in traced for c in p.codes]
        per_layer.update({
            "cli.calls": len(codes) / len(traced),
            "cli.interp_ms": interp,
            "cli.import_ms": imp,
            "cli.exec_ms_p50": exec_ms,
            "cli.refused": codes.count(1) / len(traced),
            "cli.exit2": codes.count(2) / len(traced),
            # The first list also grows the process's heap, so it is left
            # out; later lists alternate which of the two runs goes first.
            "trace_overhead_ratio": sum(p.wall_s * p.scale for p in traced[1:])
            / sum(p.wall_s * p.scale for p in plain[1:]),
        })
        values = {name: (unit, per_layer[name]) for name, unit in spans.PER_LAYER_UNITS.items()}
        info["layer_share_of_traced_wall"] = {
            lay: per_layer[f"{lay}.self_s"] * len(traced) / traced_wall
            for lay in ("bench",) + spans.LAYERS
        }
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{workload}.jsonl")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in values.items()},
        "info": info,
    }


def _timings(plain: list[Pass], setup_s: float, tail_p: float, scaled: bool) -> dict:
    """The end-to-end time metrics, at the reference speed or as read."""
    def factor(p: Pass) -> float:
        return p.scale if scaled else 1.0

    job_ms = [ms * factor(p) for p in plain for ms in p.ms]
    return {
        "setup_s": ("s", setup_s),
        "wall_s": ("s", statistics.mean(p.wall_s * factor(p) for p in plain)),
        "cpu_s": ("s", statistics.mean(sum(p.cpu_s) * factor(p) for p in plain)),
        "job_ms_p50": ("ms", statistics.median(job_ms)),
        "job_ms_tail": ("ms", nearest_rank(job_ms, tail_p)),
    }


def _print_human(report: dict) -> None:
    info = report["info"]
    print(f"# {info['workload']}: seed {info['seed']}, {info['passes']} passes of "
          f"{info['jobs_per_list']} jobs, reuse share {info['reuse_share']:.3f}, "
          f"{report['attempted']} attempted, {report['failed']} failed")
    for name, m in report["metrics"].items():
        note = ""
        if name == "job_ms_tail":
            note = f"  (p{info['tail_percentile']:g} of {info['passes'] * info['jobs_per_list']} jobs)"
        if name in info.get("raw", {}):
            note = f"  (as read {info['raw'][name][1]:.6g}){note}"
        print(f"{info['workload']}.{name} = {m['value']:.6g} {m['unit']}{note}")
        if name == "ok_ratio":  # reported as its complement, since a metric must not read 0
            print(f"{info['workload']}.failed_ratio = {report['failed'] / report['attempted']:.6g} ratio")
    for lay, share in info.get("layer_share_of_traced_wall", {}).items():
        print(f"{info['workload']}.share.{lay} = {share:.3f} of traced wall")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    import gen

    for workload in gen.WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited with code {out.returncode}")
        print("\n".join(lines[:-1]))
        report = json.loads(lines[-1])
        merged["correct"] &= report["correct"]
        merged["attempted"] += report["attempted"]
        merged["failed"] += report["failed"]
        for name, m in report["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "delannoy" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import delannoy
    import gen

    if not Path(delannoy.__file__).resolve().is_relative_to(SRC):
        print(f"error: delannoy imported from {delannoy.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        report = run_all(args.seed, args.seconds, args.trace)
    elif args.workload in gen.WORKLOADS:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_human(report)
        del report["info"]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)} or all")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
