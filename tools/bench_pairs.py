#!/usr/bin/env python3
"""Paired benchmark runs of a parent revision against the working tree.

Usage, from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --pr N --seeds 101-110 \\
        --workloads gf_orders grid_counts --seconds 25 --claim gf_orders:wall_s

The parent revision (``git archive``) and the working tree (every tracked or
untracked, not ignored file as it is on disk) are exported into fresh
temporary directories, so neither side runs with a bytecode cache; every run
also sets ``PYTHONDONTWRITEBYTECODE=1``.  For each workload and seed one pair
runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each copy, the parent first on even pairs and the change first on odd ones.
The result is written to ``BENCH_<pr>.json``: the command, the host, the
parent commit, the claimed workload and metric, and per workload the seeds,
every run, and a summary of each end-to-end metric of ``BENCHMARK.json``
(inclusive quartiles per side, and the pairs the change wins).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: q1, median and q3 of each side (inclusive quartiles), the pairs in which
    the change is strictly better ("lower" or "higher" as ``better`` says), and the pair count."""
    sides = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side}
             for side in ("parent", "change")}
    pairs = sorted(sides["parent"].keys() & sides["change"].keys())
    summary = {}
    for metric, direction in better.items():
        row = {}
        for side, by_pair in sides.items():
            q1, median, q3 = statistics.quantiles([by_pair[p][metric] for p in pairs], n=4,
                                                  method="inclusive")
            row[side] = {"q1": q1, "median": median, "q3": q3}
        sign = 1 if direction == "lower" else -1
        row["change_wins"] = sum(
            sign * sides["change"][p][metric] < sign * sides["parent"][p][metric] for p in pairs)
        row["pairs"] = len(pairs)
        summary[metric] = row
    return summary


def export_parent(rev: str, dest: Path) -> None:
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_working_tree(dest: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is not exported
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def run_once(copy: Path, workload: str, seed: int, seconds: float, metrics: list[str]) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=copy, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited with code {out.returncode}:"
                           f" {out.stderr.strip()}")
    report = json.loads(lines[-1])
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {name: report["metrics"][name]["value"] for name in metrics}}


def parse_seeds(text: str) -> list[int]:
    """"2951-2960", both ends included, or one seed."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--pr", required=True, help="names the output file BENCH_<pr>.json")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="FIRST-LAST or one seed")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    commit = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    claim = dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None
    seconds = f"{args.seconds:g}"
    result = {
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "host": f"{platform.machine()}, {os.cpu_count()} cores, Python {platform.python_version()};"
                " alternating pairs (parent first on even pairs, change first on odd), fresh copies"
                " without bytecode caches (PYTHONDONTWRITEBYTECODE=1)",
        "parent": {"commit": commit},
        "claim": claim,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_parent(args.parent, copies["parent"])
        export_working_tree(copies["change"])
        for workload in args.workloads:
            runs = []
            for pair, seed in enumerate(args.seeds):
                for side in ("parent", "change") if pair % 2 == 0 else ("change", "parent"):
                    run = run_once(copies[side], workload, seed, args.seconds, list(better))
                    runs.append({"pair": pair, "seed": seed, "side": side, **run})
                    print(f"{workload} pair {pair} seed {seed} {side}: wall_s "
                          f"{run['metrics']['wall_s']:.4g}", file=sys.stderr)
            result["workloads"][workload] = {
                "seeds": args.seeds, "runs": runs, "summary": summarize(runs, better)}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
