#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, with units and counts.

    python3 bench/report.py                  # one untraced run per workload
    python3 bench/report.py --seeds 10 --trace --out bench/BENCH_baseline.json

Each run is its own `bench/run.py` process, so peak memory is per run.
Every workload of workloads.py runs, including corpus-eval, which
BENCHMARK.json leaves out (see README.md).  With --seeds N every workload
runs once per seed, from --first-seed (1) on, and each metric is summarised
by its median, quartiles and spread (interquartile distance over median)
next to its bound in BENCHMARK.json, if it has one.
--trace adds one traced run per workload (first seed) for the per-layer
metrics.  --out writes everything
as JSON; that is how BENCH_*.json baselines are made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WHY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv[1:])} exited "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_summary(workload: str, seed: int, seconds: int) -> dict:
    """An untraced run's end-to-end metrics, bounded or not, from the
    summary file it writes."""
    result = run_once(workload, seed, seconds, 0)
    path = BENCH / "out" / f"summary-{workload}-seed{seed}.json"
    result["summary"] = json.loads(path.read_text(encoding="utf-8"))
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    report = {"machine": f"{platform.platform()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}",
              "run_seconds": args.seconds,
              "seeds": list(range(args.first_seed,
                                  args.first_seed + args.seeds)),
              "workloads": {}}
    table = []
    for name, why in WHY.items():
        runs = [run_summary(name, seed, args.seconds)
                for seed in report["seeds"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        entry = {"why": why,
                 "in_benchmark_json": any(w["name"] == name
                                          for w in spec["workloads"]),
                 "attempted": attempted, "failed": failed,
                 "failed_share": failed / attempted,
                 "correct": all(r["correct"] for r in runs),
                 "end_to_end": {}}
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        for metric, first in runs[0]["summary"].items():
            if metric == "failed_share":
                continue
            s = summarise([r["summary"][metric]["value"] for r in runs])
            entry["end_to_end"][metric] = {
                "unit": first["unit"], "bound": bounds.get(metric), **s}
            table.append((name, metric, s["median"], first["unit"],
                          s["spread"], bounds.get(metric), len(runs)))
        table.append((name, "failed_share", failed / attempted,
                      f"of {attempted}", None, None, len(runs)))
        if args.trace:
            traced = run_once(name, args.first_seed, args.seconds, 1)
            entry["per_layer"] = traced["metrics"]
            entry["traced_correct"] = traced["correct"]
        report["workloads"][name] = entry

    print()
    print(f"{'workload':<24} {'metric':<16} {'median':>12} {'unit':<8} "
          f"{'spread':>7} {'bound':>6} runs")
    for workload, name, value, unit, spread, bound, n in table:
        spread_text = "" if spread is None else f"{spread:.3f}"
        bound_text = "" if bound is None else f"{bound:.2f}"
        print(f"{workload:<24} {name:<16} {value:12.4f} {unit:<8} "
              f"{spread_text:>7} {bound_text:>6} {n}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
