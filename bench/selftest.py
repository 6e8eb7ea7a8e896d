#!/usr/bin/env python3
"""Self-test of the traced run: counts repeat exactly, names match.

    python3 bench/selftest.py

Runs the traced run twice per workload of workloads.py on one seed and
fails unless every count metric (pipeline.*, tactic.error.*, dsl.* counts)
is identical in both runs, and unless the per-layer metric names and units
are exactly those that BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import sys

from report import ROOT, run_once
from workloads import WHY

SEED = 3
SECONDS = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {(m["name"], m["unit"]) for m in spec["per_layer"]}
    failures = []
    for name in WHY:
        first, second = (run_once(name, SEED, SECONDS, 1)
                         for _ in range(2))
        reported = {(k, v["unit"]) for k, v in first["metrics"].items()}
        if reported != declared:
            failures.append(f"{name}: metric names or units differ "
                            "from BENCHMARK.json per_layer: "
                            f"{sorted(reported ^ declared)}")
        counts = [k for k, v in first["metrics"].items()
                  if v["unit"] == "count"]
        changed = [k for k in counts
                   if first["metrics"][k] != second["metrics"].get(k)]
        print(f"{name}: {len(counts)} counts, "
              f"{len(changed)} differ between two traced runs")
        failures += [f"{name}: {k} differs" for k in changed]
        if not (first["correct"] and second["correct"]):
            failures.append(f"{name}: a traced run was not correct")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
