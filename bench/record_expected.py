#!/usr/bin/env python3
"""Record the outputs that bench/run.py compares byte for byte.

    python3 bench/record_expected.py

Writes bench/expected/<workload>.json: each request's output at the default
seed, and the hash of the generated theory, so that a changed generator is
told apart from a changed program.  Record only from a commit whose output
is known to be right.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED, WHY


def main() -> int:
    if not run.import_package():
        print("error: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    run.EXPECTED.mkdir(exist_ok=True)
    for workload in sorted(WHY):
        requests, _, _, text = run.prepare(workload, DEFAULT_SEED)
        outputs = {}
        for req in requests:
            code, out, err, _ = run.call_cli(req.argv)
            if code != 0:
                print(f"error: {workload} {req.label}: exit {code}\n{err}",
                      file=sys.stderr)
                return 1
            outputs[req.label] = out
        record = {"seed": DEFAULT_SEED, "theory_sha256": run._sha256(text),
                  "outputs": outputs}
        path = run.EXPECTED / f"{workload}.json"
        path.write_text(json.dumps(record, indent=1) + "\n",
                        encoding="utf-8")
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
