#!/usr/bin/env python3
"""Benchmark for inductrank: one run of one workload.

    python3 bench/run.py --workload corpus-eval --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for why each is here): corpus-eval,
scaled-recommend, large-theory-recommend.  Each is driven by one
closed-loop client: a single thread sends the next request only after the
previous one returned.

--trace 0 times requests through the public CLI entry `inductrank.cli.main`,
called in-process with stdout captured, for --seconds seconds and at least
MIN_REQUESTS requests, and reports the end-to-end metrics.  Their times
are scaled to one host speed by a fixed task timed between requests
(probe.py), because the speed of the shared host drifts by up to 1.7x and
would otherwise decide the figures.  --trace 1
alternates such a request with a traced one (tracing.py) on the same input
and reports the per-layer metrics.  Either way every output is checked
(checks.py); a request whose output is wrong counts as failed.

Lines before the last are for people; the last line of standard output is
the JSON result.  Exits 2 without a result when run outside a checkout of
the repository.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from probe import REFERENCE_S, probe, scale
from workloads import DEFAULT_SEED, GENERATORS, WHY

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
EXPECTED = BENCH / "expected"
CORPUS = ROOT / "src" / "inductrank" / "corpus"

TOP = 10                # the CLI's default --top
MIN_REQUESTS = 11       # so that some percentile has 10 samples beyond it
SETUP_SAMPLES = 9
SETUP_CODE = "import inductrank; inductrank.default_suite()"
PROBE_SHARE = 0.1       # probe time before a request, share of the last
# bundled corpus at this commit: top-1/3/5/10 coincidence out of 15
CORPUS_COINCIDENCE = {"total": 15, "top_1": 11, "top_3": 12, "top_5": 15,
                      "top_10": 15}


@dataclass(frozen=True)
class Request:
    label: str              # goal name, or "eval"
    argv: tuple[str, ...]
    goals: int              # goals ranked by one request


def import_package() -> bool:
    """Put the checkout's sources and test oracles on sys.path."""
    if not (ROOT / "src" / "inductrank" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "_reference.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    return True


def prepare(workload: str, seed: int):
    """Write the workload's inputs; returns (requests, goal specs by label,
    theory path, theory text)."""
    if workload == "corpus-eval":
        argv = ("eval", str(CORPUS), "--annotations",
                str(CORPUS / "annotations.txt"), "--json")
        return [Request("eval", argv, 15)], {}, None, ""
    w = GENERATORS[workload](seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}.thy"
    path.write_text(w.theory_text, encoding="utf-8")
    requests = [Request(g.name, ("recommend", str(path), "--goal", g.name,
                                 "--json", "--timeout-ms", "0"), 1)
                for g in w.goals]
    return requests, {g.name: g for g in w.goals}, path, w.theory_text


def expected_outputs(workload: str, seed: int, theory_text: str):
    """Outputs recorded from a known-good commit, by label: always for
    corpus-eval, for the generated workloads only at the default seed."""
    if workload != "corpus-eval" and seed != DEFAULT_SEED:
        return None
    recorded = json.loads((EXPECTED / f"{workload}.json")
                          .read_text(encoding="utf-8"))
    if recorded["theory_sha256"] != _sha256(theory_text):
        raise SystemExit(f"error: the {workload} generator no longer "
                         "matches bench/expected; re-record it")
    return recorded["outputs"]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def call_cli(argv) -> tuple[object, str, str, float]:
    """(exit code, stdout, stderr, seconds) of one in-process CLI call."""
    from inductrank import cli
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:       # a request that raises counts as failed
        code = "raised"
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def time_setup() -> float:
    """Wall time of a fresh interpreter importing inductrank and loading the
    default suite."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


class Client:
    """The closed-loop client: checks each output against the expected
    output or, without one, against the first output for the same
    request."""

    def __init__(self, expected):
        self.reference = dict(expected or {})
        self.samples: list[list] = []     # [label, seconds, ok, goals]
        self.errors: list[str] = []

    def send(self, req: Request) -> str:
        code, out, err, seconds = call_cli(req.argv)
        ok = code == 0 and out == self.reference.setdefault(req.label, out)
        if not ok and len(self.errors) < 5:
            self.errors.append(f"{req.label}: exit {code}, output differs "
                               f"from reference; stderr: {err[-300:]}")
        self.samples.append([req.label, seconds, ok, req.goals])
        return out

    def fail_label(self, label: str) -> None:
        for s in self.samples:
            if s[0] == label:
                s[2] = False


# ---------------------------------------------------------------------------
# Output checks run after the timed loop


def check_outputs(workload, reference, requests, specs, path,
                  seed) -> dict[str, list]:
    """Problems found in each request's reference output, by label."""
    from inductrank import default_suite, parse_theory
    suite = default_suite()
    rng = random.Random(f"checks/{workload}/{seed}")
    problems: dict[str, list] = {}
    if workload == "corpus-eval":
        problems["eval"] = _check_eval(reference.get("eval", ""), suite, rng)
        return problems
    thy = parse_theory(path.read_text(encoding="utf-8"), str(path))
    for req in requests:
        # The printed top 10 must head the full ranking, which is checked
        # as a whole, with the oracle sample drawn from every finalist.
        spec = specs[req.label]
        code, out, _, _ = call_cli((*req.argv, "--top", "100000"))
        lines = out.splitlines()
        found = _check_recommend(lines, thy, spec.name, spec.variables,
                                 spec.rules, suite, rng)
        top = "".join(line + "\n" for line in lines[:TOP])
        if code != 0 or top != reference.get(req.label):
            found.append(f"{req.label}: printed top {TOP} is not the head "
                         "of the full ranking")
        problems[req.label] = found
    return problems


def _check_recommend(lines, thy, goal_name, variables, rules, suite, rng):
    import checks
    from inductrank import enumerate_candidates
    goal = thy.goal_named(goal_name)
    if goal is None or not lines:
        return [f"{goal_name}: no goal or no output"]
    order = checks.candidate_order(variables, rules, checks.CAP)
    problems = checks.check_ranking(lines, len(suite), order)
    count = len(list(enumerate_candidates(goal, thy, checks.CAP)))
    want = checks.candidate_count(len(variables), len(rules), checks.CAP)
    if count != want:
        problems.append(f"{goal_name}: {count} candidates, expected {want}")
    return problems + checks.check_verdicts(lines, goal, thy, suite, rng)


def _check_eval(output, suite, rng):
    """The eval output reproduces the recorded coincidence, and each goal
    row agrees with a full recommend run on the same goal."""
    import checks
    from inductrank import parse_theory
    records = [json.loads(line) for line in output.splitlines()]
    total = next((r for r in records if r["kind"] == "sum"), {})
    problems = [f"coincidence {k} = {total.get(k)}, expected {v}"
                for k, v in CORPUS_COINCIDENCE.items() if total.get(k) != v]
    experts = {}
    for line in (CORPUS / "annotations.txt").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, tactic = (p.strip() for p in line.split("|")[:2])
            experts[name] = checks.parse_tactic(tactic)
    for row in (r for r in records if r["kind"] == "goal"):
        path = CORPUS / f"{row['theory']}.thy"
        text = path.read_text(encoding="utf-8")
        thy = parse_theory(text, str(path))
        goal = thy.goal_named(row["goal"])
        variables, rules = checks.goal_shape(
            goal, set(re.findall(r"^fun\s+(\w+)", text, re.M)))
        want = checks.candidate_count(len(variables), len(rules),
                                      checks.CAP)
        if row["total"] != want:
            problems.append(f"{row['goal']}: total {row['total']}, "
                            f"expected {want}")
        code, out, _, _ = call_cli(("recommend", str(path), "--goal",
                                    row["goal"], "--json", "--top", "100000",
                                    "--timeout-ms", "100"))
        lines = out.splitlines()
        if code != 0 or len(lines) != row["2nd-b"]:
            problems.append(f"{row['goal']}: recommend lists {len(lines)} "
                            f"finalists, eval says {row['2nd-b']}")
            continue
        problems += _check_recommend(lines, thy, row["goal"], variables,
                                     rules, suite, rng)
        hit = next(((r["rank"], r["score"]) for r in map(json.loads, lines)
                    if checks.parse_tactic(r["tactic_text"])
                    == experts[row["goal"]]), (None, None))
        if hit != (row["nth"], row["score"]):
            problems.append(f"{row['goal']}: eval ranks the expert "
                            f"{row['nth']}/{row['score']}, recommend "
                            f"{hit[0]}/{hit[1]}")
    return problems


# ---------------------------------------------------------------------------
# Runs


def untraced_run(args, requests, expected):
    """Timed requests with host-speed probes between them.  Returns the
    client, the run's scale factor (probe.py) and the metrics known at the
    end of the loop, set-up already scaled."""
    client = Client(expected)
    time_setup()            # may write bytecode caches; not counted
    setup_times: list[float] = []
    probes: list[float] = []
    start = perf_counter()
    # Before each request the probe runs for about PROBE_SHARE of the last
    # request's time, at least once.  Set-up is sampled at even intervals
    # between requests.  Whole passes over the distinct inputs keep the
    # mix of requests the same in every run.
    while (perf_counter() - start < args.seconds
           or len(client.samples) < MIN_REQUESTS
           or len(client.samples) % len(requests)):
        last = client.samples[-1][1] if client.samples else 0.0
        probes += (probe() for _ in range(
            max(1, round(PROBE_SHARE * last / REFERENCE_S))))
        if (len(setup_times) < SETUP_SAMPLES and perf_counter() - start
                >= len(setup_times) * args.seconds / SETUP_SAMPLES):
            setup_times.append(time_setup())
        client.send(requests[len(client.samples) % len(requests)])
    factor = scale(statistics.median(probes))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return client, factor, {
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times) * factor}


def traced_run(args, requests, expected):
    import tracing
    tracer = tracing.Tracer()
    client = Client(expected)
    traced: dict[str, list] = {r.label: [] for r in requests}
    counts: dict[str, object] = {}
    problems: list[str] = []

    def traced_request(req: Request) -> str:
        tracer.request += 1
        traced[req.label].append(tracer.request)
        (code, out, err, _), c = tracing.traced_call(
            tracer, lambda: call_cli(req.argv))
        if code != 0:
            problems.append(f"{req.label}: traced request exited {code}; "
                            f"stderr: {err[-300:]}")
        if counts.setdefault(req.label, c) != c:
            problems.append(f"{req.label}: counts changed between passes")
        return out

    passes = 0
    start = last = perf_counter()
    # Whole passes over the distinct inputs; none starts that would (judging
    # by the last one) end after --seconds.  Each pass alternates which of
    # an untraced and a traced request on the same input runs first.
    while not counts or 2 * perf_counter() - last - start < args.seconds:
        last = perf_counter()
        for req in requests:
            if passes % 2:
                traced_out = traced_request(req)
                out = client.send(req)
            else:
                out = client.send(req)
                traced_out = traced_request(req)
            if traced_out != out:
                problems.append(f"{req.label}: traced output differs from "
                                "the untraced output")
                client.fail_label(req.label)
        passes += 1
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    return client, problems, _layer_metrics(tracer, client, traced, counts)


def _layer_metrics(tracer, client, traced, counts) -> dict:
    """Per-layer metrics per request: the mean over the workload's distinct
    requests of each one's median over passes (times) or its count."""
    import tracing
    times = tracing.span_times(tracer)
    labels = list(traced)
    # what each make_context and evaluate wrapper adds to score_all's self
    # time outside its own span
    leaf_overhead_ms = 1000 * tracing.leaf_overhead_s()

    def per_request(values_by_label) -> float:
        return statistics.fmean(values_by_label[label] for label in labels)

    def span_ms(key: str) -> float:
        return per_request({
            label: statistics.median(times[rid].get(key, 0.0)
                                     for rid in traced[label])
            for label in labels})

    def score_all_self_ms(rid: int) -> float:
        t = times[rid]
        leaves = t["dsl.make_context.calls"] + t["dsl.evaluate.calls"]
        return t["scoring.score_all.self"] - leaves * leaf_overhead_ms

    def count(key: str) -> float:
        return per_request({label: counts[label].get(key, 0)
                            for label in labels})

    untraced_ms = per_request({
        label: 1000 * statistics.median(s[1] for s in client.samples
                                        if s[0] == label)
        for label in labels})
    traced_ms = span_ms("request")
    m = {
        "cli.request_ms": untraced_ms,
        "trace.request_ms": traced_ms,
        "trace.overhead_share": traced_ms / untraced_ms - 1,
        "parser.parse_theory_ms": span_ms("parser.parse_theory"),
        "dsl.load_suite_ms": span_ms("dsl.load_suite"),
        "pipeline.enumerate_ms": span_ms("pipeline.enumerate"),
        "pipeline.stage1_ms": span_ms("pipeline.stage1"),
        "pipeline.stage2_ms": span_ms("pipeline.stage2"),
        "dsl.make_context_ms": span_ms("dsl.make_context"),
        "dsl.evaluate_ms": span_ms("dsl.evaluate"),
        "scoring.score_all_self_ms": per_request({
            label: statistics.median(score_all_self_ms(rid)
                                     for rid in traced[label])
            for label in labels}),
        "dsl.contexts": span_ms("dsl.make_context.calls"),
    }
    m.update((k, count(k)) for k in tracing.COUNTS)
    m["pipeline.stage1_yield"] = (m["pipeline.stage1_survivors"]
                                  / m["pipeline.candidates"])
    m["pipeline.stage2_yield"] = (m["pipeline.finalists"]
                                  / m["pipeline.stage1_survivors"])
    m.update((f"dsl.evaluate_ms.{h}", span_ms(f"dsl.evaluate.{h}"))
             for h in tracing.HEURISTICS)
    print(f"  leaf wrapper overhead {1000 * leaf_overhead_ms:.2f} us per "
          "call, subtracted from scoring.score_all_self_ms")
    return m


def _tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(times)
    i = len(ordered) - 11
    return ordered[i], 100 * (i + 1) / len(ordered)


# The end-to-end metrics of the result line, as BENCHMARK.json lists them.
UNITS = {"setup_s": "s", "request_p50_ms": "ms", "goals_per_s": "1/s",
         "peak_rss_mb": "MB"}
# Printed and kept in the run's summary file, but not bounded.  A
# scaled-recommend run makes 12 requests, so its request_tail_ms is the
# second-smallest sample, which spreads too much between seeds to bound.
UNBOUNDED_UNITS = {"request_tail_ms": "ms", "failed_share": "share"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not import_package():
        print("error: src/inductrank or tests/_reference.py not found next "
              "to bench/; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    requests, specs, path, text = prepare(args.workload, args.seed)
    expected = expected_outputs(args.workload, args.seed, text)
    call_cli(("recommend", str(CORPUS / "running.thy"), "--goal",
              "itrev_rev", "--json"))           # warm-up, untimed
    if args.trace:
        client, problems, metrics = traced_run(args, requests, expected)
        units = {k: ("ms" if k.endswith("_ms") or "_ms." in k else
                     "share" if k.endswith(("_share", "_yield")) else
                     "count") for k in metrics}
    else:
        client, factor, metrics = untraced_run(args, requests, expected)
        problems = []

    for label, found in check_outputs(args.workload, client.reference,
                                      requests, specs, path,
                                      args.seed).items():
        if found:
            client.fail_label(label)
            problems += found
    samples = client.samples
    failed = sum(1 for s in samples if not s[2])
    times = [s[1] for s in samples]
    print(f"workload {args.workload}, seed {args.seed}: {WHY[args.workload]}")
    print(f"  {len(samples)} requests over {len(requests)} distinct inputs, "
          f"one closed-loop client, {'traced' if args.trace else 'untraced'}")
    for req in requests:
        mine = [s[1] for s in samples if s[0] == req.label]
        print(f"  {req.label}: median {1000 * statistics.median(mine):.1f} "
              f"ms over {len(mine)} requests")
    for line in client.errors + problems[:20]:
        print(f"  problem: {line}", file=sys.stderr)

    if not args.trace:
        scaled = [t * factor for t in times]
        tail, pct = _tail(scaled)
        busy = sum(scaled)
        metrics.update({
            "request_p50_ms": 1000 * statistics.median(scaled),
            "request_tail_ms": 1000 * tail,
            "goals_per_s": sum(s[3] for s in samples if s[2]) / busy,
            "failed_share": failed / len(samples),
        })
        units = UNITS
        notes = {
            "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters "
                       "spread over the run",
            "request_p50_ms": f"n={len(times)}, unscaled "
                              f"{1000 * statistics.median(times):.1f} ms",
            "request_tail_ms": f"p{pct:.0f}, n={len(times)}, "
                               "10 samples beyond",
            "goals_per_s": f"{sum(s[3] for s in samples if s[2])} goals "
                           f"in {busy:.2f} s busy",
            "failed_share": f"{failed}/{len(samples)}",
        }
        summary = {name: {"value": metrics[name], "unit": unit,
                          "note": notes.get(name, "")}
                   for name, unit in {**UNITS, **UNBOUNDED_UNITS}.items()}
        print(f"  host speed: times scaled by {factor:.3f} (probe.py)")
        for name, m in summary.items():
            print(f"  {name:<16} {m['value']:12.4f} {m['unit']:<5} "
                  f"{m['note']}")
        OUT.mkdir(exist_ok=True)
        (OUT / f"summary-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    else:
        total = metrics["trace.request_ms"]
        scoring = metrics["dsl.make_context_ms"] + metrics["dsl.evaluate_ms"]
        print(f"  of traced request time {total:.1f} ms: parse "
              f"{metrics['parser.parse_theory_ms'] / total:.0%}, "
              f"make_context+evaluate {scoring / total:.0%}")
        print(f"  spans: {OUT.name}/trace-{args.workload}-seed{args.seed}"
              ".jsonl.gz")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
