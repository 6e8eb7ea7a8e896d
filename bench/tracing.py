"""The traced run: spans around the layer functions the CLI calls.

A traced request is an ordinary `inductrank.cli.main` call, made while the
names that the CLI and the pipeline look up at call time are bound to
recording wrappers: `cli.parse_theory`, `cli.default_suite`,
`cli.make_context`, `cli.score_all`, `pipeline.enumerate_candidates`,
`pipeline.stage1`, `pipeline.stage2` and `scoring.evaluate`.  The wrappers
take any arguments and read the counts from the return values; the
original bindings come back when the request returns.  Nothing in the
package itself is edited.

Stage 1 time includes every `tactic.apply_induct` call it makes.  The
enumeration wrapper drains the candidate stream into a list, so that
enumeration is a span of its own instead of part of stage 1.

Spans stay in memory as (request, id, parent, name, detail, start, end)
tuples and are written out once the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

from inductrank import cli, pipeline, scoring


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.request = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)     # keeps ids in start order
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[span_id] = (self.request, span_id, parent, name,
                                   None, start, end)

    def leaf(self, name: str, detail, start: float, end: float) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append((self.request, len(self.spans), parent, name,
                           detail, start, end))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("# request id parent name detail start_s end_s\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _spanned(tracer: Tracer, name: str, original, on_result=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = original(*args, **kwargs)
        if on_result is not None:
            on_result(result)
        return result
    return wrapper


def _leaf(tracer: Tracer, name: str, original, details: dict[int, str]):
    """A cheaper wrapper for the many calls of one request: a span without
    children whose detail is looked up by the id of the first argument."""
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = original(*args, **kwargs)
        end = perf_counter()
        tracer.leaf(name, details.get(id(args[0])), start, end)
        return result
    return wrapper


@contextlib.contextmanager
def _bound(bindings: list[tuple[object, str, object]]):
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _ in bindings]
    try:
        for module, attr, value in bindings:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in originals:
            setattr(module, attr, value)


def traced_call(tracer: Tracer, call):
    """Run `call()` inside a `request` span with the layer functions
    traced; returns its result and the request's counts."""
    counts: Counter = Counter()
    heuristic_names: dict[int, str] = {}

    def on_theory(thy) -> None:
        counts["parser.declarations"] += (len(thy.datatypes)
                                          + len(thy.fundefs)
                                          + len(thy.goals))

    def on_suite(suite) -> None:
        heuristic_names.update((id(h.formula), h.name) for h in suite)

    def on_candidates(candidates) -> None:
        counts["pipeline.candidates"] += len(candidates)

    def on_stage1(result) -> None:
        survivors, dispositions = result
        counts["pipeline.stage1_survivors"] += len(survivors)
        counts.update(f"tactic.error.{d.error}" for d in dispositions
                      if d.status == "stage1")

    def on_stage2(result) -> None:
        finalists, dispositions = result
        counts["pipeline.finalists"] += len(finalists)
        counts.update(f"pipeline.condition.{d.condition}"
                      for d in dispositions if d.status == "stage2")

    def on_scored(scored) -> None:
        counts["dsl.verdicts"] += sum(len(sc.verdicts) for sc in scored)
        counts["dsl.true_verdicts"] += sum(sc.score for sc in scored)

    enumerate_candidates = pipeline.enumerate_candidates
    bindings = [
        (cli, "parse_theory", _spanned(tracer, "parser.parse_theory",
                                       cli.parse_theory, on_theory)),
        (cli, "default_suite", _spanned(tracer, "dsl.load_suite",
                                        cli.default_suite, on_suite)),
        (pipeline, "enumerate_candidates", _spanned(
            tracer, "pipeline.enumerate",
            lambda *a, **k: list(enumerate_candidates(*a, **k)),
            on_candidates)),
        (pipeline, "stage1", _spanned(tracer, "pipeline.stage1",
                                      pipeline.stage1, on_stage1)),
        (pipeline, "stage2", _spanned(tracer, "pipeline.stage2",
                                      pipeline.stage2, on_stage2)),
        (cli, "score_all", _spanned(tracer, "scoring.score_all",
                                    cli.score_all, on_scored)),
        (cli, "make_context", _leaf(tracer, "dsl.make_context",
                                    cli.make_context, {})),
        (scoring, "evaluate", _leaf(tracer, "dsl.evaluate",
                                    scoring.evaluate, heuristic_names)),
    ]
    with _bound(bindings), tracer.span("request"):
        result = call()
    return result, counts


def leaf_overhead_s(calls: int = 20000, repeats: int = 5) -> float:
    """Time a leaf wrapper adds to its caller outside its own span, per
    call: the wrapper's call, the detail lookup and the span record.  The
    median over `repeats` timings of `calls` wrapped no-op calls."""
    def noop(*_):
        return None

    samples = []
    for _ in range(repeats):
        scratch = Tracer()
        wrapped = _leaf(scratch, "noop", noop, {})
        start = perf_counter()
        for _ in range(calls):
            noop(None, None)
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped(None, None)
        traced = perf_counter() - start
        inside = sum(end - start for *_, start, end in scratch.spans)
        samples.append((traced - bare - inside) / calls)
    return max(0.0, statistics.median(samples))


# ---------------------------------------------------------------------------
# Per-layer metrics

HEURISTICS = (
    "rule_constant_takes_induction_terms_in_order",
    "rule_argument_agreement_at_1",
    "rule_argument_agreement_at_2",
    "rule_argument_agreement_at_3",
    "rule_argument_agreement_at_4",
    "rule_constant_occurs_in_goal",
    "rule_constant_occurs_in_conclusion",
    "rule_covers_all_induction_terms",
    "induction_terms_exist",
    "induction_terms_are_variables",
    "induction_terms_are_datatype_values",
    "induction_terms_occur_in_conclusion",
    "induction_terms_are_applied_arguments",
    "some_induction_term_feeds_recursion",
    "no_induction_term_outside_recursion",
    "induction_position_matches_recursion",
    "first_induction_term_is_first_argument",
    "induction_terms_share_one_application",
    "arbitrary_vars_occur_in_conclusion",
    "arbitrary_vars_feed_recursion",
)

COUNTS = (
    "parser.declarations", "pipeline.candidates",
    "pipeline.stage1_survivors",
    # one per TacticErrorKind at the commit that defined the benchmark
    *(f"tactic.error.{kind}" for kind in (
        "NoArguments", "ArbitraryOverlapsInductionTerm",
        "NonDatatypeVariable", "RuleArityExceeded", "UnknownRule",
        "Timeout")),
    "pipeline.finalists", "pipeline.condition.1", "pipeline.condition.2",
    "pipeline.condition.3", "dsl.verdicts", "dsl.true_verdicts",
)


def span_times(tracer: Tracer) -> dict[int, Counter]:
    """Milliseconds per span name, for each request: `<name>` is the summed
    duration of its spans, `<name>.self` that minus their child spans,
    `<name>.<detail>` the part with one detail (for `dsl.evaluate`, the
    heuristic), and `<name>.calls` the number of spans."""
    children: Counter = Counter()
    for _, _, parent, _, _, start, end in tracer.spans:
        if parent is not None:
            children[parent] += end - start
    out: dict[int, Counter] = {}
    for request, span_id, _, name, detail, start, end in tracer.spans:
        times = out.setdefault(request, Counter())
        times[name] += (end - start) * 1000
        times[name + ".self"] += (end - start - children[span_id]) * 1000
        times[name + ".calls"] += 1
        if detail is not None:
            times[f"{name}.{detail}"] += (end - start) * 1000
    return out
