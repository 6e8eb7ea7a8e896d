"""Command-line entry points: recommend, explain, eval."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

from .dsl import GoalIndex, make_context
from .parser import ParseError, parse_goal_expr, parse_theory
from .pipeline import (
    CONDITION_NAMES, DEFAULT_CAP, ScreeningResult, screen, stage2_condition,
)
from .scoring import (
    Heuristic, ScoredCandidate, default_suite, load_suite, score_all,
    shortlist,
)
from .tactic import (
    Candidate, DEFAULT_TIMEOUT, TacticError, apply_induct, parse_candidate,
)
from .terms import Goal, Theory, format_goal, split_implications

TOP_BUCKETS = (1, 3, 5, 10)


@dataclass(frozen=True)
class Annotation:
    goal_name: str
    candidate: Candidate
    rule_used: bool
    arbitrary_used: bool


@dataclass
class CoincidenceRow:
    theory: str
    total: int = 0
    hits: dict[int, int] = field(   # top_n -> count
        default_factory=lambda: dict.fromkeys(TOP_BUCKETS, 0))

    def add(self, rank: int | None) -> None:
        self.total += 1
        for n in TOP_BUCKETS:
            if rank is not None and rank <= n:
                self.hits[n] += 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="inductrank",
        description="Recommend induct-tactic arguments for theory-file "
                    "goals.")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recommend", help="rank induct argument "
                                           "combinations for one goal")
    rec.add_argument("file", type=Path)
    group = rec.add_mutually_exclusive_group(required=True)
    group.add_argument("--goal", help="goal name in the theory file")
    group.add_argument("--goal-expr", help="ad-hoc goal proposition")
    rec.add_argument("--top", type=int, default=10)
    rec.add_argument("--max-candidates", type=int, default=DEFAULT_CAP)
    rec.add_argument("--timeout-ms", type=int, default=100,
                     help="per-application timeout; 0 disables it")
    rec.add_argument("--heuristics", type=Path)
    rec.add_argument("--json", action="store_true", dest="as_json")
    rec.set_defaults(func=cmd_recommend)

    ev = sub.add_parser("eval", help="coincidence rates against expert "
                                     "annotations")
    ev.add_argument("corpus_dir", type=Path)
    ev.add_argument("--annotations", type=Path, required=True)
    ev.add_argument("--terms-only", action="store_true",
                    help="match on induction terms, ignoring the "
                         "arbitrary and rule fields")
    ev.add_argument("--json", action="store_true", dest="as_json")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("explain", help="per-heuristic verdicts for one "
                                        "candidate")
    ex.add_argument("file", type=Path)
    ex.add_argument("--goal", required=True)
    ex.add_argument("--tactic", required=True)
    ex.add_argument("--heuristics", type=Path)
    ex.set_defaults(func=cmd_explain)

    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: stop quietly, and point stdout at the null
        # device so that the interpreter's final flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # a stdout without a descriptor
            pass
        finally:
            os.close(devnull)
        return 1
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(1)


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as err:
        _fail(f"cannot read {path}: {err.strerror}")
    except UnicodeDecodeError:
        _fail(f"cannot read {path}: not UTF-8 text")


def _load_theory(path: Path) -> Theory:
    return parse_theory(_read(path), str(path))


def _find_goal(thy: Theory, name: str) -> Goal:
    goal = thy.goal_named(name)
    if goal is None:
        available = ", ".join(g.name for g in thy.goals) or "(none)"
        _fail(f"unknown goal {name!r}; available goals: {available}")
    return goal


def _suite_from(path: Path | None) -> tuple[Heuristic, ...]:
    if path is None:
        return default_suite()
    return load_suite(_read(path), str(path))


def _timeout(ms: int) -> float | None:
    return None if ms <= 0 else ms / 1000.0


def _run_goal(goal: Goal, thy: Theory, suite, cap: int,
              timeout: float | None) -> tuple[ScreeningResult,
                                              list[ScoredCandidate]]:
    result = screen(goal, thy, cap=cap, timeout=timeout)
    index = GoalIndex(goal, thy)
    scored = score_all(
        [c for c, _ in result.finalists], suite,
        lambda c: make_context(goal, c, thy, index=index))
    return result, scored


def cmd_recommend(args) -> int:
    if args.top < 1:
        _fail("--top must be at least 1")
    if args.max_candidates < 1:
        _fail("--max-candidates must be at least 1")
    thy = _load_theory(args.file)
    if args.goal is not None:
        goal = _find_goal(thy, args.goal)
    else:
        term = parse_goal_expr(args.goal_expr, thy)
        premises, conclusion = split_implications(term)
        goal = Goal("expr", premises, conclusion)
    suite = _suite_from(args.heuristics)
    result, scored = _run_goal(goal, thy, suite, args.max_candidates,
                               _timeout(args.timeout_ms))
    top = shortlist(scored, args.top)
    if not scored:
        print(f"goal {goal.name}: no candidate survives screening "
              f"({result.report.summary()})", file=sys.stderr)
        return 2
    if args.as_json:
        for sc in top:
            print(json.dumps({
                "rank": sc.rank,
                "tactic_text": sc.candidate.tactic_text(),
                "score": sc.score,
                "verdicts": list(sc.verdicts),
            }))
        return 0
    print(f"goal {goal.name}: {format_goal(goal)}")
    print(f"screening: {result.report.summary()}")
    print(f"top {len(top)} of {len(scored)} finalists:")
    width = max(len(sc.candidate.tactic_text()) for sc in top)
    for sc in top:
        text = sc.candidate.tactic_text()
        print(f"  {sc.rank:>2}. {text:<{width}}  score={sc.score}")
    return 0


def cmd_explain(args) -> int:
    thy = _load_theory(args.file)
    goal = _find_goal(thy, args.goal)
    try:
        candidate = parse_candidate(args.tactic)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    suite = _suite_from(args.heuristics)
    result, scored = _run_goal(goal, thy, suite, DEFAULT_CAP, None)

    print(f"goal {goal.name}: {format_goal(goal)}")
    print(f"candidate: {candidate.tactic_text()}")
    disposition = _disposition_of(candidate, goal, thy, result)
    if disposition is not None:
        print(disposition)
        return 0
    entry = next((sc for sc in scored if sc.candidate == candidate), None)
    assert entry is not None
    width = max(len(h.name) for h in suite) if suite else 0
    for h, verdict in zip(suite, entry.verdicts):
        print(f"  {h.name:<{width}}  {'T' if verdict else 'F'}")
    print(f"score: {entry.score} / {len(suite)}")
    print(f"rank: {entry.rank} of {len(scored)}")
    return 0


def _disposition_of(candidate: Candidate, goal: Goal, thy: Theory,
                    result: ScreeningResult) -> str | None:
    for d in result.report.dispositions:
        if d.candidate == candidate:
            if d.status == "kept":
                return None
            if d.status == "stage1":
                return f"filtered: stage 1 ({d.error})"
            return (f"filtered: condition {d.condition} "
                    f"({CONDITION_NAMES[d.condition]})")
    # not enumerated (e.g. capped out); screen it directly
    try:
        subgoals = apply_induct(goal, candidate, thy, timeout=None)
    except TacticError as err:
        return f"filtered: stage 1 ({err.kind.value})"
    cond = stage2_condition(goal, subgoals)
    if cond is not None:
        return f"filtered: condition {cond} ({CONDITION_NAMES[cond]})"
    return "not enumerated (raise --max-candidates)"


# ---------------------------------------------------------------------------
# eval


def _parse_annotations(path: Path) -> list[Annotation]:
    out: list[Annotation] = []
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4:
            _fail(f"{path}:{lineno}: expected "
                  "'goal | tactic | rule:y/n | arb:y/n'")
        goal_name, tactic, rule_flag, arb_flag = parts
        try:
            candidate = parse_candidate(tactic)
        except ValueError as err:
            _fail(f"{path}:{lineno}: {err}")
        out.append(Annotation(
            goal_name, candidate,
            rule_used=rule_flag.endswith("yes"),
            arbitrary_used=arb_flag.endswith("yes")))
    return out


def _rank_of(annotation: Annotation, scored: list[ScoredCandidate],
             terms_only: bool) -> tuple[int | None, int | None]:
    """(rank, score) of the expert candidate, or (None, None) if it was
    screened out.  In terms-only mode the best-ranked candidate with the
    same induction terms counts."""
    expert = annotation.candidate
    for sc in scored:
        if terms_only:
            if sc.candidate.induction_terms == expert.induction_terms:
                return sc.rank, sc.score
        elif sc.candidate == expert:
            return sc.rank, sc.score
    return None, None


def cmd_eval(args) -> int:
    files = sorted(args.corpus_dir.glob("*.thy"))
    if not files:
        print(f"error: no .thy files in {args.corpus_dir}", file=sys.stderr)
        return 1
    theories: list[tuple[str, Theory]] = []
    goal_index: dict[str, tuple[str, Theory, Goal]] = {}
    for f in files:
        thy = _load_theory(f)
        label = f.stem
        theories.append((label, thy))
        for g in thy.goals:
            if g.name in goal_index:
                print(f"error: goal {g.name} declared in more than one "
                      "theory", file=sys.stderr)
                return 1
            goal_index[g.name] = (label, thy, g)

    annotations = _parse_annotations(args.annotations)
    for ann in annotations:
        if ann.goal_name not in goal_index:
            print(f"error: annotation names unknown goal {ann.goal_name}",
                  file=sys.stderr)
            return 1

    suite = default_suite()
    goal_rows: list[dict] = []
    coincidence: dict[str, CoincidenceRow] = {
        label: CoincidenceRow(label) for label, _ in theories}
    for ann in annotations:
        label, thy, goal = goal_index[ann.goal_name]
        result, scored = _run_goal(goal, thy, suite, DEFAULT_CAP,
                                   DEFAULT_TIMEOUT)
        rank, score = _rank_of(ann, scored, args.terms_only)
        counts = result.report.counts()
        disposition = "ranked" if rank is not None else \
            _disposition_of(ann.candidate, goal, thy, result)
        goal_rows.append({
            "theory": label,
            "goal": ann.goal_name,
            "line": goal.line,
            "total": counts["total"],
            "1st": counts["1st"],
            "2nd-a": counts["2nd-a"],
            "2nd-b": counts["2nd-b"],
            "nth": rank,
            "score": score,
            "rule": "yes" if ann.rule_used else "no",
            "arb": "yes" if ann.arbitrary_used else "no",
            "disposition": disposition,
        })
        coincidence[label].add(rank)

    rows = [coincidence[label] for label, _ in theories
            if coincidence[label].total > 0]
    total_row = CoincidenceRow("sum")
    total_row.total = sum(r.total for r in rows)
    for n in TOP_BUCKETS:
        total_row.hits[n] = sum(r.hits[n] for r in rows)

    if args.as_json:
        for row in goal_rows:
            print(json.dumps({"kind": "goal", **row}))
        for r in rows + [total_row]:
            print(json.dumps({
                "kind": "theory" if r.theory != "sum" else "sum",
                "theory": r.theory,
                "total": r.total,
                **{f"top_{n}": r.hits[n] for n in TOP_BUCKETS},
            }))
        return 0

    _print_goal_table(goal_rows)
    print()
    _print_coincidence_table(rows + [total_row])
    return 0


def _print_goal_table(rows: list[dict]) -> None:
    headers = ["theory", "line", "goal", "total", "1st", "2nd-a", "2nd-b",
               "nth", "score", "rule", "arb"]

    def cell(row: dict, h: str) -> str:
        v = row.get(h)
        if v is None:
            return "-"
        return str(v)

    widths = {h: max(len(h), *(len(cell(r, h)) for r in rows))
              for h in headers}
    print("  ".join(h.ljust(widths[h]) for h in headers).rstrip())
    for r in rows:
        line = "  ".join(cell(r, h).rjust(widths[h])
                         if h in ("line", "total", "1st", "2nd-a", "2nd-b",
                                  "nth", "score")
                         else cell(r, h).ljust(widths[h])
                         for h in headers)
        note = "" if r["disposition"] == "ranked" \
            else f"   [{r['disposition']}]"
        print(line.rstrip() + note)


def _print_coincidence_table(rows: list[CoincidenceRow]) -> None:
    def pct(hit: int, total: int) -> str:
        return f"{hit} ({100 * hit / total:.0f}%)" if total else "0"

    headers = ["theory", "total"] + [f"top_{n}" for n in TOP_BUCKETS]
    table = []
    for r in rows:
        table.append([r.theory, str(r.total)]
                     + [pct(r.hits[n], r.total) for n in TOP_BUCKETS])
    widths = [max(len(headers[i]), *(len(row[i]) for row in table))
              for i in range(len(headers))]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for row in table:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())


if __name__ == "__main__":
    sys.exit(main())
