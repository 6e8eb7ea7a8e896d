"""Output checks that do not trust the code under test.

The checks run outside the timed region.  They rebuild the documented
candidate order and count on their own, parse the printed tactics on their
own, and compare every verdict of some printed finalists with the
brute-force oracle `ref_evaluate` from `tests/_reference.py`.  Each function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import itertools
import json
import math
import random

from _reference import ref_evaluate
from inductrank.tactic import Candidate
from inductrank.terms import App, Const, FreeVar, Goal

CAP = 10000             # the CLI's default --max-candidates
ORACLE_ROWS = 6         # finalists per goal checked on every heuristic


def candidate_order(variables, rules, cap: int) -> dict[tuple, int]:
    """Pipeline position of each candidate, in the documented order:
    induction-term count, then variable order, then arbitrary-subset size,
    then rule (none first)."""
    order: dict[tuple, int] = {}
    for k in range(len(variables) + 1):
        for seq in itertools.permutations(variables, k):
            for j in range(len(variables) + 1):
                for arb in itertools.combinations(variables, j):
                    for rule in (None, *rules):
                        if len(order) == cap:
                            return order
                        order[(seq, frozenset(arb), rule)] = len(order)
    return order


def candidate_count(n_vars: int, n_rules: int, cap: int) -> int:
    ordered = sum(math.perm(n_vars, k) for k in range(n_vars + 1))
    return min(cap, ordered * 2 ** n_vars * (1 + n_rules))


def parse_tactic(text: str) -> tuple:
    """(induction terms, arbitrary set, rule) of a printed tactic."""
    words = text.split()
    if not words or words[0] != "induct":
        raise ValueError(f"not an induct tactic: {text!r}")
    terms, arbitrary, rule = [], set(), None
    section = terms
    rest = iter(words[1:])
    for w in rest:
        if w == "arbitrary:":
            section = arbitrary
        elif w == "rule:":
            rule = next(rest)
        elif section is terms:
            terms.append(w)
        else:
            arbitrary.add(w)
    return tuple(terms), frozenset(arbitrary), rule


def goal_shape(goal: Goal, fun_names: set[str]) -> tuple[tuple, tuple]:
    """Free variables and rule names of `goal`, in first-occurrence order,
    from a pre-order walk of its premises and then its conclusion."""
    variables: list[str] = []
    rules: list[str] = []

    def walk(t) -> None:
        if isinstance(t, App):
            walk(t.fun)
            walk(t.arg)
        elif isinstance(t, FreeVar) and t.name not in variables:
            variables.append(t.name)
        elif (isinstance(t, Const) and t.name in fun_names
              and t.name + ".induct" not in rules):
            rules.append(t.name + ".induct")

    for root in (*goal.premises, goal.conclusion):
        walk(root)
    return tuple(variables), tuple(rules)


def check_ranking(lines: list[str], n_heuristics: int,
                  order: dict[tuple, int]) -> list[str]:
    """Ranks run 1, 2, ...; each score is the verdict sum; scores descend
    and ties keep pipeline order."""
    problems = []
    prev = None
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        verdicts = rec["verdicts"]
        key = parse_tactic(rec["tactic_text"])
        pos = order.get(key)
        if rec["rank"] != i:
            problems.append(f"rank {rec['rank']} at line {i}")
        if len(verdicts) != n_heuristics or rec["score"] != sum(verdicts):
            problems.append(f"rank {i}: score {rec['score']} does not sum "
                            f"{len(verdicts)} verdicts")
        if pos is None:
            problems.append(f"rank {i}: {rec['tactic_text']} is not an "
                            "enumerated candidate")
        elif prev is not None:
            prev_score, prev_pos = prev
            if (rec["score"] > prev_score
                    or (rec["score"] == prev_score and pos < prev_pos)):
                problems.append(f"rank {i}: out of order")
        prev = (rec["score"], pos if pos is not None else -1)
    return problems


def check_verdicts(lines: list[str], goal: Goal, thy, suite,
                   rng: random.Random) -> list[str]:
    """Compare every verdict of the first and the last printed finalist and
    of a seeded sample of the others with the oracle.  Given the full
    ranking, the last finalist has the lowest score, so false verdicts are
    checked too."""
    problems = []
    records = [json.loads(line) for line in lines]
    inner = records[1:-1]
    sample = (records[:1] + records[1:][-1:]
              + rng.sample(inner, min(ORACLE_ROWS - 2, len(inner))))
    for rec in sample:
        candidate = Candidate(*parse_tactic(rec["tactic_text"]))
        for h, verdict in zip(suite, rec["verdicts"]):
            expected = ref_evaluate(h.formula, goal, candidate, thy)
            if verdict != expected:
                problems.append(f"{rec['tactic_text']}: {h.name} printed "
                                f"{verdict}, oracle says {expected}")
    return problems
