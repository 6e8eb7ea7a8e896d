"""Scoring finalists against a heuristic suite and short-listing.

Every heuristic is worth one point; a candidate's score is the number of
heuristics whose formula evaluates to True for it.  Candidates are then
reordered by score, descending, with ties broken by their original
pipeline position (stable), and ranks assigned from 1.

Scoring is serial.  A verdict depends only on the candidate fields its
formula reads (`Heuristic.reads`), so each heuristic is evaluated once
per distinct value of those fields and the verdict reused for every other
candidate of the goal that shares it.  Heuristics that read the same
fields share one key, computed once per candidate, and one memo.  These
memos last for one `score_all` call; the memo of sub-formulas that no
candidate field but the number of induction terms changes is the goal
index's (`dsl.GoalIndex.memo`) and lasts as long as that index.
"""

from __future__ import annotations

from importlib import resources
from typing import Callable, NamedTuple, Sequence

from .dsl import (
    CANDIDATE_READS, Check, EvalContext, Formula, compile_formula, evaluate,
    parse_heuristics,
)
from .tactic import Candidate


class Heuristic(NamedTuple):
    """A named formula, its compiled test and what that test reads of the
    candidate, as `dsl.compile_formula` returns them."""

    name: str
    formula: Formula
    check: Check
    reads: tuple[str, ...]


class ScoredCandidate(NamedTuple):
    candidate: Candidate
    score: int
    verdicts: tuple[bool, ...]
    rank: int
    pipeline_index: int


def load_suite(text: str, file: str = "<heuristics>") -> tuple[Heuristic, ...]:
    """Parse a suite; formulas arrive closed and well-sorted or not at all.
    Atom arguments are bound variables or numerals, so no formula can name
    theory constants.  Each formula is compiled once, here."""
    return tuple(Heuristic(name, formula, *compile_formula(formula))
                 for name, formula in parse_heuristics(text, file))


def default_suite() -> tuple[Heuristic, ...]:
    text = (resources.files("inductrank") / "data" /
            "default.heuristics").read_text(encoding="utf-8")
    return load_suite(text, "default.heuristics")


def score_all(candidates: Sequence[Candidate],
              suite: Sequence[Heuristic],
              ctx_factory: Callable[[Candidate], EvalContext],
              ) -> list[ScoredCandidate]:
    """Score every candidate against every heuristic and sort by score.

    `candidates` must be in pipeline order; that order is the tie-break,
    and all of them must belong to the goal `ctx_factory` builds contexts
    for.  Each heuristic's verdicts are memoised for this call on the
    candidate fields its formula reads, and a context is built only for a
    candidate with at least one verdict not yet memoised.
    """
    # heuristics that read the same candidate fields share one key and
    # one memo, which maps the key to their verdicts
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, h in enumerate(suite):
        groups.setdefault(h.reads, []).append(i)
    plan = [([CANDIDATE_READS[n] for n in reads],
             [suite[i] for i in members], {})
            for reads, members in groups.items()]
    # a candidate's verdicts come group by group; heuristic i's is at
    # position[i] among them
    order = [i for members in groups.values() for i in members]
    position = sorted(range(len(order)), key=order.__getitem__)
    unranked = []
    for index, candidate in enumerate(candidates):
        ctx = None
        found: list[bool] = []
        for getters, members, memo in plan:
            key = tuple([get(candidate) for get in getters])
            verdicts = memo.get(key)
            if verdicts is None:
                if ctx is None:
                    ctx = ctx_factory(candidate)
                verdicts = memo[key] = [evaluate(h.formula, ctx, h.check)
                                        for h in members]
            found += verdicts
        verdicts = tuple([found[p] for p in position])
        unranked.append((candidate, sum(verdicts), verdicts, index))
    unranked.sort(key=lambda item: (-item[1], item[3]))
    return [
        ScoredCandidate(candidate, score, verdicts, rank, index)
        for rank, (candidate, score, verdicts, index)
        in enumerate(unranked, start=1)
    ]


def shortlist(scored: Sequence[ScoredCandidate],
              k: int) -> list[ScoredCandidate]:
    if k < 1:
        raise ValueError("k must be positive")
    return list(scored[:k])
