"""Scoring finalists against a heuristic suite and short-listing.

Every heuristic is worth one point; a candidate's score is the number of
heuristics whose formula evaluates to True for it.  Candidates are then
reordered by score, descending, with ties broken by their original
pipeline position (stable), and ranks assigned from 1.

Scoring is serial.  A verdict depends only on the candidate fields its
formula reads (`Heuristic.reads`), so each heuristic is evaluated once
per distinct value of those fields.  Most heuristics read the induction
terms only through ``in induction_term``, that is, their set, so one
verdict serves every order of the same terms.  `score_all` works in
column passes: each read a group uses is one column over the candidates
(`dsl.CANDIDATE_READS`); heuristics that read the same fields form a
group, which evaluates each distinct key once, in pipeline order; and
`zip` joins the heuristics' verdict columns into one row per candidate.
These memos last for one `score_all` call; the memo of sub-formulas that
no candidate field but the number of induction terms changes is the goal
index's (`dsl.GoalIndex.memo`) and lasts as long as that index.
"""

from __future__ import annotations

from importlib import resources
from itertools import repeat
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence

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
    # heuristics that read the same candidate fields form one group, with
    # one memo from a key of those fields to the group's verdicts
    groups: dict[tuple[str, ...], list[int]] = {}
    for i, h in enumerate(suite):
        groups.setdefault(h.reads, []).append(i)
    # each read that a group uses as a column, one value per candidate
    column = {name: CANDIDATE_READS[name](candidates)
              for name in set().union(*groups)}

    def keys(reads: tuple[str, ...]) -> Iterable[tuple]:
        # zip reuses the tuple of a key that no memo keeps
        return zip(*[column[n] for n in reads]) if reads \
            else repeat((), len(candidates))

    contexts: dict[int, EvalContext] = {}
    verdicts: list = [None] * len(suite)    # heuristic -> verdict column
    for reads, members in groups.items():
        memo: dict = {}
        for index, key in enumerate(keys(reads)):
            if key not in memo:
                ctx = contexts.get(index)
                if ctx is None:
                    ctx = contexts[index] = ctx_factory(candidates[index])
                memo[key] = tuple([evaluate(suite[i].formula, ctx,
                                            suite[i].check)
                                   for i in members])
        found = list(map(memo.__getitem__, keys(reads)))
        for j, i in enumerate(members):
            verdicts[i] = list(map(itemgetter(j), found))
    rows = list(zip(*verdicts)) if suite else [()] * len(candidates)
    scores = list(map(sum, rows))
    # sorted is stable also in reverse, so ties keep pipeline order
    ranking = sorted(range(len(rows)), key=scores.__getitem__, reverse=True)
    return [ScoredCandidate(candidates[i], scores[i], rows[i], rank, i)
            for rank, i in enumerate(ranking, start=1)]


def shortlist(scored: Sequence[ScoredCandidate],
              k: int) -> list[ScoredCandidate]:
    if k < 1:
        raise ValueError("k must be positive")
    return list(scored[:k])
