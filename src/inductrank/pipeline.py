"""Candidate enumeration and multi-stage screening.

Enumeration yields every combination of (ordered induction-term sequence,
arbitrary subset, optional rule), lazily and in a documented deterministic
order, truncated at a cap.  Stage 1 keeps the candidates for which the
induct tactic produces subgoals within a timeout.  Stage 2 drops a
candidate when

  1. two of its subgoals are structurally identical, or
  2. every subgoal's conclusion embeds the original conclusion while no
     subgoal gained a new premise, or
  3. a subgoal contains a schematic variable although the goal had none.

Each stage returns its survivors and a `Disposition` for each candidate
it drops; `screen` keeps only the counts and the finalists' candidates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .schemes import rules_for
from .tactic import (
    DEFAULT_TIMEOUT, Candidate, Failure, InductTactic, SubgoalSet,
)
from .terms import Goal, Theory, contains_schematic, contains_subterm, \
    goal_free_variables

DEFAULT_CAP = 10000

CONDITION_NAMES = {
    1: "identical subgoals",
    2: "conclusion embeds the goal without new premises",
    3: "schematic variable introduced",
}


def enumerate_candidates(goal: Goal, thy: Theory,
                         cap: int = DEFAULT_CAP) -> Iterator[Candidate]:
    """The first `cap` candidates for `goal`, lazily.

    Order: by induction-term count ascending (the empty sequence first),
    then by variable order within the goal, then by arbitrary-subset size
    ascending, then rule (absent first, then collected-rule order).
    """
    if cap < 1:
        raise ValueError("cap must be positive")
    return itertools.islice(_generate(goal, thy), cap)


def _generate(goal: Goal, thy: Theory) -> Iterator[Candidate]:
    names = [v.name for v in goal_free_variables(goal)]
    rules: list[str | None] = [None, *(r.name for r in rules_for(goal, thy))]
    # One frozenset per arbitrary subset, built while the empty sequence
    # walks the subsets and reused by every later sequence, so a cap
    # still stops enumeration early.
    subsets: list[frozenset[str]] = []
    for j in range(len(names) + 1):
        for combination in itertools.combinations(names, j):
            arb = frozenset(combination)
            subsets.append(arb)
            for rule in rules:
                yield Candidate((), arb, rule)
    for k in range(1, len(names) + 1):
        for seq in itertools.permutations(names, k):
            for arb in subsets:
                for rule in rules:
                    yield Candidate(seq, arb, rule)


class Disposition(NamedTuple):
    """A candidate a screening stage dropped, and why."""

    candidate: Candidate
    status: str                     # stage1 | stage2
    error: str | None = None        # tactic error kind for stage1
    condition: int | None = None    # screening condition id for stage2


@dataclass(frozen=True)
class ScreenReport:
    generated: int
    stage1_survivors: int
    stage2a_survivors: int          # after conditions 1 and 2
    stage2_survivors: int           # after condition 3 as well
    finalists: tuple[Candidate, ...]  # in pipeline order

    def counts(self) -> dict[str, int]:
        return {
            "total": self.generated,
            "1st": self.stage1_survivors,
            "2nd-a": self.stage2a_survivors,
            "2nd-b": self.stage2_survivors,
        }

    def summary(self) -> str:
        c = self.counts()
        return (f"generated={c['total']} stage1={c['1st']} "
                f"2nd-a={c['2nd-a']} 2nd-b={c['2nd-b']}")


def stage1(goal: Goal, stream: Iterable[Candidate], thy: Theory,
           timeout: float | None = DEFAULT_TIMEOUT,
           ) -> tuple[list[tuple[Candidate, SubgoalSet]], list[Disposition]]:
    """Keep candidates whose tactic application returns subgoals in time,
    preserving stream order; failures become dispositions.

    One tactic serves the whole stream, so candidates that agree on what
    the tactic reads share one memoised `SubgoalSet`.
    """
    apply = InductTactic(goal, thy).apply
    survivors: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate in stream:
        outcome = apply(candidate, timeout)
        if type(outcome) is Failure:
            dispositions.append(
                Disposition(candidate, "stage1", error=outcome.kind.value))
        else:
            survivors.append((candidate, outcome))
    return survivors, dispositions


def stage2_condition(goal: Goal, subgoals: SubgoalSet) -> int | None:
    """First screening condition a candidate's subgoals violate, if any."""
    return _screen(goal)(subgoals)


def _screen(goal: Goal) -> Callable[[SubgoalSet], int | None]:
    """`stage2_condition` for one goal, with what it reads of the goal
    computed once."""
    original = set(goal.premises)
    schematic_free = not contains_schematic(goal)

    def condition(subgoals: SubgoalSet) -> int | None:
        gs = subgoals.subgoals
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                if (gs[i].premises == gs[j].premises
                        and gs[i].conclusion == gs[j].conclusion):
                    return 1
        if original:
            no_new_premise = all(p in original
                                 for sg in gs for p in sg.premises)
        else:
            no_new_premise = not any(sg.premises for sg in gs)
        if no_new_premise and all(
                contains_subterm(sg.conclusion, goal.conclusion)
                for sg in gs):
            return 2
        if schematic_free and subgoals.schematic:
            return 3
        return None
    return condition


def stage2(goal: Goal,
           survivors: list[tuple[Candidate, SubgoalSet]],
           ) -> tuple[list[tuple[Candidate, SubgoalSet]], list[Disposition]]:
    """Keep the survivors whose subgoals violate no screening condition,
    preserving order; the others become dispositions.  The condition is
    computed once per distinct `SubgoalSet` object: stage 1 shares one
    among candidates that agree on what the tactic reads."""
    condition = _screen(goal)
    by_set: dict[int, int | None] = {}  # by id; survivors keep them alive
    finalists: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate, subgoals in survivors:
        key = id(subgoals)
        if key not in by_set:
            by_set[key] = condition(subgoals)
        cond = by_set[key]
        if cond is None:
            finalists.append((candidate, subgoals))
        else:
            dispositions.append(
                Disposition(candidate, "stage2", condition=cond))
    return finalists, dispositions


def screen(goal: Goal, thy: Theory, cap: int = DEFAULT_CAP,
           timeout: float | None = DEFAULT_TIMEOUT) -> ScreenReport:
    """Run enumeration plus both screening stages."""
    survivors, dropped1 = stage1(goal, enumerate_candidates(goal, thy, cap),
                                 thy, timeout)
    finalists, dropped2 = stage2(goal, survivors)
    return ScreenReport(
        generated=len(survivors) + len(dropped1),
        stage1_survivors=len(survivors),
        stage2a_survivors=len(finalists) + sum(d.condition == 3
                                               for d in dropped2),
        stage2_survivors=len(finalists),
        finalists=tuple(c for c, _ in finalists),
    )


def expected_candidate_count(n_vars: int, n_rules: int) -> int:
    """Closed form for the full (uncapped) candidate count:
    S(n) * 2^n * (1 + r) with S(n) = sum over k of n!/(n-k)!."""
    import math
    s = sum(math.factorial(n_vars) // math.factorial(n_vars - k)
            for k in range(n_vars + 1))
    return s * (2 ** n_vars) * (1 + n_rules)
