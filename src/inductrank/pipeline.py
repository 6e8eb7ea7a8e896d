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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .schemes import rules_for
from .tactic import (
    DEFAULT_TIMEOUT, Candidate, InductTactic, SubgoalSet, TacticError,
)
from .terms import Goal, Theory, contains_schematic, contains_subterm, \
    goal_free_variables

DEFAULT_CAP = 10000

CONDITION_NAMES = {
    1: "identical subgoals",
    2: "conclusion embeds the goal without new premises",
    3: "schematic variable introduced",
}


@dataclass
class CandidateStream:
    """Lazy, deterministically ordered candidate sequence for one goal.

    Order: by induction-term count ascending (the empty sequence first),
    then by variable order within the goal, then by arbitrary-subset size
    ascending, then rule (absent first, then collected-rule order).
    """

    goal: Goal
    thy: Theory
    cap: int

    def __post_init__(self) -> None:
        if self.cap < 1:
            raise ValueError("cap must be positive")
        self.variables = [v.name for v in goal_free_variables(self.goal)]
        self.rule_names = [r.name for r in rules_for(self.goal, self.thy)]

    def __iter__(self) -> Iterator[Candidate]:
        return itertools.islice(self._generate(), self.cap)

    def _generate(self) -> Iterator[Candidate]:
        names = self.variables
        rules: list[str | None] = [None, *self.rule_names]
        for k in range(len(names) + 1):
            for seq in itertools.permutations(names, k):
                for j in range(len(names) + 1):
                    for arb in itertools.combinations(names, j):
                        for rule in rules:
                            yield Candidate(seq, frozenset(arb), rule)


def enumerate_candidates(goal: Goal, thy: Theory,
                         cap: int = DEFAULT_CAP) -> CandidateStream:
    return CandidateStream(goal, thy, cap)


@dataclass(frozen=True)
class Disposition:
    candidate: Candidate
    status: str                     # kept | stage1 | stage2
    error: str | None = None        # tactic error kind for stage1
    condition: int | None = None    # screening condition id for stage2


@dataclass(frozen=True)
class ScreenReport:
    generated: int
    stage1_survivors: int
    stage2a_survivors: int          # after conditions 1 and 2
    stage2_survivors: int           # after condition 3 as well
    dispositions: tuple[Disposition, ...]

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
    preserving stream order; errors become dispositions."""
    tactic = InductTactic(goal, thy)
    survivors: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate in stream:
        try:
            subgoals = tactic.apply(candidate, timeout)
        except TacticError as err:
            dispositions.append(
                Disposition(candidate, "stage1", error=err.kind.value))
            continue
        survivors.append((candidate, subgoals))
        dispositions.append(Disposition(candidate, "kept"))
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
        if schematic_free and any(contains_schematic(sg) for sg in gs):
            return 3
        return None
    return condition


def stage2(goal: Goal,
           survivors: list[tuple[Candidate, SubgoalSet]],
           ) -> tuple[list[tuple[Candidate, SubgoalSet]], list[Disposition]]:
    condition = _screen(goal)
    finalists: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate, subgoals in survivors:
        cond = condition(subgoals)
        if cond is None:
            finalists.append((candidate, subgoals))
            dispositions.append(Disposition(candidate, "kept"))
        else:
            dispositions.append(
                Disposition(candidate, "stage2", condition=cond))
    return finalists, dispositions


@dataclass
class ScreeningResult:
    finalists: list[tuple[Candidate, SubgoalSet]]
    report: ScreenReport


def screen(goal: Goal, thy: Theory, cap: int = DEFAULT_CAP,
           timeout: float | None = DEFAULT_TIMEOUT) -> ScreeningResult:
    """Run enumeration plus both screening stages."""
    stream = enumerate_candidates(goal, thy, cap)
    survivors, disp1 = stage1(goal, stream, thy, timeout)
    finalists, disp2 = stage2(goal, survivors)

    # stage 2 disposes of each stage-1 survivor once, in stage-1 order
    stage2_of_kept = iter(disp2)
    merged = [next(stage2_of_kept) if d.status == "kept" else d
              for d in disp1]
    stage2a = sum(1 for d in merged
                  if d.status == "kept"
                  or (d.status == "stage2" and d.condition == 3))
    report = ScreenReport(
        generated=len(merged),
        stage1_survivors=len(survivors),
        stage2a_survivors=stage2a,
        stage2_survivors=len(finalists),
        dispositions=tuple(merged),
    )
    return ScreeningResult(finalists, report)


def expected_candidate_count(n_vars: int, n_rules: int) -> int:
    """Closed form for the full (uncapped) candidate count:
    S(n) * 2^n * (1 + r) with S(n) = sum over k of n!/(n-k)!."""
    import math
    s = sum(math.factorial(n_vars) // math.factorial(n_vars - k)
            for k in range(n_vars + 1))
    return s * (2 ** n_vars) * (1 + n_rules)
