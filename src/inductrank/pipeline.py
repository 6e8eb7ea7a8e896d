"""Candidate enumeration and multi-stage screening.

Enumeration yields every combination of (ordered induction-term sequence,
arbitrary subset, optional rule), lazily and in a documented deterministic
order, truncated at a cap; past the empty sequence, C iterators build the
candidates.  Stage 1 keeps the candidates for which the induct tactic
produces subgoals.  It rejects a candidate that generalises one of its
own induction terms by one set test, without calling the tactic, since
that rejection depends on nothing but the candidate's shape (most
candidates of a many-variable goal).  Stage 2 drops a candidate when
its subgoals, with its `arbitrary` variables generalised, are such that

  1. two of them are structurally identical, or
  2. every one's conclusion embeds the original conclusion while none
     gained a new premise, or
  3. one contains a schematic variable although the goal had none.

Neither stage builds generalised subgoals: stage 1 keeps each survivor's
subgoals before generalisation, shared by every candidate of its
(induction terms, rule) case, and stage 2 decides the conditions from
them and from whether `arbitrary` is empty (see `stage2`).  Each stage
returns its survivors and a `Disposition` for each candidate it drops;
`screen` keeps only the counts and the finalists' candidates.
"""

from __future__ import annotations

import itertools
import sys
from typing import Callable, Iterable, Iterator, NamedTuple

from .schemes import rules_for
from .tactic import (
    Candidate, Failure, InductTactic, SubgoalSet, TacticErrorKind,
)
from .terms import Goal, Theory, contains_schematic, contains_subterm, \
    goal_free_variables

DEFAULT_CAP = 10000

_new = tuple.__new__  # a NamedTuple from all its fields, without a frame

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
    # no stream is longer than sys.maxsize, which `islice` requires of cap
    return itertools.islice(_generate(goal, thy), min(cap, sys.maxsize))


def _generate(goal: Goal, thy: Theory) -> Iterator[Candidate]:
    """Every candidate for `goal`, in `enumerate_candidates`' order.

    The empty induction-term sequence is a generator that builds one
    frozenset per arbitrary subset and records it, so that a small cap
    stops enumeration before the subsets of a many-variable goal are all
    built.  Every later sequence reuses those frozensets: its candidates
    are the C-level product of (sequence, subset, rule), each made a
    `Candidate` by `tuple.__new__`, which is `Candidate._make` without a
    Python frame.
    """
    names = [v.name for v in goal_free_variables(goal)]
    rules: list[str | None] = [None, *rules_for(goal, thy)]
    subsets: list[frozenset[str]] = []

    def empty_sequence() -> Iterator[Candidate]:
        for j in range(len(names) + 1):
            for combination in itertools.combinations(names, j):
                arb = frozenset(combination)
                subsets.append(arb)
                for rule in rules:
                    yield Candidate((), arb, rule)

    sequences = itertools.chain.from_iterable(
        itertools.permutations(names, k) for k in range(1, len(names) + 1))
    # each product is made only once the empty sequence has filled `subsets`
    later = itertools.chain.from_iterable(
        itertools.product((seq,), subsets, rules) for seq in sequences)
    return itertools.chain(
        empty_sequence(),
        map(_new, itertools.repeat(Candidate), later))


class Disposition(NamedTuple):
    """A candidate a screening stage dropped, and why."""

    candidate: Candidate
    status: str                     # stage1 | stage2
    error: str | None = None        # tactic error kind for stage1
    condition: int | None = None    # screening condition id for stage2


_OVERLAP_ERROR = TacticErrorKind.ARBITRARY_OVERLAPS_INDUCTION_TERM.value


class ScreenReport(NamedTuple):
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
           ) -> tuple[list[tuple[Candidate, SubgoalSet]], list[Disposition]]:
    """Keep candidates whose tactic application returns subgoals,
    preserving stream order; failures become dispositions.

    Each survivor carries its subgoals before generalisation
    (`InductTactic.apply_case`).  One tactic serves the whole stream, so
    the survivors of one (induction terms read, rule) case share one
    `SubgoalSet`, whatever they generalise.

    A candidate that generalises one of its induction terms is rejected
    here, without a tactic call, with the failure `apply_case` would
    return.  The order of checks is the tactic's: a candidate without
    induction terms never overlaps, so its `NoArguments` comes first, and
    `apply_case` tests the overlap before any name is looked up.
    """
    apply = InductTactic(goal, thy).apply_case
    survivors: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate in stream:
        terms, arbitrary, _ = candidate
        if not arbitrary.isdisjoint(terms):
            dispositions.append(_new(Disposition, (
                candidate, "stage1", _OVERLAP_ERROR, None)))
            continue
        outcome = apply(candidate)
        if type(outcome) is Failure:
            # `_value_` is a plain attribute; `value` is a Python property
            dispositions.append(_new(Disposition, (
                candidate, "stage1", outcome.kind._value_, None)))
        else:
            survivors.append((candidate, outcome))
    return survivors, dispositions


def stage2_condition(goal: Goal, subgoals: SubgoalSet) -> int | None:
    """First screening condition a candidate's subgoals violate, if any:
    all three conditions, decided on the subgoals as given."""
    return _screen(goal)(subgoals, False)


def _screen(goal: Goal) -> Callable[[SubgoalSet, bool], int | None]:
    """The first condition violated by a set of subgoals before
    generalisation, given whether the candidate generalises any variable,
    with what it reads of the goal computed once."""
    original = set(goal.premises)
    schematic_free = not contains_schematic(goal)

    def condition(subgoals: SubgoalSet, generalised: bool) -> int | None:
        gs = subgoals.subgoals
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                if (gs[i].premises == gs[j].premises
                        and gs[i].conclusion == gs[j].conclusion):
                    return 1
        if not generalised:
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
    preserving order; the others become dispositions.

    A survivor carries its case's subgoals before generalisation, and
    generalising renames each `arbitrary` variable, per subgoal, to fresh
    names that avoid the goal's variables and the subgoal's.  Each
    condition reads the same on both forms, except that condition 2 never
    holds on a generalised one, so a set gets at most two verdicts:

    - Condition 3 reads `SubgoalSet.schematic`, which a renaming keeps.
    - Condition 1.  Every case variable occurs in its subgoal, which holds
      the case's argument tuple (`schemes.py`: a constructor's arguments
      or an equation's left-hand side) at the goal's induction terms or in
      anchor equations.  So the names a renaming avoids, the goal's and
      the subgoal's, are the goal's and the case's variables, and two
      equal subgoals get the same renamings.  Conversely a renaming keeps
      structure and never touches a case variable, so two equal
      generalised subgoals hold the same argument tuple, hence the same
      case variables and renamings.
    - Condition 2.  A generalised variable is a goal variable but not an
      induction term, so no case variable bears its name.  If it occurs in
      the goal's conclusion, no generalised conclusion holds the goal's;
      else each subgoal holds a renamed premise that the goal lacks.
      Every scheme has a case, so some subgoal fails the condition.  An
      induction hypothesis, which carries the goal's premises under its
      own renaming, takes no part in this argument.
    """
    condition = _screen(goal)
    verdicts: dict[tuple[SubgoalSet, bool], int | None] = {}
    finalists: list[tuple[Candidate, SubgoalSet]] = []
    dispositions: list[Disposition] = []
    for candidate, subgoals in survivors:
        key = subgoals, bool(candidate.arbitrary)
        if key not in verdicts:
            verdicts[key] = condition(subgoals, key[1])
        cond = verdicts[key]
        if cond is None:
            finalists.append((candidate, subgoals))
        else:
            dispositions.append(
                Disposition(candidate, "stage2", condition=cond))
    return finalists, dispositions


def screen(goal: Goal, thy: Theory, cap: int = DEFAULT_CAP) -> ScreenReport:
    """Run enumeration plus both screening stages."""
    survivors, dropped1 = stage1(goal, enumerate_candidates(goal, thy, cap),
                                 thy)
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
