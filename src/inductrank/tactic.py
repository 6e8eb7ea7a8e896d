"""Applying an induction candidate to a goal.

This is the desk-scale stand-in for a proof assistant's `induct` tactic:
it instantiates an induction scheme and returns the subgoals that the
screening and scoring stages inspect, or a `Failure` saying why there are
none.  Nothing here raises for a candidate.  No proof search happens here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from time import monotonic
from typing import NamedTuple

from .schemes import (
    InductionScheme, SchemeCase, scheme_for_rule_name, structural_scheme,
)
from .terms import (
    FreeVar, Goal, SchematicVar, SimpleType, Term, Theory,
    fresh_name, goal_free_variables, has_schematic, instantiate_term_types,
    match_type, mk_eq, mk_implies, subst_frees, subst_type,
)

DEFAULT_TIMEOUT = 0.1  # seconds per application


class TacticErrorKind(enum.Enum):
    NO_ARGUMENTS = "NoArguments"
    ARBITRARY_OVERLAPS_INDUCTION_TERM = "ArbitraryOverlapsInductionTerm"
    UNKNOWN_VARIABLE = "UnknownVariable"
    NON_DATATYPE_VARIABLE = "NonDatatypeVariable"
    RULE_ARITY_EXCEEDED = "RuleArityExceeded"
    UNKNOWN_RULE = "UnknownRule"
    TIMEOUT = "Timeout"


class Candidate(NamedTuple):
    """One combination of induct arguments: ordered induction terms, the
    set of variables to generalise, and an optional rule name."""

    induction_terms: tuple[str, ...]
    arbitrary: frozenset[str] = frozenset()
    rule: str | None = None

    def tactic_text(self) -> str:
        parts = ["induct", *self.induction_terms]
        if self.arbitrary:
            parts.append("arbitrary:")
            parts.extend(sorted(self.arbitrary))
        if self.rule is not None:
            parts.append("rule:")
            parts.append(self.rule)
        return " ".join(parts)


def parse_candidate(text: str) -> Candidate:
    """Parse the surface syntax
    ``induct v1 v2 ... [arbitrary: w1 ...] [rule: name]``."""
    tokens = text.replace("arbitrary:", " arbitrary: ") \
                 .replace("rule:", " rule: ").split()
    if not tokens or tokens[0] != "induct":
        raise ValueError(f"candidate must start with 'induct': {text!r}")
    terms: list[str] = []
    arbitrary: set[str] = set()
    rule: str | None = None
    section = "terms"
    i = 1
    while i < len(tokens):
        tok = tokens[i]
        if tok == "arbitrary:":
            section = "arbitrary"
        elif tok == "rule:":
            if i + 1 >= len(tokens):
                raise ValueError("rule: needs a rule name")
            rule = tokens[i + 1]
            i += 1
            section = "done"
        elif section == "terms":
            terms.append(tok)
        elif section == "arbitrary":
            arbitrary.add(tok)
        else:
            raise ValueError(f"unexpected token {tok!r} after rule")
        i += 1
    if len(set(terms)) != len(terms):
        raise ValueError("induction terms must be distinct")
    return Candidate(tuple(terms), frozenset(arbitrary), rule)


@dataclass(frozen=True)
class SubgoalSet:
    """The subgoals of one application, and whether any of them contains
    a schematic variable, which the tactic knows without walking them."""

    case_names: tuple[str, ...]
    subgoals: tuple[Goal, ...]
    schematic: bool = False


def apply_induct(goal: Goal, candidate: Candidate, thy: Theory,
                 timeout: float | None = DEFAULT_TIMEOUT,
                 ) -> SubgoalSet | Failure:
    """Apply an induction candidate to a goal; see `InductTactic.apply`.
    To apply many candidates to one goal, make one `InductTactic`."""
    return InductTactic(goal, thy).apply(candidate, timeout)


class Failure(NamedTuple):
    """Why an application failed.  The failures that depend only on the
    candidate's shape are shared constants, so that screening builds
    nothing for them."""

    kind: TacticErrorKind
    detail: str


_NO_ARGUMENTS = Failure(TacticErrorKind.NO_ARGUMENTS,
                        "no induction terms and no rule")
_OVERLAP = Failure(TacticErrorKind.ARBITRARY_OVERLAPS_INDUCTION_TERM,
                   "generalising an induction term")


@dataclass(frozen=True)
class _Case:
    """One case of an application before generalisation: the goal's
    conclusion under the case's substitution, under each induction
    hypothesis's, and the goal's premises under the case's; the schematic
    equations to wrap around the conclusion and around each hypothesis,
    innermost first; the names a generalised variable must avoid; and
    whether any of these terms contains a schematic variable, which
    generalising, a renaming of free variables, does not change."""

    name: str
    conclusion: Term
    hypotheses: tuple[Term, ...]
    premises: tuple[Term, ...]
    anchors: tuple[Term, ...]
    hyp_anchors: tuple[tuple[Term, ...], ...]
    used: frozenset[str]
    schematic: bool


class InductTactic:
    """The induct tactic on one goal.

    Holds what every application to the goal shares: the goal's free
    variables, in order and by name, and the schemes of the rules and
    datatypes named so far.  It memoises two things.  The instantiated
    cases of each (induction terms, rule) pair applied so far, or how
    they failed: the cases do not depend on `arbitrary`.  And the
    `SubgoalSet` of each (induction terms read, rule, `arbitrary`)
    applied so far, where structural mode reads only the first term:
    candidates that agree on these get the same object.  An application
    that exceeded its timeout is not memoised.
    """

    def __init__(self, goal: Goal, thy: Theory):
        self.goal = goal
        self.thy = thy
        self.variables = goal_free_variables(goal)
        self.by_name = {v.name: v for v in self.variables}
        self._rules: dict[str, InductionScheme | None] = {}
        self._structural: dict[str, InductionScheme] = {}
        self._cases: dict[tuple, tuple[_Case, ...] | Failure] = {}
        self._subgoals: dict[tuple, SubgoalSet] = {}

    def apply(self, candidate: Candidate,
              timeout: float | None = DEFAULT_TIMEOUT,
              ) -> SubgoalSet | Failure:
        """Apply an induction candidate to the goal: the subgoals, or the
        `Failure` saying why there are none.

        Structural mode (no rule): the first induction term drives the
        structural scheme of its datatype; further induction terms are left
        untouched (no simultaneous product induction).  Functional mode
        (rule given): the scheme's k-th position is instantiated with the
        k-th induction term; positions beyond the supplied terms are
        instantiated with fresh schematic variables, and each case
        conclusion records the unanchored positions as schematic equations
        wrapped around it, so the under-determination is visible to the
        screening stage.

        Variables in `arbitrary` are generalised per subgoal: the conclusion
        and the original premises share one fresh renaming, and every
        induction hypothesis gets its own fresh copies.

        `timeout` is wall-clock seconds (None = no limit).  The clock is
        read only when a timeout is set, and a memoised `SubgoalSet` is
        returned without a timeout check.
        """
        if timeout is not None:
            started = monotonic()
        terms, arbitrary, rule = candidate
        if not terms and rule is None:
            return _NO_ARGUMENTS
        if not arbitrary.isdisjoint(terms):
            return _OVERLAP
        for name in terms:
            if name not in self.by_name:
                return Failure(TacticErrorKind.UNKNOWN_VARIABLE,
                               f"{name} is not a free variable of the goal")

        if rule is None:
            terms = terms[:1]  # structural mode reads only the first one
        key = (terms, rule, arbitrary)
        result = self._subgoals.get(key)
        if result is not None:
            return result
        cases = self._cases.get((terms, rule))
        if cases is None:
            cases = self._cases[terms, rule] = \
                self._structural_mode(terms[0]) if rule is None \
                else self._functional_mode(terms, rule)
        if type(cases) is Failure:
            return cases

        generalised = [v for v in self.variables if v.name in arbitrary]
        result = SubgoalSet(tuple(c.name for c in cases),
                            tuple(self._subgoal(c, generalised)
                                  for c in cases),
                            any(c.schematic for c in cases))
        if timeout is not None and monotonic() - started > timeout:
            return Failure(TacticErrorKind.TIMEOUT,
                           f"exceeded {timeout * 1000:.0f} ms")
        self._subgoals[key] = result
        return result

    def _structural_mode(self, name: str) -> tuple[_Case, ...] | Failure:
        first = self.by_name[name]
        dt = None if first.type.is_var() else self.thy.datatype(
            first.type.name)
        if dt is None:
            return Failure(
                TacticErrorKind.NON_DATATYPE_VARIABLE,
                f"{first.name} has type {first.type}, which is not a "
                "datatype")
        scheme = self._structural.get(dt.name)
        if scheme is None:
            scheme = self._structural[dt.name] = structural_scheme(dt)
        tymap = dict(zip(dt.params, first.type.args))

        cases = []
        for case in scheme.cases:
            case = _instantiate_case(case, tymap)
            taken = set(self.by_name) - {first.name}
            renaming = _rename_case_vars(case, taken)
            introduced = {v.name for v in renaming.values()
                          if isinstance(v, FreeVar)}
            pattern = subst_frees(case.patterns[0], renaming)
            hyp_args = [subst_frees(h[0], renaming) for h in case.hypotheses]
            cases.append(self._case(
                case.name,
                concl_map={first.name: pattern},
                hyp_maps=[{first.name: arg} for arg in hyp_args],
                anchors=[],
                hyp_anchors=[[] for _ in hyp_args],
                taken=taken | introduced,
            ))
        return tuple(cases)

    def _functional_mode(self, terms: tuple[str, ...],
                         rule: str) -> tuple[_Case, ...] | Failure:
        if rule not in self._rules:
            self._rules[rule] = scheme_for_rule_name(rule, self.thy)
        scheme = self._rules[rule]
        if scheme is None:
            return Failure(TacticErrorKind.UNKNOWN_RULE,
                           f"no induction rule named {rule}")
        supplied = [self.by_name[n] for n in terms]
        if len(supplied) > scheme.arity:
            return Failure(
                TacticErrorKind.RULE_ARITY_EXCEEDED,
                f"{rule} has {scheme.arity} position(s), "
                f"got {len(supplied)} induction terms")

        tymap: dict[str, SimpleType] = {}
        for k, var in enumerate(supplied):
            if not match_type(scheme.positions[k], var.type, tymap):
                return Failure(
                    TacticErrorKind.NON_DATATYPE_VARIABLE,
                    f"{var.name} : {var.type} does not fit position "
                    f"{k + 1} of {rule} ({scheme.positions[k]})")

        positions = [subst_type(p, tymap) for p in scheme.positions]
        schematics = {
            k: SchematicVar(f"x{k + 1}", positions[k])
            for k in range(len(supplied), scheme.arity)
        }

        cases = []
        for case in scheme.cases:
            case = _instantiate_case(case, tymap)
            taken = set(self.by_name) - {v.name for v in supplied}
            renaming = _rename_case_vars(case, taken)
            introduced = {v.name for v in renaming.values()
                          if isinstance(v, FreeVar)}
            patterns = [subst_frees(p, renaming) for p in case.patterns]
            concl_map = {v.name: patterns[k] for k, v in enumerate(supplied)}
            anchors = [(schematics[k], patterns[k]) for k in schematics]
            hyp_maps = []
            hyp_anchors = []
            for hyp in case.hypotheses:
                args = [subst_frees(t, renaming) for t in hyp]
                hyp_maps.append(
                    {v.name: args[k] for k, v in enumerate(supplied)})
                hyp_anchors.append(
                    [(schematics[k], args[k]) for k in schematics])
            cases.append(self._case(
                case.name,
                concl_map=concl_map,
                hyp_maps=hyp_maps,
                anchors=anchors,
                hyp_anchors=hyp_anchors,
                taken=taken | introduced,
            ))
        return tuple(cases)

    def _case(self, case_name: str, concl_map: dict[str, Term],
              hyp_maps: list[dict[str, Term]],
              anchors: list[tuple[SchematicVar, Term]],
              hyp_anchors: list[list[tuple[SchematicVar, Term]]],
              taken: set[str]) -> _Case:
        goal = self.goal

        def equations(pairs: list[tuple[SchematicVar, Term]]) -> tuple:
            return tuple(mk_eq(schem, t) for schem, t in reversed(pairs))

        conclusion = subst_frees(goal.conclusion, concl_map)
        hypotheses = tuple(subst_frees(goal.conclusion, m) for m in hyp_maps)
        premises = tuple(subst_frees(p, concl_map) for p in goal.premises)
        return _Case(
            name=case_name,
            conclusion=conclusion,
            hypotheses=hypotheses,
            premises=premises,
            anchors=equations(anchors),
            hyp_anchors=tuple(equations(pairs) for pairs in hyp_anchors),
            used=frozenset(taken.union(self.by_name)),
            # an anchor equation holds a schematic variable; a recursive
            # call's argument in a rule, or the goal itself, may hold one
            schematic=bool(anchors) or any(
                map(has_schematic, (conclusion, *hypotheses, *premises))),
        )

    def _subgoal(self, case: _Case, generalised: list[FreeVar]) -> Goal:
        conclusion = case.conclusion
        hypotheses = case.hypotheses
        premises = case.premises
        if generalised:
            used = set(case.used)
            # `used` only grows, so the first free name for a variable is
            # never before the last one it got: the search resumes there
            last = {var.name: var.name for var in generalised}

            def fresh_renaming() -> dict[str, Term]:
                renaming: dict[str, Term] = {}
                for var in generalised:
                    new = last[var.name] = fresh_name(last[var.name], used)
                    used.add(new)
                    renaming[var.name] = FreeVar(new, var.type)
                return renaming

            # conclusion and original premises share one fresh renaming;
            # every induction hypothesis gets its own, in order
            concl_renaming = fresh_renaming()
            conclusion = subst_frees(conclusion, concl_renaming)
            hypotheses = tuple(subst_frees(h, fresh_renaming())
                               for h in hypotheses)
            premises = tuple(subst_frees(p, concl_renaming)
                             for p in premises)

        for eq in case.anchors:
            conclusion = mk_implies(eq, conclusion)
        wrapped = []
        for hyp, eqs in zip(hypotheses, case.hyp_anchors):
            for eq in eqs:
                hyp = mk_implies(eq, hyp)
            wrapped.append(hyp)
        return Goal(f"{self.goal.name}.{case.name}",
                    (*wrapped, *premises), conclusion)


def _instantiate_case(case: SchemeCase,
                      tymap: dict[str, SimpleType]) -> SchemeCase:
    if not tymap:
        return case
    fresh = tuple(FreeVar(v.name, subst_type(v.type, tymap))
                  for v in case.fresh_vars)
    hyps = tuple(tuple(instantiate_term_types(t, tymap) for t in h)
                 for h in case.hypotheses)
    pats = tuple(instantiate_term_types(t, tymap) for t in case.patterns)
    return SchemeCase(case.name, fresh, hyps, pats)


def _rename_case_vars(case: SchemeCase, taken: set[str]) -> dict[str, Term]:
    renaming: dict[str, Term] = {}
    used = set(taken)
    for v in case.fresh_vars:
        new = fresh_name(v.name, used)
        used.add(new)
        renaming[v.name] = FreeVar(new, v.type)
    return renaming
