"""Applying an induction candidate to a goal.

This is the desk-scale stand-in for a proof assistant's `induct` tactic:
it instantiates an induction scheme and returns the subgoals, or a
`Failure` saying why there are none.  As in Isabelle, induction without a
rule is rule induction with the datatype's own one-position rule, so the
two differ only in how the scheme is found; one path fits and
instantiates either.  A case is its subgoals before generalisation
(`InductTactic.apply_case`), which screening reads, and generalising
renames variables in them.  Nothing here raises for a candidate.  No
proof search happens here.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .schemes import (
    InductionScheme, SchemeCase, scheme_for_rule_name, structural_scheme,
)
from .terms import (
    DatatypeDef, FreeVar, Goal, SchematicVar, SimpleType, Term, Theory,
    contains_schematic, fresh_name, goal_free_variables,
    instantiate_term_types, match_type, mk_eq, mk_implies, subst_frees,
    subst_type,
)


class TacticErrorKind(enum.Enum):
    NO_ARGUMENTS = "NoArguments"
    ARBITRARY_OVERLAPS_INDUCTION_TERM = "ArbitraryOverlapsInductionTerm"
    UNKNOWN_VARIABLE = "UnknownVariable"
    NON_DATATYPE_VARIABLE = "NonDatatypeVariable"
    RULE_ARITY_EXCEEDED = "RuleArityExceeded"
    UNKNOWN_RULE = "UnknownRule"


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
        if tok == "arbitrary:" and section != "done":
            if section == "arbitrary":
                raise ValueError("arbitrary: given more than once")
            section = "arbitrary"
        elif tok == "rule:":
            if rule is not None:
                raise ValueError("rule: given more than once")
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


class SubgoalSet(NamedTuple):
    """The subgoals of one application, and whether any of them contains
    a schematic variable, which the tactic knows without walking them."""

    case_names: tuple[str, ...]
    subgoals: tuple[Goal, ...]
    schematic: bool = False


def apply_induct(goal: Goal, candidate: Candidate,
                 thy: Theory) -> SubgoalSet | Failure:
    """Apply an induction candidate to a goal; see `InductTactic.apply`.
    To apply many candidates to one goal, make one `InductTactic`."""
    return InductTactic(goal, thy).apply(candidate)


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


def _unknown(name: str) -> Failure:
    return Failure(TacticErrorKind.UNKNOWN_VARIABLE,
                   f"{name} is not a free variable of the goal")


class InductTactic:
    """The induct tactic on one goal.

    As in Isabelle, induction without a rule is rule induction with the
    first induction term's datatype rule, so both modes differ only in how
    the scheme is found.  Fitting is one path (`_fit`): the arity check,
    the type match of each induction term with its position, and
    `_instantiate`, which wraps each case's anchor equations once.  This
    is the one place that builds a scheme; elsewhere a rule is its name.

    The tactic holds what every application to the goal shares: the goal's
    free variables, in order and by name, whether the goal has a schematic
    variable, one scheme per rule name or datatype named so far, and, per
    (induction terms read, rule) case applied so far, the case's
    `SubgoalSet` before generalisation or the `Failure` it gives.  Neither
    depends on `arbitrary`, so `apply_case` gives every candidate of one
    case the same object, and `apply` generalises from that set alone.
    """

    def __init__(self, goal: Goal, thy: Theory):
        self.goal = goal
        self.thy = thy
        self.variables = goal_free_variables(goal)
        self.by_name = {v.name: v for v in self.variables}
        self._names = frozenset(self.by_name)
        self._schematic_goal = contains_schematic(goal)
        # by rule name, or by the datatype itself, which equals no name
        self._schemes: dict[str | DatatypeDef, InductionScheme | Failure] = {}
        self._cases: dict[tuple, SubgoalSet | Failure] = {}

    def apply(self, candidate: Candidate) -> SubgoalSet | Failure:
        """Apply an induction candidate to the goal: the subgoals, or the
        `Failure` saying why there are none.

        The scheme is the rule's with a rule, and without one the
        one-position rule of the first induction term's datatype; further
        induction terms are then left untouched (no simultaneous product
        induction).  Either way the scheme's k-th position is instantiated
        with the k-th induction term.  Positions beyond the supplied terms,
        which only a rule can have, are instantiated with fresh schematic
        variables, and each case records them as schematic equations
        wrapped around its conclusion and hypotheses, so the
        under-determination is visible to the screening stage.

        Variables in `arbitrary` are generalised per subgoal of
        `apply_case`'s set: the conclusion and the goal's premises share
        one fresh renaming, and every induction hypothesis gets its own
        fresh copies.  With `arbitrary` empty the result is that shared
        set; otherwise the generalised set is built anew on each call.
        """
        plain = self.apply_case(candidate)
        arbitrary = candidate.arbitrary
        if type(plain) is Failure or not arbitrary:
            return plain
        generalised = [v for v in self.variables if v.name in arbitrary]
        return plain._replace(subgoals=tuple(
            self._generalise(sg, generalised) for sg in plain.subgoals))

    def apply_case(self, candidate: Candidate) -> SubgoalSet | Failure:
        """The subgoals of the candidate's (induction terms read, rule)
        case before generalisation, or the `Failure` that `apply` returns,
        memoised as they are.  Candidates that differ only in `arbitrary`,
        or in the terms that induction without a rule does not read, get
        the same object."""
        terms, arbitrary, rule = candidate
        if not terms and rule is None:
            return _NO_ARGUMENTS
        if not arbitrary.isdisjoint(terms):
            return _OVERLAP
        if not self._names.issuperset(terms):
            return _unknown(next(n for n in terms if n not in self._names))
        if not arbitrary <= self._names:
            return _unknown(min(arbitrary - self._names))

        if rule is None:
            terms = terms[:1]  # the datatype's rule reads only the first
        entry = self._cases.get((terms, rule))
        if entry is None:
            entry = self._cases[terms, rule] = self._fit(terms, rule)
        return entry

    def _fit(self, terms: tuple[str, ...],
             rule: str | None) -> SubgoalSet | Failure:
        """The case of `terms` under the scheme of `rule`, or without a
        rule under that of the first term's datatype."""
        supplied = [self.by_name[n] for n in terms]
        key = rule
        if rule is None:
            ty = supplied[0].type
            key = None if ty.is_var() else self.thy.datatype(ty.name)
            if key is None:
                return Failure(
                    TacticErrorKind.NON_DATATYPE_VARIABLE,
                    f"{supplied[0].name} has type {ty}, which is not a "
                    "datatype")
        scheme = self._schemes.get(key)
        if scheme is None:
            if rule is None:
                scheme = structural_scheme(key)
            else:
                scheme = scheme_for_rule_name(rule, self.thy) or Failure(
                    TacticErrorKind.UNKNOWN_RULE,
                    f"no induction rule named {rule}")
            self._schemes[key] = scheme
        if type(scheme) is Failure:
            return scheme
        if len(supplied) > scheme.arity:
            return Failure(
                TacticErrorKind.RULE_ARITY_EXCEEDED,
                f"{scheme.name} has {scheme.arity} position(s), "
                f"got {len(supplied)} induction terms")
        tymap: dict[str, SimpleType] = {}
        for k, var in enumerate(supplied):
            if not match_type(scheme.positions[k], var.type, tymap):
                return Failure(
                    TacticErrorKind.NON_DATATYPE_VARIABLE,
                    f"{var.name} : {var.type} does not fit position "
                    f"{k + 1} of {scheme.name} ({scheme.positions[k]})")
        return self._instantiate(scheme, supplied, tymap)

    def _instantiate(self, scheme: InductionScheme, supplied: list[FreeVar],
                     tymap: dict[str, SimpleType]) -> SubgoalSet:
        """The subgoals of `scheme` with its k-th position instantiated by
        the k-th supplied variable, its type variables by `tymap`, and its
        case variables renamed apart from the goal's other variables.  Each
        position beyond the supplied ones becomes a schematic variable
        ``?xk``, anchored to the case's argument there by an equation
        ``?xk = arg`` that is wrapped around the conclusion and around each
        hypothesis, ``?x1`` outermost.  A subgoal is the hypotheses, then
        the goal's premises under the case's substitution, then its
        conclusion."""
        goal = self.goal
        names = [v.name for v in supplied]
        schematics = [SchematicVar(f"x{k + 1}",
                                   subst_type(scheme.positions[k], tymap))
                      for k in range(len(names), scheme.arity)]
        taken = set(self.by_name).difference(names)
        subgoals = []
        for case in scheme.cases:
            case = _instantiate_case(case, tymap)
            renaming: dict[str, Term] = {}
            used = set(taken)
            for v in case.fresh_vars:
                new = fresh_name(v.name, used)
                used.add(new)
                renaming[v.name] = FreeVar(new, v.type)
            # the conclusion's argument tuple, then each hypothesis's: a
            # substitution for the supplied variables gives the conclusion
            # or the hypothesis, and the anchor equations of the tuple's
            # schematic positions wrap it, ?x1 outermost
            maps, terms = [], []
            for args in (case.patterns, *case.hypotheses):
                args = [subst_frees(t, renaming) for t in args]
                maps.append(dict(zip(names, args)))
                t = self._hypothesis(maps[-1]) if terms \
                    else subst_frees(goal.conclusion, maps[0])
                for x, arg in reversed([*zip(schematics, args[len(names):])]):
                    t = mk_implies(mk_eq(x, arg), t)
                terms.append(t)
            premises = (subst_frees(p, maps[0]) for p in goal.premises)
            subgoals.append(Goal(f"{goal.name}.{case.name}",
                                 (*terms[1:], *premises), terms[0]))
        # No scheme term holds a schematic variable, and generalising is
        # a renaming of free variables, so a subgoal holds one exactly when
        # the scheme has a schematic position or the goal holds one.
        return SubgoalSet(tuple(c.name for c in scheme.cases),
                          tuple(subgoals),
                          self._schematic_goal or bool(schematics))

    def _hypothesis(self, m: dict[str, Term]) -> Term:
        """The goal under the substitution `m`, its premises as
        implications, as Isabelle's induct puts them into the induction
        predicate."""
        hyp = subst_frees(self.goal.conclusion, m)
        for p in reversed(self.goal.premises):
            hyp = mk_implies(subst_frees(p, m), hyp)
        return hyp

    def _generalise(self, sg: Goal, generalised: list[FreeVar]) -> Goal:
        """`sg` with each generalised variable renamed to a fresh name: the
        conclusion and the goal's premises, the last premises of `sg`,
        share one renaming, and each induction hypothesis before them gets
        its own, in order.  A fresh name avoids the goal's variables and
        the subgoal's, which include every case variable."""
        used = {v.name for v in goal_free_variables(sg)}
        used.update(self._names)

        def fresh_renaming() -> dict[str, Term]:
            renaming: dict[str, Term] = {}
            for var in generalised:
                new = fresh_name(var.name, used)
                used.add(new)
                renaming[var.name] = FreeVar(new, var.type)
            return renaming

        shared = fresh_renaming()
        conclusion = subst_frees(sg.conclusion, shared)
        n = len(sg.premises) - len(self.goal.premises)
        hypotheses = [subst_frees(h, fresh_renaming())
                      for h in sg.premises[:n]]
        premises = [subst_frees(p, shared) for p in sg.premises[n:]]
        return Goal(sg.name, (*hypotheses, *premises), conclusion)


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
