"""Induction scheme derivation.

Structural schemes follow a datatype's constructors: one case per
constructor, one induction hypothesis per recursive constructor argument.
Functional schemes follow a `fun` definition's equations: one case per
equation, one hypothesis per recursive call site on that equation's
right-hand side (collected in leftmost-outermost order).

Schemes are derived purely syntactically; termination is never checked
because they only drive subgoal generation for screening.

Outside the tactic a rule is its name, such as ``itrev.induct``:
`rules_for` lists the names a goal's constants carry, and `rule_fundef`
resolves a name to the definition behind it.  Only the tactic builds a
rule's scheme.
"""

from __future__ import annotations

from typing import NamedTuple

from .terms import (
    Const, DatatypeDef, FreeVar, FunDef, Goal, SimpleType, Term, Theory,
    format_term, free_variables, goal_subterms, mk_app, spine,
    subterms_with_paths, term_type,
)

RULE_SUFFIX = ".induct"


class SchemeError(Exception):
    pass


class SchemeCase(NamedTuple):
    name: str
    fresh_vars: tuple[FreeVar, ...]
    # each inner tuple is one induction hypothesis: the argument tuple it
    # instantiates the goal with (length = scheme arity)
    hypotheses: tuple[tuple[Term, ...], ...]
    patterns: tuple[Term, ...]


class InductionScheme(NamedTuple):
    name: str
    arity: int
    positions: tuple[SimpleType, ...]
    cases: tuple[SchemeCase, ...]


_CASE_NAME_FALLBACK = {"[]": "Nil", "#": "Cons"}


def _case_name(ctor_name: str) -> str:
    return _CASE_NAME_FALLBACK.get(ctor_name, ctor_name)


def _stem(ty: SimpleType) -> str:
    if ty.is_var():
        return "x"
    if ty.name == "list":
        return "xs"
    if ty.name == "nat":
        return "n"
    return ty.name[0]


def _case_var_names(arg_types: tuple[SimpleType, ...]) -> list[str]:
    stems = [_stem(t) for t in arg_types]
    names: list[str] = []
    for i, s in enumerate(stems):
        if stems.count(s) > 1:
            names.append(f"{s}{stems[:i].count(s) + 1}")
        else:
            names.append(s)
    return names


def structural_scheme(d: DatatypeDef) -> InductionScheme:
    """One case per constructor; a hypothesis for every constructor argument
    whose type is the datatype itself."""
    if not d.constructors:
        raise SchemeError(f"datatype {d.name} has no constructors")
    generic = d.generic_type()
    cases = []
    for ctor in d.constructors:
        names = _case_var_names(ctor.arg_types)
        fresh = tuple(FreeVar(n, t) for n, t in zip(names, ctor.arg_types))
        hyps = tuple((v,) for v in fresh if v.type == generic)
        pattern = mk_app(Const(ctor.name, d.constructor_type(ctor)), *fresh)
        cases.append(SchemeCase(_case_name(ctor.name), fresh, hyps, (pattern,)))
    return InductionScheme(f"{d.name}{RULE_SUFFIX}", 1, (generic,),
                           tuple(cases))


def functional_scheme(f: FunDef) -> InductionScheme:
    """One case per defining equation; hypotheses are the argument tuples of
    every fully-applied recursive call in the equation's right-hand side."""
    if not f.has_induction_rule:
        raise SchemeError(f"{f.name} carries no induction rule")
    arity = f.arity()
    if arity == 0:
        raise SchemeError(f"{f.name} takes no arguments")
    # position types come from the equations, so their type variables line
    # up with the case patterns (equations are canonicalised uniformly)
    positions = tuple(term_type(a) for a in f.equations[0].lhs_args())
    cases = []
    for i, eq in enumerate(f.equations, start=1):
        patterns = eq.lhs_args()
        fresh = tuple(free_variables(eq.lhs))
        hyps = []
        for _, node in subterms_with_paths(eq.rhs):
            head, args = spine(node)
            if (isinstance(head, Const) and head.name == f.name
                    and len(args) == arity):
                hyps.append(tuple(args))
        cases.append(SchemeCase(str(i), fresh, tuple(hyps), patterns))
    return InductionScheme(f"{f.name}{RULE_SUFFIX}", arity, positions,
                           tuple(cases))


def rule_fundef(name: str, thy: Theory) -> FunDef | None:
    """The definition behind the rule `name`: the `fun` named by
    `name` less its `.induct` suffix, if it has at least one argument
    position.  Otherwise None: `name` is not an induction rule."""
    if not name.endswith(RULE_SUFFIX):
        return None
    f = thy.fundef(name[: -len(RULE_SUFFIX)])
    if f is None or not f.has_induction_rule or f.arity() == 0:
        return None
    return f


def rules_for(goal: Goal, thy: Theory) -> list[str]:
    """The names of the rules of the constants occurring in the goal, in
    first-occurrence order; no scheme is built.  Structural rules are not
    listed; they are implicit in variable-only candidates."""
    names = dict.fromkeys(t.name + RULE_SUFFIX for t in goal_subterms(goal)
                          if isinstance(t, Const))
    return [rule for rule in names if rule_fundef(rule, thy) is not None]


def scheme_for_rule_name(name: str, thy: Theory) -> InductionScheme | None:
    f = rule_fundef(name, thy)
    return None if f is None else functional_scheme(f)


def format_scheme(s: InductionScheme) -> str:
    lines = [f"{s.name} ({s.arity} position(s): "
             + ", ".join(str(p) for p in s.positions) + ")"]
    for c in s.cases:
        hyp_text = ", ".join(
            "P(" + ", ".join(format_term(t) for t in h) + ")"
            for h in c.hypotheses)
        pat_text = ", ".join(format_term(t, 3) for t in c.patterns)
        lines.append(f"  case {c.name}: hyps [{hyp_text}] ==> P({pat_text})")
    return "\n".join(lines)
