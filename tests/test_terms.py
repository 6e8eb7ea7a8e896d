from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from inductrank.dsl import (
    TRUE, UNRESTRICTED, And, Exists, Forall, GoalIndex, Or, Sort, make_context,
)
from inductrank.parser import parse_goal_expr, parse_theory
from inductrank.pipeline import screen
from inductrank.scoring import default_suite, score_all
from inductrank.tactic import apply_induct
from inductrank.terms import (
    PRELUDE_DATATYPES, PRELUDE_FUNDEFS, TYPE_NAT, App, Const, Constructor,
    DatatypeDef, FreeVar, FunDef, Goal, SchematicVar, SimpleType, Theory, Tree,
    contains_schematic, contains_subterm, free_variables, fun_type,
    goal_free_variables, list_of, mk_app, occurrences_of,
    resolve_occurrence, subst_frees, subterm_at, term_type,
)

NAT = TYPE_NAT
NATS = list_of(NAT)


def suc(t):
    return mk_app(Const("Suc", fun_type(NAT, NAT)), t)


def cons(h, t):
    return mk_app(Const("#", fun_type(NAT, NATS, NATS)), h, t)


def append(a, b):
    return mk_app(Const("@", fun_type(NATS, NATS, NATS)), a, b)


ZERO = Const("0", NAT)
NIL = Const("[]", NATS)
VA = FreeVar("a", NAT)
VB = FreeVar("b", NAT)
VXS = FreeVar("xs", NATS)
VYS = FreeVar("ys", NATS)


# -- leaf-collecting oracle, independent of free_variables -------------------


def collect_distinct_vars(t):
    seen = []

    def walk(node):
        if isinstance(node, App):
            walk(node.fun)
            walk(node.arg)
        elif isinstance(node, FreeVar) and node not in seen:
            seen.append(node)

    walk(t)
    return seen


class TestFreeVariables:
    def test_running_lemma_conclusion(self, running_goal):
        assert [v.name for v in free_variables(running_goal.conclusion)] \
            == ["xs", "ys"]

    def test_closed_term(self):
        t = mk_app(Const("eq", fun_type(NATS, NATS, SimpleType("bool"))),
                   NIL, NIL)
        assert free_variables(t) == []

    def test_repeated_variable_listed_once(self):
        # f x (g x y) over declared constants f, g
        f = Const("f", fun_type(NAT, NAT, NAT))
        g = Const("g", fun_type(NAT, NAT, NAT))
        x, y = FreeVar("x", NAT), FreeVar("y", NAT)
        t = mk_app(f, x, mk_app(g, x, y))
        assert [v.name for v in free_variables(t)] == ["x", "y"]
        assert free_variables(t) == collect_distinct_vars(t)


class TestOccurrences:
    def test_itrev_occurs_once(self, running_theory, running_goal):
        itrev = _const_in(running_goal, "itrev")
        occs = occurrences_of(itrev, running_goal)
        assert len(occs) == 1
        assert occs[0].premise_index is None
        assert occs[0].path == (0, 1, 0, 0)

    def test_conclusion_root_occurrence(self, running_goal):
        occs = occurrences_of(running_goal.conclusion, running_goal)
        assert len(occs) == 1
        assert occs[0].path == ()

    def test_ys_occurs_twice(self, running_goal):
        ys = next(v for v in goal_free_variables(running_goal)
                  if v.name == "ys")
        occs = occurrences_of(ys, running_goal)
        assert len(occs) == 2
        # oracle: exhaustive recursive walk
        assert len(_walk_count(running_goal.conclusion, ys)) == 2

    def test_resolving_path_reproduces_term(self, running_goal):
        for sub in [VXS, _const_in(running_goal, "rev")]:
            for occ in occurrences_of(sub, running_goal):
                assert resolve_occurrence(running_goal, occ) == occ.term


def _const_in(goal, name):
    from inductrank.terms import goal_subterms
    return next(t for t in goal_subterms(goal)
                if isinstance(t, Const) and t.name == name)


def _walk_count(t, needle):
    hits = []

    def walk(node, path):
        if node == needle:
            hits.append(path)
        if isinstance(node, App):
            walk(node.fun, path + (0,))
            walk(node.arg, path + (1,))

    walk(t, ())
    return hits


class TestContainsSubterm:
    def test_reflexive(self):
        t = append(cons(VA, NIL), VXS)
        assert contains_subterm(t, t)

    def test_proper_subterm(self, running_theory):
        t = parse_goal_expr("rev xs @ ys = rev xs @ ys", running_theory)
        lhs = t.arg  # right operand of eq application: rev xs @ ys
        rev_xs = lhs.fun.arg
        assert contains_subterm(lhs, rev_xs)
        assert occurrences_of(rev_xs, Goal("h", (), lhs)) != []

    def test_distinct_variables(self):
        rev = Const("rev", fun_type(NATS, NATS))
        assert not contains_subterm(mk_app(rev, VXS), mk_app(rev, VYS))


class TestContainsSchematic:
    def test_running_lemma_has_none(self, running_goal):
        assert not contains_schematic(running_goal)

    def test_schematic_conclusion(self):
        p = SchematicVar("P", fun_type(NATS, SimpleType("bool")))
        goal = Goal("g", (), mk_app(p, NIL))
        assert contains_schematic(goal)

    def test_zero_term_rule_application(self, running_theory, running_goal):
        from inductrank.tactic import Candidate, apply_induct
        sgs = apply_induct(running_goal,
                           Candidate((), frozenset(), "itrev.induct"),
                           running_theory)
        assert all(contains_schematic(sg) for sg in sgs.subgoals)


# -- property tests ----------------------------------------------------------

nat_terms = st.recursive(
    st.sampled_from([ZERO, VA, VB]),
    lambda kids: kids.map(suc),
    max_leaves=5)

list_terms = st.recursive(
    st.sampled_from([NIL, VXS, VYS]),
    lambda kids: st.one_of(
        st.tuples(nat_terms, kids).map(lambda p: cons(*p)),
        st.tuples(kids, kids).map(lambda p: append(*p))),
    max_leaves=5)

any_terms = st.one_of(nat_terms, list_terms)


@given(any_terms)
def test_free_variables_matches_leaf_oracle(t):
    assert free_variables(t) == collect_distinct_vars(t)


@given(any_terms)
def test_bijective_renaming_permutes_consistently(t):
    renamed = subst_frees(t, {
        name: FreeVar(name + "_r", ty)
        for name, ty in [("a", NAT), ("b", NAT), ("xs", NATS), ("ys", NATS)]
    })
    assert [v.name + "_r" for v in free_variables(t)] \
        == [v.name for v in free_variables(renamed)]


@given(list_terms, nat_terms)
def test_contains_iff_occurrences_nonempty(haystack, needle):
    goal = Goal("wrap", (), mk_app(
        Const("eq", fun_type(NATS, NATS, SimpleType("bool"))),
        haystack, haystack))
    assert contains_subterm(haystack, needle) \
        == (occurrences_of(needle, Goal("h", (), haystack)) != [])


@given(list_terms)
def test_every_occurrence_resolves(t):
    goal = Goal("g", (), mk_app(
        Const("eq", fun_type(NATS, NATS, SimpleType("bool"))), t, t))
    for needle in (VXS, NIL, ZERO):
        for occ in occurrences_of(needle, goal):
            assert resolve_occurrence(goal, occ) == needle


def test_subterm_at_rejects_bad_path():
    with pytest.raises(ValueError):
        subterm_at(VA, (0,))


def test_term_type_of_application():
    assert term_type(cons(VA, NIL)) == NATS
    assert term_type(suc(ZERO)) == NAT


# -- theory name lookups -----------------------------------------------------


def _scan_lookups(thy, name):
    """The lookups as linear scans: the theory's declarations in order,
    then the prelude."""
    datatypes = [*thy.datatypes, *PRELUDE_DATATYPES.values()]
    fundefs = [*thy.fundefs, *PRELUDE_FUNDEFS.values()]
    owners = [(d, c) for d in datatypes for c in d.constructors
              if c.name == name]
    return (next((d for d in datatypes if d.name == name), None),
            next((f for f in fundefs if f.name == name), None),
            next((g for g in thy.goals if g.name == name), None),
            owners[0] if owners else None)


class TestTheoryLookups:
    def test_first_declaration_wins_and_theory_shadows_prelude(self):
        my_nat = DatatypeDef("nat", (), (Constructor("Z", ()),))
        first = DatatypeDef("t", (), (Constructor("A", ()),
                                      Constructor("Suc", (NAT,))))
        second = DatatypeDef("t", (), (Constructor("A", ()),))
        f1 = FunDef("f", fun_type(NAT, NAT), (), False)
        f2 = FunDef("f", fun_type(NATS, NAT), (), True)
        at = FunDef("@", fun_type(NAT, NAT), (), False)
        g1 = Goal("g", (), VA)
        g2 = Goal("g", (), VB)
        thy = Theory((my_nat, first, second), (f1, f2, at), (g1, g2))
        assert thy.datatype("nat") is my_nat
        assert thy.datatype("t") is first
        assert thy.fundef("f") is f1
        assert thy.fundef("@") is at
        assert thy.goal_named("g") is g1
        assert thy.constructor_owner("Suc") == (first, first.constructors[1])
        assert thy.const_scheme("Suc") == fun_type(NAT, SimpleType("t"))
        for name in ("nat", "list", "bool", "t", "f", "@", "g", "Z", "A",
                     "Suc", "0", "[]", "#", "True", "eq", "missing"):
            assert (thy.datatype(name), thy.fundef(name),
                    thy.goal_named(name), thy.constructor_owner(name)) \
                == _scan_lookups(thy, name), name

    def test_lookups_leave_equality_and_repr_alone(self, running_theory):
        copy = Theory(running_theory.datatypes, running_theory.fundefs,
                      running_theory.goals)
        before = repr(copy)
        assert copy.fundef("itrev") is not None
        assert copy.constructor_owner("#") is not None
        assert copy.goal_named("itrev_rev") is not None
        assert repr(copy) == before
        assert copy == running_theory and hash(copy) == hash(running_theory)


def _deep_suc_chain():
    chain = ZERO
    for _ in range(100_000):
        chain = suc(chain)
    return chain


@pytest.mark.parametrize("make, equal", [
    # the top node built apart; hashing it must not walk the chain
    (lambda: (c := _deep_suc_chain(), App(c.fun, c.arg)), True),
    (lambda: (cons(VA, append(VXS, NIL)),
              cons(FreeVar("a", NAT), append(FreeVar("xs", NATS), NIL))),
     True),
    (lambda: (FreeVar("x", NAT), Const("x", NAT)), False),
    (lambda: (And(TRUE, TRUE), Or(TRUE, TRUE)), False),
    (lambda: (Exists("t", Sort.TERM, UNRESTRICTED, TRUE),
              Forall("t", Sort.TERM, UNRESTRICTED, TRUE)), False),
    (lambda: (Goal("g", (), VA, line=1), Goal("g", (), VA, line=2)), True),
], ids=["deep-chain", "built-apart", "free-var-const", "and-or",
        "exists-forall", "goal-line"])
def test_value_semantics(make, equal):
    left, right = make()
    assert left is not right
    assert (left == right) is equal and (left != right) is not equal
    if equal:
        assert hash(left) == hash(right)


def _stale_trees(*roots):
    """The trees under `roots` whose cached hash differs from that of a
    copy built from their fields: those with a field assigned after
    construction."""
    stale, seen, stack = [], set(), list(roots)
    while stack:
        value = stack.pop()
        if isinstance(value, dict):
            stack += [*value, *value.values()]
        elif isinstance(value, (tuple, list, set, frozenset)):
            stack += value
        elif isinstance(value, Tree) and id(value) not in seen:
            seen.add(id(value))
            fields = [getattr(value, f) for f in value._fields]
            if hash(type(value)(*fields)) != hash(value):
                stale.append(value)
            stack += fields
    return stale


def test_assigning_a_field_leaves_the_hash_stale():
    # unsupported, and not refused (see `Tree`); `_stale_trees` finds it
    goal = Goal("g", (), cons(VA, NIL))
    assert _stale_trees(goal) == []
    goal.conclusion = NIL
    assert _stale_trees(goal) == [goal]
    assert goal != Goal("g", (), cons(VA, NIL))
    assert hash(goal) == hash(Goal("g", (), cons(VA, NIL)))


@pytest.mark.parametrize("name", ["lists", "nats", "running", "trees"])
def test_ranking_assigns_no_field(corpus_dir, name):
    thy = parse_theory((corpus_dir / f"{name}.thy").read_text("utf-8"))
    suite = default_suite()
    made = [thy, suite]
    for goal in thy.goals:
        report = screen(goal, thy)
        index = GoalIndex(goal, thy)
        made += [report, vars(index), score_all(
            report.finalists, suite,
            lambda c: make_context(goal, c, thy, index=index))]
        made += [apply_induct(goal, c, thy)
                 for c in report.finalists]
    assert _stale_trees(*made) == []
