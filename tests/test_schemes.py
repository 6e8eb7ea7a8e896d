from __future__ import annotations

import pytest

from inductrank.parser import parse_theory
from inductrank.schemes import (
    SchemeError, functional_scheme, rules_for, scheme_for_rule_name,
    structural_scheme,
)
from inductrank.terms import (
    LIST_DT, NAT_DT, App, Const, FreeVar, format_term, free_variables,
    spine, subterms_with_paths,
)


class TestStructural:
    def test_list_scheme(self):
        s = structural_scheme(LIST_DT)
        assert s.name == "list.induct"
        assert s.arity == 1
        assert [c.name for c in s.cases] == ["Nil", "Cons"]
        nil, cons = s.cases
        assert nil.hypotheses == ()
        assert format_term(nil.patterns[0]) == "[]"
        assert [v.name for v in cons.fresh_vars] == ["x", "xs"]
        assert cons.hypotheses == ((cons.fresh_vars[1],),)
        assert format_term(cons.patterns[0]) == "x # xs"

    def test_nat_scheme(self):
        s = structural_scheme(NAT_DT)
        assert [c.name for c in s.cases] == ["0", "Suc"]
        zero, succ = s.cases
        assert zero.hypotheses == ()
        assert succ.hypotheses == ((FreeVar("n", NAT_DT.generic_type()),),)
        assert format_term(succ.patterns[0]) == "Suc n"

    def test_non_recursive_enum(self):
        thy = parse_theory("datatype color = R | G | B")
        s = structural_scheme(thy.datatypes[0])
        assert len(s.cases) == 3
        assert all(c.hypotheses == () for c in s.cases)

    def test_case_count_matches_constructors(self, corpus_dir):
        thy = parse_theory((corpus_dir / "trees.thy").read_text(), "t")
        d = thy.datatype("tree")
        assert len(structural_scheme(d).cases) == len(d.constructors)


# independent oracle: every fully applied self-call in an equation's rhs,
# found by plain recursion in visit order
def recursive_call_tuples(fundef):
    arity = len(spine(fundef.equations[0].lhs)[1])
    per_case = []
    for eq in fundef.equations:
        calls = []

        def walk(t):
            head, args = spine(t)
            if isinstance(head, Const) and head.name == fundef.name \
                    and len(args) == arity:
                calls.append(tuple(args))
            if isinstance(t, App):
                walk(t.fun)
                walk(t.arg)

        walk(eq.rhs)
        per_case.append(tuple(calls))
    return per_case


class TestFunctional:
    def test_itrev_scheme(self, running_theory):
        s = functional_scheme(running_theory.fundef("itrev"))
        assert s.arity == 2
        base, step = s.cases
        assert base.hypotheses == ()
        assert [format_term(p) for p in base.patterns] == ["[]", "ys"]
        assert [format_term(p, 10) for p in step.patterns] \
            == ["(x # xs)", "ys"]
        assert len(step.hypotheses) == 1
        assert [format_term(t, 10) for t in step.hypotheses[0]] \
            == ["xs", "(x # ys)"]
        # against the call-site oracle
        assert [list(c.hypotheses) for c in s.cases] \
            == [list(t) for t in
                recursive_call_tuples(running_theory.fundef("itrev"))]

    def test_non_recursive_identity(self):
        thy = parse_theory('fun id2 :: "\'a => \'a" where "id2 x = x"')
        s = functional_scheme(thy.fundef("id2"))
        assert len(s.cases) == 1
        assert s.cases[0].hypotheses == ()

    def test_nested_recursion_orders_calls_outermost_first(self):
        thy = parse_theory(
            "fun nest :: \"'a list => 'a list\" where\n"
            '  "nest [] = []"\n'
            '| "nest (x # xs) = nest (nest xs)"')
        f = thy.fundef("nest")
        s = functional_scheme(f)
        hyps = s.cases[1].hypotheses
        assert len(hyps) == 2
        assert format_term(hyps[0][0], 10) == "(nest xs)"
        assert format_term(hyps[1][0]) == "xs"
        assert [list(c.hypotheses) for c in s.cases] \
            == [list(t) for t in recursive_call_tuples(f)]

    def test_requires_rule_bearing(self, running_theory):
        with pytest.raises(SchemeError):
            functional_scheme(running_theory.fundef("rev"))

    def test_deterministic(self, running_theory):
        f = running_theory.fundef("itrev")
        assert functional_scheme(f) == functional_scheme(f)


class TestRulesFor:
    def test_running_lemma(self, running_theory, running_goal):
        assert rules_for(running_goal, running_theory) == ["itrev.induct"]

    def test_goal_without_rule_bearing_constants(self):
        thy = parse_theory('lemma triv: "0 = 0"')
        assert rules_for(thy.goals[0], thy) == []

    def test_first_occurrence_order(self):
        thy = parse_theory(
            'fun f :: "nat => nat" where "f x = x"\n'
            'fun g :: "nat => nat" where "g x = x"\n'
            'lemma both: "f (g x) = g (f x)"')
        assert rules_for(thy.goals[0], thy) == ["f.induct", "g.induct"]

    def test_rule_lookup_by_name(self, running_theory):
        assert scheme_for_rule_name("itrev.induct", running_theory) \
            is not None
        assert scheme_for_rule_name("rev.induct", running_theory) is None
        assert scheme_for_rule_name("nonsense", running_theory) is None


class TestInvariants:
    def test_fresh_vars_cover_case_terms(self, running_theory, corpus_dir):
        thy = parse_theory((corpus_dir / "trees.thy").read_text(), "t")
        schemes = [
            functional_scheme(running_theory.fundef("itrev")),
            structural_scheme(thy.datatype("tree")),
            structural_scheme(LIST_DT),
        ]
        for s in schemes:
            for case in s.cases:
                names = {v.name for v in case.fresh_vars}
                for t in [*case.patterns,
                          *(h for tup in case.hypotheses for h in tup)]:
                    assert {v.name for v in free_variables(t)} <= names

    def test_pattern_tuple_lengths_match_arity(self, running_theory):
        s = functional_scheme(running_theory.fundef("itrev"))
        for case in s.cases:
            assert len(case.patterns) == s.arity
            for h in case.hypotheses:
                assert len(h) == s.arity
