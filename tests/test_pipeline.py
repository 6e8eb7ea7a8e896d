from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import inductrank.pipeline as pipeline_module
import inductrank.tactic as tactic_module
from inductrank.parser import parse_theory
from inductrank.pipeline import (
    Disposition, enumerate_candidates, expected_candidate_count, screen,
    stage1, stage2, stage2_condition,
)
from inductrank.tactic import (
    Candidate, SubgoalSet, TacticError, parse_candidate,
)
from inductrank.terms import (
    TYPE_BOOL, Const, FreeVar, Goal, SchematicVar, SimpleType, TYPE_NAT,
    check_term, fun_type, list_of, mk_app, mk_eq, subterms_with_paths,
)


class TestEnumeration:
    def test_running_example_yields_exactly_40(self, running_theory,
                                               running_goal):
        cands = list(enumerate_candidates(running_goal, running_theory))
        assert len(cands) == 40
        assert len(set(cands)) == 40

    def test_documented_order(self, running_goal, running_theory):
        cands = list(enumerate_candidates(running_goal, running_theory))
        r = "itrev.induct"
        assert cands[:6] == [
            Candidate((), frozenset(), None),
            Candidate((), frozenset(), r),
            Candidate((), frozenset({"xs"}), None),
            Candidate((), frozenset({"xs"}), r),
            Candidate((), frozenset({"ys"}), None),
            Candidate((), frozenset({"ys"}), r),
        ]
        # sequences of length 1 follow the empty sequence block
        assert cands[8] == Candidate(("xs",), frozenset(), None)

    def test_single_variable_no_rules(self):
        thy = parse_theory(
            'primrec d :: "nat => nat" where "d 0 = 0" | "d (Suc n) = n"\n'
            'lemma l: "d m = m"')
        cands = list(enumerate_candidates(thy.goals[0], thy))
        assert len(cands) == 4

    def test_cap_truncates(self, running_goal, running_theory):
        cands = list(enumerate_candidates(running_goal, running_theory,
                                          cap=3))
        assert len(cands) == 3
        full = list(enumerate_candidates(running_goal, running_theory))
        assert cands == full[:3]

    def test_cap_must_be_positive(self, running_goal, running_theory):
        with pytest.raises(ValueError):
            enumerate_candidates(running_goal, running_theory, cap=0)

    def test_one_frozenset_per_arbitrary_subset(self, g4_theory):
        goal = g4_theory.goal_named("g4")
        cands = list(enumerate_candidates(goal, g4_theory))
        assert len(cands) == 10000
        assert len({c.arbitrary for c in cands}) \
            == len({id(c.arbitrary) for c in cands}) == 2 ** 5

    def test_small_cap_stops_enumeration_early(self, monkeypatch):
        # 2^30 arbitrary subsets: building them all up front would exhaust
        # memory, so frozenset construction is counted and cut off early
        built = []

        def counting_frozenset(items=()):
            built.append(None)
            if len(built) > 100:
                raise AssertionError("enumeration is not lazy")
            return frozenset(items)

        monkeypatch.setattr(pipeline_module, "frozenset", counting_frozenset,
                            raising=False)
        goal = _goal_with_vars(30)
        cands = list(enumerate_candidates(goal, parse_theory(""), cap=10))
        assert len(cands) == 10
        assert cands[0] == Candidate((), frozenset(), None)
        assert all(c.induction_terms == () for c in cands)


def _goal_with_vars(n):
    vars_ = [FreeVar(f"v{i}", TYPE_NAT) for i in range(n)]
    nats = list_of(TYPE_NAT)
    t: object = Const("[]", nats)
    cons = Const("#", fun_type(TYPE_NAT, nats, nats))
    for v in reversed(vars_):
        t = mk_app(cons, v, t)
    return Goal(f"g{n}", (), mk_eq(t, Const("[]", nats)))


class TestCountFormula:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_direct_enumeration(self, n):
        thy = parse_theory("")
        goal = _goal_with_vars(n)
        count = len(list(enumerate_candidates(goal, thy, cap=10 ** 6)))
        assert count == expected_candidate_count(n, 0)

    def test_with_one_rule(self, running_goal, running_theory):
        assert expected_candidate_count(2, 1) == 40
        assert len(list(enumerate_candidates(running_goal,
                                             running_theory))) == 40


class TestStage1:
    def test_running_dispositions(self, running_goal, running_theory):
        stream = enumerate_candidates(running_goal, running_theory)
        survivors, dispositions = stage1(running_goal, stream,
                                         running_theory, timeout=None)
        assert len(survivors) == 16
        no_args = [d for d in dispositions if d.error == "NoArguments"]
        assert len(no_args) == 4  # the (no terms, no rule) block
        assert all(d.candidate.rule is None
                   and not d.candidate.induction_terms for d in no_args)
        overlaps = [d for d in dispositions
                    if d.error == "ArbitraryOverlapsInductionTerm"]
        assert all(set(d.candidate.induction_terms) & d.candidate.arbitrary
                   for d in overlaps)
        kept = [d.candidate for d in dispositions if d.status == "kept"]
        assert parse_candidate("induct xs arbitrary: ys") in kept

    def test_order_preserved(self, running_goal, running_theory):
        stream = list(enumerate_candidates(running_goal, running_theory))
        survivors, _ = stage1(running_goal, stream, running_theory,
                              timeout=None)
        indices = [stream.index(c) for c, _ in survivors]
        assert indices == sorted(indices)

    def test_builds_no_error_and_reads_no_clock(self, monkeypatch,
                                                g4_theory):
        def forbidden(what):
            def fail(*args, **kwargs):
                raise AssertionError(f"stage 1 {what}")
            return fail

        monkeypatch.setattr(TacticError, "__init__",
                            forbidden("built a TacticError"))
        monkeypatch.setattr(tactic_module, "monotonic",
                            forbidden("read the clock without a timeout"))
        goal = g4_theory.goal_named("g4")
        survivors, dispositions = stage1(
            goal, enumerate_candidates(goal, g4_theory), g4_theory,
            timeout=None)
        failed = Counter(d.error for d in dispositions
                         if d.status == "stage1")
        assert set(failed) == {"NoArguments",
                               "ArbitraryOverlapsInductionTerm",
                               "NonDatatypeVariable", "RuleArityExceeded"}
        assert len(survivors) + sum(failed.values()) == 10000

    def test_disposition_repr_and_defaults(self):
        d = Disposition(Candidate(("xs",)), "kept")
        assert repr(d) == (
            "Disposition(candidate=Candidate(induction_terms=('xs',), "
            "arbitrary=frozenset(), rule=None), status='kept', error=None, "
            "condition=None)")


class TestStage2:
    def test_zero_term_rule_candidates_hit_condition_3(
            self, running_goal, running_theory):
        result = screen(running_goal, running_theory, timeout=None)
        cond3 = [d.candidate for d in result.report.dispositions
                 if d.condition == 3]
        zero_term = [c for c in cond3 if not c.induction_terms]
        assert len(zero_term) == 4  # one per arbitrary subset
        assert all(c.rule == "itrev.induct" for c in zero_term)

    def test_prf2_survives(self, running_goal, running_theory):
        result = screen(running_goal, running_theory, timeout=None)
        finalists = [c for c, _ in result.finalists]
        assert parse_candidate("induct xs ys rule: itrev.induct") in finalists
        assert parse_candidate("induct xs arbitrary: ys") in finalists

    def test_duplicate_equations_hit_condition_1(self):
        thy = parse_theory(
            "datatype bit = B0 | B1\n"
            'fun konst :: "bit => bit" where\n'
            '  "konst x = B0"\n'
            '| "konst x = B0"\n'
            'lemma k: "konst y = B0"')
        result = screen(thy.goals[0], thy, timeout=None)
        cond1 = [d.candidate for d in result.report.dispositions
                 if d.condition == 1]
        assert parse_candidate("induct y rule: konst.induct") in cond1

    def test_identity_function_hits_condition_2(self):
        thy = parse_theory(
            'fun id2 :: "\'a => \'a" where "id2 x = x"\n'
            'lemma i: "id2 y = y"')
        result = screen(thy.goals[0], thy, timeout=None)
        cond2 = [d.candidate for d in result.report.dispositions
                 if d.condition == 2]
        assert Candidate((), frozenset(), "id2.induct") in cond2

    def test_constant_goal_same_subgoals_condition_1(self):
        # two-nullary-constructor datatype applied to a constant goal:
        # both cases produce the very same subgoal
        thy = parse_theory("datatype bit = B0 | B1\n"
                           'lemma c: "B0 = B0"')
        goal = thy.goals[0]
        sub = Goal("c.case", (), goal.conclusion)
        subgoals = SubgoalSet(("B0", "B1"), (sub, sub))
        assert stage2_condition(goal, subgoals) == 1
        finalists, dispositions = stage2(
            goal, [(Candidate(("b",)), subgoals)])
        assert finalists == []
        assert dispositions[0].condition == 1

    def test_condition_once_per_subgoal_set(self, monkeypatch, g4_theory):
        goal = g4_theory.goal_named("g4")
        survivors, _ = stage1(goal, enumerate_candidates(goal, g4_theory),
                              g4_theory, timeout=None)
        expected = [stage2_condition(goal, s) for _, s in survivors]
        screened = []
        screen_for = pipeline_module._screen

        def counting(goal):
            condition = screen_for(goal)

            def counted(subgoals):
                screened.append(subgoals)
                return condition(subgoals)
            return counted

        monkeypatch.setattr(pipeline_module, "_screen", counting)
        _, dispositions = stage2(goal, survivors)
        assert [d.condition for d in dispositions] == expected
        assert len(screened) == len({id(s) for _, s in survivors}) \
            < len(survivors)


class TestScreenReport:
    def test_counts_and_monotonicity(self, running_goal, running_theory):
        result = screen(running_goal, running_theory, timeout=None)
        c = result.report.counts()
        assert c == {"total": 40, "1st": 16, "2nd-a": 16, "2nd-b": 8}
        assert c["2nd-b"] <= c["2nd-a"] <= c["1st"] <= c["total"]

    def test_finalists_are_ordered_subsequence(self, running_goal,
                                               running_theory):
        result = screen(running_goal, running_theory, timeout=None)
        generated = list(enumerate_candidates(running_goal, running_theory))
        finalist_candidates = [c for c, _ in result.finalists]
        it = iter(generated)
        assert all(c in it for c in finalist_candidates)

    def test_deterministic(self, running_goal, running_theory):
        a = screen(running_goal, running_theory, timeout=None)
        b = screen(running_goal, running_theory, timeout=None)
        assert a.report == b.report
        assert a.finalists == b.finalists


def test_cap_bounds_generated(running_goal, running_theory):
    for cap in (1, 2, 7, 39, 40, 41, 100):
        result = screen(running_goal, running_theory, cap=cap, timeout=None)
        assert result.report.generated == min(cap, 40)


# ---------------------------------------------------------------------------
# Stage 2 against its first, unshared form; subgoal well-formedness

# Small theories whose candidates hit conditions 1 and 2.
CONDITION_THEORIES = [
    "datatype bit = B0 | B1\n"
    'fun konst :: "bit => bit" where\n'
    '  "konst x = B0"\n'
    '| "konst x = B0"\n'
    'lemma k: "konst y = B0"',
    'fun id2 :: "\'a => \'a" where "id2 x = x"\n'
    'lemma i: "id2 y = y"',
]


def reference_condition(goal, subgoals):
    """Stage 2 as first written: every walk lists the paths of all nodes,
    and every premise is hashed, also when the goal has none."""
    def nodes(t):
        return [node for _, node in subterms_with_paths(t)]

    def schematic(g):
        return any(isinstance(node, SchematicVar)
                   for _, root in g.regions() for node in nodes(root))

    gs = subgoals.subgoals
    for i in range(len(gs)):
        for j in range(i + 1, len(gs)):
            if (gs[i].premises == gs[j].premises
                    and gs[i].conclusion == gs[j].conclusion):
                return 1
    original = set(goal.premises)
    if all(all(p in original for p in sg.premises) for sg in gs) and all(
            any(node == goal.conclusion for node in nodes(sg.conclusion))
            for sg in gs):
        return 2
    if not schematic(goal) and any(schematic(sg) for sg in gs):
        return 3
    return None


def _test_goals(corpus_dir, g4_theory):
    out = []
    for path in sorted(corpus_dir.glob("*.thy")):
        thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
        out += [(thy, goal) for goal in thy.goals]
    for src in CONDITION_THEORIES:
        thy = parse_theory(src)
        out.append((thy, thy.goals[0]))
    return out + [(g4_theory, g4_theory.goal_named("g4"))]


def _checked_regions(goal, thy) -> int:
    """Run `check_term` on every region of every finalist's subgoals."""
    regions = 0
    for _, subgoals in screen(goal, thy, timeout=None).finalists:
        for sg in subgoals.subgoals:
            for _, root in sg.regions():
                check_term(root, thy)
                regions += 1
    return regions


LIST_NAMES = ("xs", "ys", "zs", "ws", "us", "vs")
NAT_NAMES = ("m", "n", "k", "j")


@st.composite
def scaled_lemmas(draw):
    """A lemma of one of the scaled benchmark's shapes, with drawn names:
    5 or 6 variables, both sides over `itadd` and `len`."""
    xs = draw(st.permutations(LIST_NAMES))
    m, n = draw(st.permutations(NAT_NAMES))[:2]
    left = f"itadd (len (itrev {xs[0]} {xs[1]})) {m}"
    right = draw(st.sampled_from([f"itadd (len (rev {xs[2]})) {n}",
                                  f"itadd (len (itrev {xs[2]} {xs[3]})) {n}"]))
    if draw(st.booleans()):
        left, right = right, left
    return f'lemma g: "{left} = {right}"\n'


class TestStage2Reference:
    def test_every_survivor_agrees_with_reference(self, corpus_dir,
                                                  g4_theory):
        seen = set()
        for thy, goal in _test_goals(corpus_dir, g4_theory):
            survivors, _ = stage1(goal, enumerate_candidates(goal, thy), thy,
                                  timeout=None)
            expected = [reference_condition(goal, s) for _, s in survivors]
            _, dispositions = stage2(goal, survivors)
            assert [d.condition for d in dispositions] == expected, goal.name
            assert [stage2_condition(goal, s) for _, s in survivors] \
                == expected, goal.name
            seen.update(expected)
        assert seen == {None, 1, 2, 3}


class TestSubgoalsWellFormed:
    def test_corpus_finalist_subgoals_pass_check_term(self, corpus_dir,
                                                      g4_theory):
        regions = sum(_checked_regions(goal, thy)
                      for thy, goal in _test_goals(corpus_dir, g4_theory))
        assert regions > 0

    @settings(max_examples=4, deadline=None)
    @given(lemma=scaled_lemmas())
    def test_scaled_finalist_subgoals_pass_check_term(
            self, lemma, scaled_definitions):
        thy = parse_theory(scaled_definitions + lemma)
        assert _checked_regions(thy.goals[0], thy) > 0
