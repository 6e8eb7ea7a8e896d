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
from inductrank.tactic import Candidate, SubgoalSet, parse_candidate
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
        assert len(survivors) + len(dispositions) == 40
        assert all(d.status == "stage1" for d in dispositions)
        kept = [c for c, _ in survivors]
        assert parse_candidate("induct xs arbitrary: ys") in kept

    def test_order_preserved(self, running_goal, running_theory):
        stream = list(enumerate_candidates(running_goal, running_theory))
        survivors, _ = stage1(running_goal, stream, running_theory,
                              timeout=None)
        indices = [stream.index(c) for c, _ in survivors]
        assert indices == sorted(indices)

    def test_reads_no_clock_without_timeout(self, monkeypatch, g4_theory):
        def forbidden(*args, **kwargs):
            raise AssertionError("stage 1 read the clock without a timeout")

        monkeypatch.setattr(tactic_module, "monotonic", forbidden)
        goal = g4_theory.goal_named("g4")
        survivors, dispositions = stage1(
            goal, enumerate_candidates(goal, g4_theory), g4_theory,
            timeout=None)
        assert all(d.status == "stage1" for d in dispositions)
        failed = Counter(d.error for d in dispositions)
        assert set(failed) == {"NoArguments",
                               "ArbitraryOverlapsInductionTerm",
                               "NonDatatypeVariable", "RuleArityExceeded"}
        assert len(survivors) + sum(failed.values()) == 10000

    def test_disposition_repr_and_defaults(self):
        d = Disposition(Candidate(("xs",)), "stage1")
        assert repr(d) == (
            "Disposition(candidate=Candidate(induction_terms=('xs',), "
            "arbitrary=frozenset(), rule=None), status='stage1', "
            "error=None, condition=None)")


def _dropped_in_stage2(goal, thy, condition):
    """The candidates stage 2 drops for `condition`."""
    survivors, _ = stage1(goal, enumerate_candidates(goal, thy), thy,
                          timeout=None)
    _, dispositions = stage2(goal, survivors)
    assert all(d.status == "stage2" for d in dispositions)
    return [d.candidate for d in dispositions if d.condition == condition]


class TestStage2:
    def test_zero_term_rule_candidates_hit_condition_3(
            self, running_goal, running_theory):
        cond3 = _dropped_in_stage2(running_goal, running_theory, 3)
        zero_term = [c for c in cond3 if not c.induction_terms]
        assert len(zero_term) == 4  # one per arbitrary subset
        assert all(c.rule == "itrev.induct" for c in zero_term)

    def test_prf2_survives(self, running_goal, running_theory):
        finalists = screen(running_goal, running_theory,
                           timeout=None).finalists
        assert parse_candidate("induct xs ys rule: itrev.induct") in finalists
        assert parse_candidate("induct xs arbitrary: ys") in finalists

    def test_duplicate_equations_hit_condition_1(self):
        thy = parse_theory(
            "datatype bit = B0 | B1\n"
            'fun konst :: "bit => bit" where\n'
            '  "konst x = B0"\n'
            '| "konst x = B0"\n'
            'lemma k: "konst y = B0"')
        cond1 = _dropped_in_stage2(thy.goals[0], thy, 1)
        assert parse_candidate("induct y rule: konst.induct") in cond1

    def test_identity_function_hits_condition_2(self):
        thy = parse_theory(
            'fun id2 :: "\'a => \'a" where "id2 x = x"\n'
            'lemma i: "id2 y = y"')
        cond2 = _dropped_in_stage2(thy.goals[0], thy, 2)
        assert Candidate((), frozenset(), "id2.induct") in cond2

    def test_verdict_can_depend_on_arbitrary(self):
        # Generalising xs renames it in the conclusion, which then no
        # longer embeds the goal: condition 2 gives way to condition 3,
        # so the generalised candidate counts in 2nd-a.
        thy = parse_theory(
            'fun tl2 :: "\'a list => \'a list" where\n'
            '  "tl2 [] = []"\n'
            '| "tl2 (x # xs) = xs"\n'
            'lemma g: "tl2 xs = tl2 ys"')
        goal = thy.goals[0]
        plain = parse_candidate("induct rule: tl2.induct")
        general = parse_candidate("induct arbitrary: xs rule: tl2.induct")
        assert plain in _dropped_in_stage2(goal, thy, 2)
        assert general in _dropped_in_stage2(goal, thy, 3)

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
        finalists, dispositions = stage2(goal, survivors)
        assert_stage2_outcome(survivors, expected, finalists, dispositions)
        assert len(screened) == len({id(s) for _, s in survivors}) \
            < len(survivors)


def assert_stage2_outcome(survivors, conditions, finalists, dispositions):
    """`stage2` kept the survivors whose condition is None, in order, and
    dropped the others, in order, with their conditions."""
    assert finalists == [s for s, cond in zip(survivors, conditions)
                         if cond is None]
    assert [(d.candidate, d.condition) for d in dispositions] == [
        (c, cond) for (c, _), cond in zip(survivors, conditions)
        if cond is not None]


class TestScreenReport:
    def test_counts_and_monotonicity(self, running_goal, running_theory):
        c = screen(running_goal, running_theory, timeout=None).counts()
        assert c == {"total": 40, "1st": 16, "2nd-a": 16, "2nd-b": 8}
        assert c["2nd-b"] <= c["2nd-a"] <= c["1st"] <= c["total"]

    def test_finalists_are_ordered_subsequence(self, running_goal,
                                               running_theory):
        result = screen(running_goal, running_theory, timeout=None)
        generated = list(enumerate_candidates(running_goal, running_theory))
        it = iter(generated)
        assert all(c in it for c in result.finalists)

    def test_deterministic(self, running_goal, running_theory):
        a = screen(running_goal, running_theory, timeout=None)
        b = screen(running_goal, running_theory, timeout=None)
        assert a == b

    def test_report_matches_the_stages(self, corpus_dir, g4_theory):
        conditions = Counter()
        for thy, goal in _test_goals(corpus_dir, g4_theory):
            generated = list(enumerate_candidates(goal, thy))
            survivors, dropped1 = stage1(goal, generated, thy, timeout=None)
            assert len(survivors) + len(dropped1) == len(generated)
            finalists, dropped2 = stage2(goal, survivors)
            conditions.update(d.condition for d in dropped2)
            report = screen(goal, thy, timeout=None)
            assert report.finalists == tuple(c for c, _ in finalists)
            assert report.counts() == {
                "total": len(generated),
                "1st": len(survivors),
                "2nd-a": len(finalists) + sum(d.condition == 3
                                              for d in dropped2),
                "2nd-b": len(finalists)}, goal.name
        assert set(conditions) == {1, 2, 3}


def test_cap_bounds_generated(running_goal, running_theory):
    for cap in (1, 2, 7, 39, 40, 41, 100):
        result = screen(running_goal, running_theory, cap=cap, timeout=None)
        assert result.generated == min(cap, 40)


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
    survivors, _ = stage1(goal, enumerate_candidates(goal, thy), thy,
                          timeout=None)
    for _, subgoals in stage2(goal, survivors)[0]:
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
            finalists, dispositions = stage2(goal, survivors)
            assert_stage2_outcome(survivors, expected, finalists,
                                  dispositions)
            assert [stage2_condition(goal, s) for _, s in survivors] \
                == expected, goal.name
            seen.update(expected)
        assert seen == {None, 1, 2, 3}

    def test_recorded_schematic_equals_the_walk(self, corpus_dir,
                                                g4_theory):
        # Besides an under-supplied rule, a goal with a schematic
        # variable puts schematic variables into subgoals.
        goals = _test_goals(corpus_dir, g4_theory)
        text = (corpus_dir / "running.thy").read_text(encoding="utf-8")
        thy = parse_theory(text + '\nlemma s: "itrev xs ys = ?x"')
        goals.append((thy, thy.goal_named("s")))
        recorded = set()
        for thy, goal in goals:
            survivors, _ = stage1(goal, enumerate_candidates(goal, thy), thy,
                                  timeout=None)
            for candidate, subgoals in survivors:
                where = (goal.name, candidate.tactic_text())
                walked = any(isinstance(node, SchematicVar)
                             for sg in subgoals.subgoals
                             for _, root in sg.regions()
                             for _, node in subterms_with_paths(root))
                assert subgoals.schematic == walked, where
                assert stage2_condition(goal, subgoals) \
                    == reference_condition(goal, subgoals), where
                recorded.add((goal.name, walked))
        assert {("s", True), ("g4", True), ("g4", False)} <= recorded


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
