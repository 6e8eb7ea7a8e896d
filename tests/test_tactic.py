from __future__ import annotations

import pytest

from inductrank.parser import parse_goal_expr, parse_theory
from inductrank.pipeline import enumerate_candidates, screen
from inductrank.tactic import (
    Candidate, Failure, InductTactic, SubgoalSet, TacticErrorKind,
    apply_induct, parse_candidate,
)
from inductrank.terms import (
    App, FreeVar, Goal, SchematicVar, TYPE_NAT, check_term,
    contains_schematic, format_goal, free_variables, fresh_name,
    goal_free_variables, subst_frees, subterms_with_paths,
)


def expect(thy, text):
    return parse_goal_expr(text, thy)


class TestStructuralMode:
    def test_prf1_subgoals(self, running_theory, running_goal):
        sgs = apply_induct(running_goal,
                           parse_candidate("induct xs arbitrary: ys"),
                           running_theory)
        assert sgs.case_names == ("Nil", "Cons")
        nil, cons = sgs.subgoals
        assert nil.premises == ()
        assert nil.conclusion == expect(
            running_theory, "itrev [] ys' = rev [] @ ys'")
        assert cons.conclusion == expect(
            running_theory, "itrev (x # xs) ys' = rev (x # xs) @ ys'")
        assert cons.premises == (expect(
            running_theory, "itrev xs ys'' = rev xs @ ys''"),)

    def test_without_arbitrary_substitution_oracle(self, running_theory,
                                                   running_goal):
        sgs = apply_induct(running_goal, parse_candidate("induct xs"),
                           running_theory)
        # oracle: independent substitution of the case pattern
        nil, cons = sgs.subgoals
        assert nil.conclusion == _substitute(
            running_goal.conclusion, "xs",
            expect(running_theory, "[] = []").fun.arg)
        assert cons.conclusion == expect(
            running_theory, "itrev (x # xs) ys = rev (x # xs) @ ys")

    def test_multi_term_applies_first_scheme_only(self, running_theory,
                                                  running_goal):
        one = apply_induct(running_goal, parse_candidate("induct xs"),
                           running_theory)
        two = apply_induct(running_goal, parse_candidate("induct xs ys"),
                           running_theory)
        assert one == two

    def test_premises_are_case_instantiated(self, corpus_dir):
        thy = parse_theory((corpus_dir / "nats.thy").read_text(), "nats")
        goal = thy.goal_named("add_cancel")
        sgs = apply_induct(goal, parse_candidate("induct k"), thy)
        zero, suc = sgs.subgoals
        assert zero.premises == (expect(thy, "add 0 m = add 0 n"),)
        # k does not occur in the conclusion, so it is preserved
        assert zero.conclusion == goal.conclusion
        # step case: induction hypothesis first, then the original premise;
        # the scheme's case variable collides with the goal's n, so it is
        # primed.  The hypothesis carries the goal's premise, as in
        # Isabelle, rather than being the bare conclusion m = n.
        assert suc.premises[0] == expect(thy,
                                         "add n' m = add n' n ==> m = n")
        assert suc.premises[1] == expect(thy,
                                         "add (Suc n') m = add (Suc n') n")


# A datatype of two type parameters, fixed to (nat, 'a) by `leaves`.
TREE2 = """\
datatype tree2 'a 'b = Tip 'a | Node (('a, 'b) tree2) 'b (('a, 'b) tree2)
fun add :: "nat => nat => nat" where
  "add 0 n = n"
| "add (Suc m) n = Suc (add m n)"
fun leaves :: "(nat, 'b) tree2 => nat" where
  "leaves (Tip a) = a"
| "leaves (Node l b r) = add (leaves l) (leaves r)"
fun mirror :: "('a, 'b) tree2 => ('a, 'b) tree2" where
  "mirror (Tip a) = Tip a"
| "mirror (Node l b r) = Node (mirror r) b (mirror l)"
lemma leaves_mirror: "leaves (mirror t) = leaves t"
"""


class TestTwoParameterDatatype:
    @pytest.mark.parametrize("text, names, tip, node, hyps", [
        ("induct t", ("Tip", "Node"), "Tip x", "Node t1 x t2", "t1 t2"),
        ("induct t rule: leaves.induct", ("1", "2"), "Tip a", "Node l b r",
         "l r"),
        ("induct t rule: mirror.induct", ("1", "2"), "Tip a", "Node l b r",
         "r l"),
    ])
    def test_cases_follow_both_type_arguments(self, text, names, tip, node,
                                              hyps):
        thy = parse_theory(TREE2)
        goal = thy.goals[0]
        sgs = apply_induct(goal, parse_candidate(text), thy)
        assert sgs.case_names == names

        def instance(pattern):
            return f"leaves (mirror {pattern}) = leaves {pattern}"
        # only the recursive arguments get a hypothesis
        base, step = sgs.subgoals
        assert format_goal(base) == instance(f"({tip})")
        assert format_goal(step) == " ==> ".join(
            [*map(instance, hyps.split()), instance(f"({node})")])
        # Tip's argument is a nat, Node's middle one has the goal's second
        # type argument, and its subtrees have the goal's type
        t, = goal_free_variables(goal)
        assert [v.type for v in free_variables(base.conclusion)] \
            == [TYPE_NAT]
        assert [v.type for v in free_variables(step.conclusion)] \
            == [t.type, t.type.args[1], t.type]

    def test_every_subgoal_passes_check_term(self):
        thy = parse_theory(TREE2)
        goal = thy.goals[0]
        tactic = InductTactic(goal, thy)
        applied = set()
        for candidate in enumerate_candidates(goal, thy):
            sgs = tactic.apply(candidate)
            if type(sgs) is Failure:
                continue
            applied.add(candidate.rule)
            for sg in sgs.subgoals:
                for _, root in sg.regions():
                    check_term(root, thy)
        assert applied == {None, "leaves.induct", "mirror.induct"}


def _substitute(term, name, replacement):
    from inductrank.terms import subst_frees
    return subst_frees(term, {name: replacement})


class TestFunctionalMode:
    def test_prf2_subgoals(self, running_theory, running_goal):
        sgs = apply_induct(
            running_goal, parse_candidate("induct xs ys rule: itrev.induct"),
            running_theory)
        assert sgs.case_names == ("1", "2")
        base, step = sgs.subgoals
        assert base.premises == ()
        assert base.conclusion == expect(
            running_theory, "itrev [] ys = rev [] @ ys")
        assert step.premises == (expect(
            running_theory, "itrev xs (x # ys) = rev xs @ (x # ys)"),)
        assert step.conclusion == expect(
            running_theory, "itrev (x # xs) ys = rev (x # xs) @ ys")

    def test_zero_terms_leaves_schematics_at_both_positions(
            self, running_theory, running_goal):
        sgs = apply_induct(running_goal,
                           parse_candidate("induct rule: itrev.induct"),
                           running_theory)
        assert len(sgs.subgoals) == 2
        for sg in sgs.subgoals:
            assert contains_schematic(sg)
            names = {t.name for _, t in subterms_with_paths(sg.conclusion)
                     if isinstance(t, SchematicVar)}
            assert names == {"x1", "x2"}

    def test_full_instantiation_leaves_no_schematics(self, running_theory,
                                                     running_goal):
        sgs = apply_induct(
            running_goal, parse_candidate("induct xs ys rule: itrev.induct"),
            running_theory)
        assert not any(contains_schematic(sg) for sg in sgs.subgoals)

    # Each subgoal as printed.  A schematic position's equation ``?xk = arg``
    # is wrapped around the conclusion and each hypothesis, ``?x1``
    # outermost, and a generalised variable is renamed inside it.
    @pytest.mark.parametrize("text, printed", [
        ("induct rule: itrev.induct", (
            "?x1 = [] ==> ?x2 = ys' ==> itrev xs ys = rev xs @ ys",
            "(?x1 = xs' ==> ?x2 = x # ys' ==> itrev xs ys = rev xs @ ys)"
            " ==> (?x1 = x # xs' ==> ?x2 = ys' ==> itrev xs ys"
            " = rev xs @ ys)")),
        ("induct xs arbitrary: ys rule: itrev.induct", (
            "?x2 = ys' ==> itrev [] ys'' = rev [] @ ys''",
            "(?x2 = x # ys' ==> itrev xs ys''' = rev xs @ ys''')"
            " ==> (?x2 = ys' ==> itrev (x # xs) ys'' = rev (x # xs) @ ys'')")),
        ("induct ys rule: itrev.induct", (
            "?x2 = ys ==> itrev xs [] = rev xs @ []",
            "(?x2 = x # ys ==> itrev xs xs' = rev xs @ xs')"
            " ==> (?x2 = ys ==> itrev xs (x # xs') = rev xs @ x # xs')")),
    ])
    def test_anchored_subgoals_as_printed(self, running_theory,
                                          running_goal, text, printed):
        sgs = apply_induct(running_goal, parse_candidate(text),
                           running_theory)
        assert sgs.schematic
        assert tuple(map(format_goal, sgs.subgoals)) == printed


class TestErrors:
    def test_no_arguments(self, running_theory, running_goal):
        failure = apply_induct(running_goal, Candidate(()), running_theory)
        assert failure.kind is TacticErrorKind.NO_ARGUMENTS

    def test_arbitrary_overlaps_induction_term(self, running_theory,
                                               running_goal):
        failure = apply_induct(running_goal,
                               parse_candidate("induct xs arbitrary: xs"),
                               running_theory)
        assert failure.kind \
            is TacticErrorKind.ARBITRARY_OVERLAPS_INDUCTION_TERM

    def test_non_datatype_variable(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("snoc_append")  # y has a type-variable type
        failure = apply_induct(goal, parse_candidate("induct y"), thy)
        assert failure.kind is TacticErrorKind.NON_DATATYPE_VARIABLE

    def test_unknown_variable(self, running_theory, running_goal):
        failure = apply_induct(running_goal, parse_candidate("induct zz"),
                               running_theory)
        assert failure.kind is TacticErrorKind.UNKNOWN_VARIABLE

    def test_rule_arity_exceeded(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("map_append")
        failure = apply_induct(
            goal, parse_candidate("induct f xs ys rule: snoc.induct"),
            thy)
        assert failure.kind is TacticErrorKind.RULE_ARITY_EXCEEDED

    def test_unknown_rule(self, running_theory, running_goal):
        failure = apply_induct(running_goal,
                               parse_candidate("induct xs rule: rev.induct"),
                               running_theory)
        assert failure.kind is TacticErrorKind.UNKNOWN_RULE

    def test_type_mismatch_against_rule_position(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("len_append")  # xs, ys both element lists
        # snoc's second position is the element type, so a list cannot fit
        failure = apply_induct(
            goal, Candidate(("xs", "ys"), frozenset(), "snoc.induct"),
            thy)
        assert failure.kind is TacticErrorKind.NON_DATATYPE_VARIABLE


class TestInvariants:
    def test_pure_and_deterministic(self, running_theory, running_goal):
        c = parse_candidate("induct xs ys rule: itrev.induct")
        a = apply_induct(running_goal, c, running_theory)
        b = apply_induct(running_goal, c, running_theory)
        assert a == b

    def test_subgoal_count_equals_case_count(self, corpus_dir):
        thy = parse_theory((corpus_dir / "trees.thy").read_text(), "trees")
        goal = thy.goal_named("mirror_mirror")
        sgs = apply_induct(goal, parse_candidate("induct t"), thy)
        assert len(sgs.subgoals) == len(thy.datatype("tree").constructors)
        assert len(sgs.case_names) == len(sgs.subgoals)


class TestCandidateSyntax:
    def test_round_trip(self):
        for text in ["induct", "induct xs", "induct xs ys",
                     "induct xs arbitrary: ys",
                     "induct xs ys arbitrary: a b rule: f.induct",
                     "induct rule: f.induct"]:
            assert parse_candidate(text).tactic_text() == text

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            parse_candidate("induct xs xs")

    def test_rejects_a_second_rule(self):
        with pytest.raises(ValueError, match="^rule: given more than once$"):
            parse_candidate("induct xs rule: a.induct rule: b.induct")

    @pytest.mark.parametrize("text, error", [
        ("induct xs arbitrary: ys arbitrary: zs",
         "arbitrary: given more than once"),
        ("induct xs rule: itrev.induct arbitrary: ys",
         "unexpected token 'arbitrary:' after rule"),
    ])
    def test_rejects_arbitrary_out_of_place(self, text, error):
        with pytest.raises(ValueError) as err:
            parse_candidate(text)
        assert str(err.value) == error

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_candidate("apply auto")

    def test_repr_and_defaults(self):
        assert repr(Candidate(("xs",))) == (
            "Candidate(induction_terms=('xs',), arbitrary=frozenset(), "
            "rule=None)")
        assert Candidate(("xs",)) == parse_candidate("induct xs")


# ---------------------------------------------------------------------------
# One tactic shared by every candidate of a goal


def _corpus_and_g4_goals(corpus_dir, g4_theory):
    goals = [(thy, goal) for path in sorted(corpus_dir.glob("*.thy"))
             for thy in [parse_theory(path.read_text(encoding="utf-8"),
                                      path.name)]
             for goal in thy.goals]
    goals.append((g4_theory, g4_theory.goal_named("g4")))
    assert len(goals) == 16
    return goals


class TestSharedTactic:
    def test_shared_tactic_equals_fresh_application(self, corpus_dir,
                                                    g4_theory):
        # in kind and detail, or in subgoals
        kinds = set()
        for thy, goal in _corpus_and_g4_goals(corpus_dir, g4_theory):
            shared = InductTactic(goal, thy)
            # backwards, so the shared cases are made in another order
            # than stage 1 makes them
            for candidate in reversed(list(enumerate_candidates(goal, thy))):
                got = shared.apply(candidate)
                assert got == apply_induct(goal, candidate, thy), \
                    (goal.name, candidate.tactic_text())
                kinds.add(got.kind if type(got) is Failure else "subgoals")
        # enumeration names only rules it found and the goal's variables
        assert kinds == {"subgoals", *TacticErrorKind} - {
            TacticErrorKind.UNKNOWN_RULE, TacticErrorKind.UNKNOWN_VARIABLE}

    def test_attempt_agrees_with_apply(self, corpus_dir, g4_theory):
        # each attempt of the shared tactic, in stage 1's order, agrees
        # with a fresh application; a repeated attempt at a case gets the
        # memoised subgoals, or a failure of the same kind and detail
        for thy, goal in _corpus_and_g4_goals(corpus_dir, g4_theory):
            shared = InductTactic(goal, thy)
            for candidate in enumerate_candidates(goal, thy):
                outcome = shared.apply(candidate)
                where = (goal.name, candidate.tactic_text())
                assert outcome == apply_induct(goal, candidate, thy), where
                case = shared.apply_case(candidate)
                again = shared.apply_case(candidate)
                if type(outcome) is Failure:
                    assert case == again == outcome, where
                else:
                    assert again is case, where
                    assert (outcome is case) == (not candidate.arbitrary), \
                        where

    @pytest.mark.parametrize("text, message", [
        ("induct", "NoArguments: no induction terms and no rule"),
        ("induct ys xs arbitrary: xs ys",
         "ArbitraryOverlapsInductionTerm: generalising an induction term"),
        ("induct xs zz", "UnknownVariable: zz is not a free variable of "
                         "the goal"),
        ("induct xs zz aa", "UnknownVariable: zz is not a free variable "
                            "of the goal"),
        ("induct xs arbitrary: zz", "UnknownVariable: zz is not a free "
                                    "variable of the goal"),
        ("induct ww arbitrary: zz", "UnknownVariable: ww is not a free "
                                    "variable of the goal"),
        ("induct xs rule: nosuch.induct",
         "UnknownRule: no induction rule named nosuch.induct"),
    ])
    def test_error_messages(self, running_goal, running_theory, text,
                            message):
        failure = apply_induct(running_goal, parse_candidate(text),
                               running_theory)
        assert f"{failure.kind.value}: {failure.detail}" == message

    @pytest.mark.parametrize("source, goal, text, message", [
        ("g4", "g4", "induct xs ys zs rule: itrev.induct",
         "RuleArityExceeded: itrev.induct has 2 position(s), got 3 "
         "induction terms"),
        ("g4", "g4", "induct m rule: itrev.induct",
         "NonDatatypeVariable: m : nat does not fit position 1 of "
         "itrev.induct ('a list)"),
        ("lists.thy", "snoc_append", "induct y",
         "NonDatatypeVariable: y has type 'a, which is not a datatype"),
    ])
    def test_fitting_error_messages(self, corpus_dir, g4_theory, source,
                                    goal, text, message):
        thy = g4_theory if source == "g4" else parse_theory(
            (corpus_dir / source).read_text(encoding="utf-8"), source)
        failure = apply_induct(thy.goal_named(goal), parse_candidate(text),
                               thy)
        assert f"{failure.kind.value}: {failure.detail}" == message

    def test_structural_candidates_share_one_subgoal_set(self, g4_theory):
        goal = g4_theory.goal_named("g4")
        tactic = InductTactic(goal, g4_theory)
        texts = ("induct xs arbitrary: zs", "induct xs ys arbitrary: zs",
                 "induct xs n m arbitrary: ys zs", "induct xs ys")
        same = [tactic.apply_case(parse_candidate(text))
                for text in texts]
        assert same[0] is same[1] is same[2] is same[3]
        assert tactic.apply(parse_candidate(texts[3])) is same[0]
        # a generalised set is built on each application
        fresh = apply_induct(goal, parse_candidate(texts[1]), g4_theory)
        again = tactic.apply(parse_candidate(texts[1]))
        assert again == fresh and again is not fresh
        assert again != same[0]
        # a rule, or another term under a rule, is another case
        others = [tactic.apply_case(parse_candidate(text)) for text in (
            "induct xs ys rule: itrev.induct",
            "induct ys xs rule: itrev.induct")]
        assert all(type(o) is SubgoalSet for o in others)
        assert len({id(o) for o in [same[0], *others]}) == 3

    def test_shared_failure_is_one_value(self, running_goal,
                                         running_theory):
        # how (induction terms, rule) fails is memoised, whatever the
        # candidate generalises
        tactic = InductTactic(running_goal, running_theory)
        first, second = (
            tactic.apply(parse_candidate(text))
            for text in ("induct xs rule: nosuch.induct",
                         "induct xs arbitrary: ys rule: nosuch.induct"))
        assert first == Failure(TacticErrorKind.UNKNOWN_RULE,
                                "no induction rule named nosuch.induct")
        assert second is first

    def test_cases_do_not_depend_on_arbitrary(self, running_goal,
                                              running_theory):
        # generalising one candidate must not leak into the shared cases
        tactic = InductTactic(running_goal, running_theory)
        plain = parse_candidate("induct xs rule: itrev.induct")
        generalised = parse_candidate("induct xs arbitrary: ys "
                                      "rule: itrev.induct")
        before = tactic.apply(plain)
        tactic.apply(generalised)
        assert tactic.apply(plain) == before \
            == apply_induct(running_goal, plain, running_theory)


class _RestartingTactic(InductTactic):
    """The tactic with generalised variables named as first written: every
    search for a fresh name starts again from the variable's own name, and
    avoids every name met so far in the subgoal, the goal or a renaming.
    `calls` counts the subgoals it generalised."""

    calls = 0

    def _generalise(self, sg, generalised):
        self.calls += 1
        taken = {v.name for v in self.variables}
        for term in (*sg.premises, sg.conclusion):
            taken.update(v.name for v in free_variables(term))

        def fresh_renaming():
            renaming = {}
            for var in generalised:
                new = fresh_name(var.name, taken)
                taken.add(new)
                renaming[var.name] = FreeVar(new, var.type)
            return renaming

        renaming = fresh_renaming()
        conclusion = subst_frees(sg.conclusion, renaming)
        hypotheses = len(sg.premises) - len(self.goal.premises)
        return Goal(sg.name, tuple(
            subst_frees(p, fresh_renaming() if i < hypotheses else renaming)
            for i, p in enumerate(sg.premises)), conclusion)


class TestGeneralisedNames:
    def test_every_finalist_names_as_first_written(self, corpus_dir,
                                                   g4_theory):
        generalised = calls = 0
        for thy, goal in _corpus_and_g4_goals(corpus_dir, g4_theory):
            tactic = InductTactic(goal, thy)
            restarting = _RestartingTactic(goal, thy)
            for candidate in screen(goal, thy).finalists:
                assert tactic.apply(candidate) == restarting.apply(
                    candidate), (goal.name, candidate.tactic_text())
                generalised += bool(candidate.arbitrary)
            calls += restarting.calls
        assert generalised > 100
        # every generalised subgoal was named by the override
        assert calls >= generalised

    def test_primed_variables_generalised_together(self, corpus_dir):
        # x' is a variable of its own and also a name that the search for
        # a fresh x passes through
        text = (corpus_dir / "running.thy").read_text(encoding="utf-8")
        thy = parse_theory(
            text + "\nlemma p: \"itrev xs (x @ x') = rev xs @ x @ x'\"")
        goal = thy.goal_named("p")
        candidate = parse_candidate("induct xs arbitrary: x x'")
        assert candidate in screen(goal, thy).finalists
        got = InductTactic(goal, thy).apply(candidate)
        assert got == _RestartingTactic(goal, thy).apply(candidate)
        assert [format_goal(sg) for sg in got.subgoals] == [
            "itrev [] (x'' @ x''') = rev [] @ x'' @ x'''",
            "itrev xs (x''''' @ x'''''') = rev xs @ x''''' @ x'''''' ==> "
            "itrev (x'' # xs) (x''' @ x'''') = rev (x'' # xs) @ x''' @ x''''",
        ]
