from __future__ import annotations

import itertools

import pytest

import inductrank.tactic as tactic_module
from inductrank.parser import parse_goal_expr, parse_theory
from inductrank.pipeline import enumerate_candidates
from inductrank.tactic import (
    Candidate, Failure, InductTactic, SubgoalSet, TacticError,
    TacticErrorKind, apply_induct, parse_candidate,
)
from inductrank.terms import (
    App, FreeVar, Goal, SchematicVar, contains_schematic, goal_free_variables,
    subterms_with_paths,
)


def expect(thy, text):
    return parse_goal_expr(text, thy)


class TestStructuralMode:
    def test_prf1_subgoals(self, running_theory, running_goal):
        sgs = apply_induct(running_goal,
                           parse_candidate("induct xs arbitrary: ys"),
                           running_theory, timeout=None)
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
                           running_theory, timeout=None)
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
                           running_theory, timeout=None)
        two = apply_induct(running_goal, parse_candidate("induct xs ys"),
                           running_theory, timeout=None)
        assert one == two

    def test_premises_are_case_instantiated(self, corpus_dir):
        thy = parse_theory((corpus_dir / "nats.thy").read_text(), "nats")
        goal = thy.goal_named("add_cancel")
        sgs = apply_induct(goal, parse_candidate("induct k"), thy,
                           timeout=None)
        zero, suc = sgs.subgoals
        assert zero.premises == (expect(thy, "add 0 m = add 0 n"),)
        # k does not occur in the conclusion, so it is preserved
        assert zero.conclusion == goal.conclusion
        # step case: induction hypothesis first, then the original premise;
        # the scheme's case variable collides with the goal's n, so it is
        # primed
        assert suc.premises[0] == goal.conclusion
        assert suc.premises[1] == expect(thy,
                                         "add (Suc n') m = add (Suc n') n")


def _substitute(term, name, replacement):
    from inductrank.terms import subst_frees
    return subst_frees(term, {name: replacement})


class TestFunctionalMode:
    def test_prf2_subgoals(self, running_theory, running_goal):
        sgs = apply_induct(
            running_goal, parse_candidate("induct xs ys rule: itrev.induct"),
            running_theory, timeout=None)
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
                           running_theory, timeout=None)
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
            running_theory, timeout=None)
        assert not any(contains_schematic(sg) for sg in sgs.subgoals)


class TestErrors:
    def test_no_arguments(self, running_theory, running_goal):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal, Candidate(()), running_theory,
                         timeout=None)
        assert err.value.kind is TacticErrorKind.NO_ARGUMENTS

    def test_arbitrary_overlaps_induction_term(self, running_theory,
                                               running_goal):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal,
                         parse_candidate("induct xs arbitrary: xs"),
                         running_theory, timeout=None)
        assert err.value.kind \
            is TacticErrorKind.ARBITRARY_OVERLAPS_INDUCTION_TERM

    def test_non_datatype_variable(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("snoc_append")  # y has a type-variable type
        with pytest.raises(TacticError) as err:
            apply_induct(goal, parse_candidate("induct y"), thy,
                         timeout=None)
        assert err.value.kind is TacticErrorKind.NON_DATATYPE_VARIABLE

    def test_unknown_variable(self, running_theory, running_goal):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal, parse_candidate("induct zz"),
                         running_theory, timeout=None)
        assert err.value.kind is TacticErrorKind.UNKNOWN_VARIABLE

    def test_rule_arity_exceeded(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("map_append")
        with pytest.raises(TacticError) as err:
            apply_induct(goal,
                         parse_candidate("induct f xs ys rule: snoc.induct"),
                         thy, timeout=None)
        assert err.value.kind is TacticErrorKind.RULE_ARITY_EXCEEDED

    def test_unknown_rule(self, running_theory, running_goal):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal,
                         parse_candidate("induct xs rule: rev.induct"),
                         running_theory, timeout=None)
        assert err.value.kind is TacticErrorKind.UNKNOWN_RULE

    def test_type_mismatch_against_rule_position(self, corpus_dir):
        thy = parse_theory((corpus_dir / "lists.thy").read_text(), "lists")
        goal = thy.goal_named("len_append")  # xs, ys both element lists
        # snoc's second position is the element type, so a list cannot fit
        with pytest.raises(TacticError) as err:
            apply_induct(goal,
                         Candidate(("xs", "ys"), frozenset(), "snoc.induct"),
                         thy, timeout=None)
        assert err.value.kind is TacticErrorKind.NON_DATATYPE_VARIABLE

    def test_timeout(self, running_theory, running_goal):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal, parse_candidate("induct xs"),
                         running_theory, timeout=1e-12)
        assert err.value.kind is TacticErrorKind.TIMEOUT


class TestInvariants:
    def test_pure_and_deterministic(self, running_theory, running_goal):
        c = parse_candidate("induct xs ys rule: itrev.induct")
        a = apply_induct(running_goal, c, running_theory, timeout=None)
        b = apply_induct(running_goal, c, running_theory, timeout=None)
        assert a == b

    def test_subgoal_count_equals_case_count(self, corpus_dir):
        thy = parse_theory((corpus_dir / "trees.thy").read_text(), "trees")
        goal = thy.goal_named("mirror_mirror")
        sgs = apply_induct(goal, parse_candidate("induct t"), thy,
                           timeout=None)
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


def _outcome(apply, candidate):
    """The subgoals of an application, or the kind of error it raised."""
    try:
        return apply(candidate)
    except TacticError as err:
        return err.kind


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
        kinds = set()
        for thy, goal in _corpus_and_g4_goals(corpus_dir, g4_theory):
            shared = InductTactic(goal, thy)
            # backwards, so the shared cases are made in another order
            # than stage 1 makes them
            for candidate in reversed(list(enumerate_candidates(goal, thy))):
                got = _outcome(lambda c: shared.apply(c, None), candidate)
                assert got == _outcome(
                    lambda c: apply_induct(goal, c, thy, timeout=None),
                    candidate), (goal.name, candidate.tactic_text())
                kinds.add(got if isinstance(got, TacticErrorKind)
                          else "subgoals")
        # enumeration names only rules it found and the goal's variables
        assert kinds == {"subgoals", *TacticErrorKind} - {
            TacticErrorKind.UNKNOWN_RULE, TacticErrorKind.UNKNOWN_VARIABLE,
            TacticErrorKind.TIMEOUT}

    def test_attempt_agrees_with_apply(self, corpus_dir, g4_theory):
        for thy, goal in _corpus_and_g4_goals(corpus_dir, g4_theory):
            shared = InductTactic(goal, thy)
            for candidate in enumerate_candidates(goal, thy):
                outcome = shared.attempt(candidate, None)
                where = (goal.name, candidate.tactic_text())
                try:
                    fresh = apply_induct(goal, candidate, thy, timeout=None)
                except TacticError as err:
                    assert type(outcome) is Failure, where
                    assert (outcome.kind, outcome.message(candidate)) \
                        == (err.kind, err.detail), where
                    with pytest.raises(TacticError) as again:
                        shared.apply(candidate, None)
                    assert str(again.value) == str(err), where
                else:
                    assert outcome == fresh, where
                    assert shared.apply(candidate, None) is outcome, where

    @pytest.mark.parametrize("text, message", [
        ("induct", "NoArguments: no induction terms and no rule"),
        ("induct ys xs arbitrary: xs ys",
         "ArbitraryOverlapsInductionTerm: generalising an induction term: "
         "xs, ys"),
        ("induct xs zz", "UnknownVariable: zz is not a free variable of "
                         "the goal"),
        ("induct xs rule: nosuch.induct",
         "UnknownRule: no induction rule named nosuch.induct"),
    ])
    def test_error_messages(self, running_goal, running_theory, text,
                            message):
        with pytest.raises(TacticError) as err:
            apply_induct(running_goal, parse_candidate(text), running_theory,
                         timeout=None)
        assert str(err.value) == message

    def test_structural_candidates_share_one_subgoal_set(self, g4_theory):
        goal = g4_theory.goal_named("g4")
        tactic = InductTactic(goal, g4_theory)
        same = [tactic.attempt(parse_candidate(text), None) for text in (
            "induct xs arbitrary: zs", "induct xs ys arbitrary: zs",
            "induct xs n m arbitrary: zs")]
        assert same[0] is same[1] is same[2]
        fresh = apply_induct(goal, parse_candidate("induct xs ys "
                                                   "arbitrary: zs"),
                             g4_theory, timeout=None)
        assert same[0] == fresh and same[0] is not fresh
        # another `arbitrary`, a rule, or another term under a rule is
        # another application
        others = [tactic.attempt(parse_candidate(text), None) for text in (
            "induct xs ys arbitrary: m", "induct xs ys rule: itrev.induct",
            "induct ys xs rule: itrev.induct")]
        assert all(type(o) is SubgoalSet for o in others)
        assert len({id(o) for o in [same[0], *others]}) == 4

    def test_timed_out_application_is_not_memoised(self, monkeypatch,
                                                   running_goal,
                                                   running_theory):
        ticks = itertools.count()  # one second passes per reading
        monkeypatch.setattr(tactic_module, "monotonic",
                            lambda: float(next(ticks)))
        tactic = InductTactic(running_goal, running_theory)
        candidate = parse_candidate("induct xs arbitrary: ys")
        for _ in range(2):
            assert tactic.attempt(candidate, 0.5).kind \
                is TacticErrorKind.TIMEOUT
        done = tactic.attempt(candidate, None)
        assert type(done) is SubgoalSet
        # now memoised: answered without a timeout check
        assert tactic.attempt(candidate, 0.5) is done

    def test_shared_failure_raises_a_fresh_error(self, running_goal,
                                                 running_theory):
        tactic = InductTactic(running_goal, running_theory)
        errors = []
        for text in ("induct xs rule: nosuch.induct",
                     "induct xs arbitrary: ys rule: nosuch.induct"):
            with pytest.raises(TacticError) as info:
                tactic.apply(parse_candidate(text), None)
            errors.append(info.value)
        first, second = errors
        assert first.kind == second.kind == TacticErrorKind.UNKNOWN_RULE
        assert first.detail == second.detail
        assert second is not first

    def test_cases_do_not_depend_on_arbitrary(self, running_goal,
                                              running_theory):
        # generalising one candidate must not leak into the shared cases
        tactic = InductTactic(running_goal, running_theory)
        plain = parse_candidate("induct xs rule: itrev.induct")
        generalised = parse_candidate("induct xs arbitrary: ys "
                                      "rule: itrev.induct")
        before = tactic.apply(plain, None)
        tactic.apply(generalised, None)
        assert tactic.apply(plain, None) == before \
            == apply_induct(running_goal, plain, running_theory, None)
