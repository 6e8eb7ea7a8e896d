from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from _reference import formula_source, random_formula, ref_evaluate
from inductrank import scoring
from inductrank.dsl import (
    CANDIDATE_READS, GoalIndex, evaluate, make_context,
)
from inductrank.parser import parse_theory
from inductrank.pipeline import screen
from inductrank.schemes import rules_for
from inductrank.scoring import (
    default_suite, load_suite, score_all, shortlist,
)
from inductrank.tactic import Candidate, parse_candidate
from inductrank.terms import goal_free_variables


def factory_for(goal, thy):
    return lambda cand: make_context(goal, cand, thy)


@pytest.fixture(scope="module")
def running_scored(running_goal, running_theory):
    result = screen(running_goal, running_theory)
    scored = score_all(result.finalists, default_suite(),
                       factory_for(running_goal, running_theory))
    return result, scored


class TestDefaultSuite:
    def test_twenty_uniquely_named_heuristics(self):
        suite = default_suite()
        assert len(suite) == 20
        assert len({h.name for h in suite}) == 20

    def test_maximum_score_is_reachable(self, running_scored):
        _, scored = running_scored
        assert max(sc.score for sc in scored) == 20


class TestScoreAll:
    def test_empty_suite_keeps_pipeline_order(self, running_goal,
                                              running_theory):
        result = screen(running_goal, running_theory)
        scored = score_all(result.finalists, (),
                           factory_for(running_goal, running_theory))
        assert [sc.candidate for sc in scored] \
            == list(result.finalists)
        assert all(sc.score == 0 and sc.verdicts == () for sc in scored)
        assert [sc.rank for sc in scored] == list(range(1, len(scored) + 1))

    def test_program_one_only_suite(self, running_goal, running_theory):
        suite = (default_suite()[0],)
        matching = parse_candidate("induct xs ys rule: itrev.induct")
        misordered = parse_candidate("induct ys rule: itrev.induct")
        scored = score_all([matching, misordered], suite,
                           factory_for(running_goal, running_theory))
        by_candidate = {sc.candidate: sc for sc in scored}
        assert by_candidate[matching].score == 1
        assert by_candidate[misordered].score == 0

    def test_score_equals_true_verdicts(self, running_scored):
        _, scored = running_scored
        for sc in scored:
            assert 0 <= sc.score <= 20
            assert sc.score == sum(sc.verdicts)

    def test_sorted_by_score_then_pipeline_order(self, running_scored):
        _, scored = running_scored
        keys = [(-sc.score, sc.pipeline_index) for sc in scored]
        assert keys == sorted(keys)
        assert [sc.rank for sc in scored] == list(range(1, len(scored) + 1))

    def test_shuffle_preserves_score_multiset(self, running_goal,
                                              running_theory):
        result = screen(running_goal, running_theory)
        factory = factory_for(running_goal, running_theory)
        straight = score_all(result.finalists, default_suite(), factory)
        shuffled = list(result.finalists)
        random.Random(5).shuffle(shuffled)
        rescored = score_all(shuffled, default_suite(), factory)
        assert sorted((sc.candidate.tactic_text(), sc.score)
                      for sc in straight) \
            == sorted((sc.candidate.tactic_text(), sc.score)
                      for sc in rescored)


class TestShortlist:
    def test_takes_first_k(self, running_scored):
        _, scored = running_scored
        assert shortlist(scored, 3) == scored[:3]

    def test_short_input(self, running_scored):
        _, scored = running_scored
        assert len(shortlist(scored, 10)) == min(10, len(scored))
        assert shortlist(scored, 100) == list(scored)

    def test_k_positive(self, running_scored):
        _, scored = running_scored
        with pytest.raises(ValueError):
            shortlist(scored, 0)


class TestDomainIndependence:
    def test_same_suite_on_disjoint_theories(self):
        suite = default_suite()
        src_a = ('primrec plus :: "nat => nat => nat" where\n'
                 '  "plus 0 n = n"\n'
                 '| "plus (Suc m) n = Suc (plus m n)"\n'
                 'lemma pa: "plus a b = plus b a"')
        src_b = ("datatype rose = Tip | Bloom rose rose\n"
                 'fun graft :: "rose => rose => rose" where\n'
                 '  "graft Tip w = w"\n'
                 '| "graft (Bloom l r) w = Bloom (graft l w) r"\n'
                 'lemma gb: "graft u w = u"')
        for src, name in [(src_a, "pa"), (src_b, "gb")]:
            thy = parse_theory(src)
            goal = thy.goal_named(name)
            result = screen(goal, thy)
            scored = score_all(result.finalists, suite,
                               factory_for(goal, thy))
            assert scored  # evaluation never raised on unseen constants

    def test_whole_corpus_score_bounds(self, corpus_dir):
        suite = default_suite()
        for path in sorted(corpus_dir.glob("*.thy")):
            thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
            for goal in thy.goals:
                result = screen(goal, thy)
                scored = score_all(result.finalists, suite,
                                   factory_for(goal, thy))
                for sc in scored:
                    assert 0 <= sc.score <= len(suite)
                    assert sc.score == sum(sc.verdicts)


# ---------------------------------------------------------------------------
# Memoised verdicts

# One heuristic per candidate field, each reading only that field.
SINGLE_READ_HEURISTICS = [
    (("arbitrary",),
     "ALL t : term. (is_in_arbitrary (t)) --> "
     "(EX t1 : term. EX to1 : term_occurrence in t1 : term. "
     "(is_recursive_constant (t1)) & "
     "(EX to : term_occurrence in t : term. "
     "is_nth_argument_of (to, 1, to1)))"),
    (("rule",),
     "EX r : rule. EX t : term. EX to : term_occurrence in t : term. "
     "(r is_rule_of to) & (occurs_in_conclusion (to))"),
    (("induction_term_set",),
     "EX t : term in induction_term. "
     "EX to : term_occurrence in t : term. "
     "EX t1 : term. EX to1 : term_occurrence in t1 : term. "
     "is_nth_argument_of (to, 2, to1)"),
    (("induction_terms",),
     "EX t : term in induction_term. (t is_nth_induction_term 1) & "
     "(EX to : term_occurrence in t : term. "
     "EX t1 : term. EX to1 : term_occurrence in t1 : term. "
     "is_nth_argument_of (to, 2, to1))"),
    (("induction_term_count",),
     "ALL n : number. EX t1 : term. EX to1 : term_occurrence in t1 : term. "
     "EX t2 : term. EX to2 : term_occurrence in t2 : term. "
     "is_nth_argument_of (to2, n, to1)"),
]


def scored_as_cli(goal, thy, suite, candidates):
    """score_all with one shared goal index, the way the CLI scores."""
    index = GoalIndex(goal, thy)
    return score_all(candidates, suite, lambda c: make_context(
        goal, c, thy, index=index))


def _corpus_goals(corpus_dir):
    out = []
    for path in sorted(corpus_dir.glob("*.thy")):
        thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
        out += [(thy, goal) for goal in thy.goals]
    return out


@pytest.fixture(scope="module")
def corpus_finalists(corpus_dir):
    return [(thy, goal, screen(goal, thy).finalists)
            for thy, goal in _corpus_goals(corpus_dir)]


@pytest.fixture(scope="module")
def oracle_goals(corpus_dir, g4_theory):
    return _corpus_goals(corpus_dir) + [(g4_theory,
                                         g4_theory.goal_named("g4"))]


def candidates_over(goal, thy):
    """Candidates drawn over the goal's variables and its rules."""
    names = [v.name for v in goal_free_variables(goal)]
    rules = [None] + rules_for(goal, thy)
    return st.builds(
        Candidate,
        st.lists(st.sampled_from(names), unique=True).map(tuple),
        st.frozensets(st.sampled_from(names)),
        st.sampled_from(rules))


def candidate_grid(goal, thy):
    """The eight candidates that mix the fields of two drawn ones, so that
    for each field some pair of candidates differs in it alone."""
    return st.lists(candidates_over(goal, thy), min_size=2, max_size=2).map(
        lambda two: [Candidate(*c) for c in itertools.product(*zip(*two))])


def permutation_grid(goal, thy):
    """Every order of drawn induction terms, crossed with two drawn
    `arbitrary` sets and two drawn rule values, so that each set of terms
    is scored in all its orders."""
    names = [v.name for v in goal_free_variables(goal)]
    rules = [None] + rules_for(goal, thy)
    return st.tuples(
        st.lists(st.sampled_from(names), min_size=2, max_size=3,
                 unique=True),
        st.lists(st.frozensets(st.sampled_from(names)), min_size=2,
                 max_size=2),
        st.lists(st.sampled_from(rules), min_size=2, max_size=2,
                 unique=True) if len(rules) > 1 else st.just(rules),
    ).map(lambda drawn: [
        Candidate(terms, arbitrary, rule)
        for terms in itertools.permutations(drawn[0])
        for arbitrary in drawn[1] for rule in drawn[2]])


def random_suite_agrees_with_oracle(data, oracle_goals, grid,
                                    keep=lambda source: True):
    """Score eight random formulas whose source `keep` accepts on a `grid`
    of candidates of a drawn goal of two or more variables, and compare
    each verdict with the oracle."""
    thy, goal = data.draw(st.sampled_from(
        [(t, g) for t, g in oracle_goals
         if len(goal_free_variables(g)) > 1]))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32 - 1)))
    formulas: list = []
    while len(formulas) < 8:
        f = random_formula(rng, depth=4, max_quantifiers=3)
        if keep(formula_source(f)):
            formulas.append(f)
    suite = load_suite("".join(
        f"heuristic h{i}: {formula_source(f)}\n"
        for i, f in enumerate(formulas)))
    assert [h.formula for h in suite] == formulas
    candidates = data.draw(grid(goal, thy))
    for sc in scored_as_cli(goal, thy, suite, candidates):
        for h, verdict in zip(suite, sc.verdicts):
            assert verdict == ref_evaluate(
                h.formula, goal, sc.candidate, thy), (h.name, h.reads)


class TestMemoisedVerdicts:
    def test_every_corpus_finalist_agrees_with_oracle(self,
                                                      corpus_finalists):
        suite = default_suite()
        assert len(corpus_finalists) == 15
        for thy, goal, finalists in corpus_finalists:
            for sc in scored_as_cli(goal, thy, suite, finalists):
                for h, verdict in zip(suite, sc.verdicts):
                    assert verdict == ref_evaluate(
                        h.formula, goal, sc.candidate, thy), \
                        (goal.name, sc.candidate.tactic_text(), h.name)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_drawn_candidates_agree_with_oracle(self, data, oracle_goals):
        thy, goal = data.draw(st.sampled_from(oracle_goals))
        candidates = data.draw(st.lists(candidates_over(goal, thy),
                                        min_size=1, max_size=4))
        suite = default_suite()
        scored = scored_as_cli(goal, thy, suite, candidates)
        for sc in scored:
            for h, verdict in zip(suite, sc.verdicts):
                assert verdict == ref_evaluate(
                    h.formula, goal, sc.candidate, thy), h.name

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_random_suites_agree_with_oracle(self, data, oracle_goals):
        # score_all reuses a verdict for every candidate that agrees on the
        # heuristic's stored reads, so a read set missing a field would
        # show here as a verdict copied to a candidate that differs in it.
        # Few random formulas depend on any one field, hence the many
        # examples; a goal of one variable has too few candidates to tell.
        random_suite_agrees_with_oracle(data, oracle_goals, candidate_grid)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_every_order_of_the_terms_agrees_with_oracle(self, data,
                                                         oracle_goals):
        # a verdict keyed on the set of terms is reused for every order of
        # them, so a formula whose verdict depends on the order but whose
        # key is the set shows here as one verdict copied to another order.
        # Only is_nth_induction_term reads the order, and few random
        # formulas hold it, so every formula here does.
        random_suite_agrees_with_oracle(
            data, oracle_goals, permutation_grid,
            keep=lambda source: "is_nth_induction_term" in source)

    @pytest.mark.parametrize("reads, formula", SINGLE_READ_HEURISTICS,
                             ids=[r[0] for r, _ in SINGLE_READ_HEURISTICS])
    def test_memo_key_covers_what_the_formula_reads(self, reads, formula,
                                                    corpus_finalists):
        suite = load_suite(f"heuristic h: {formula}")
        assert suite[0].reads == reads
        seen = set()
        for thy, goal, finalists in corpus_finalists:
            for sc in scored_as_cli(goal, thy, suite, finalists):
                fresh = make_context(goal, sc.candidate, thy)
                assert sc.verdicts == (evaluate(suite[0].formula, fresh),)
                seen.add(sc.verdicts)
        assert seen == {(True,), (False,)}  # the field matters

    def test_default_ordered_readers(self):
        # only is_nth_induction_term reads the order of the terms
        assert [h.name for h in default_suite()
                if "induction_terms" in h.reads] == [
            "rule_constant_takes_induction_terms_in_order",
            "rule_argument_agreement_at_1",
            "rule_argument_agreement_at_2",
            "rule_argument_agreement_at_3",
            "rule_argument_agreement_at_4",
            "induction_position_matches_recursion",
            "first_induction_term_is_first_argument",
        ]


class TestEvaluateBinding:
    def test_one_module_level_evaluate_call_per_memo_miss(
            self, monkeypatch, corpus_finalists):
        # Callers that time heuristics wrap `scoring.evaluate`, so every
        # verdict score_all computes must go through that name, with the
        # suite's own formula object first.
        suite = default_suite()
        calls = []
        original = scoring.evaluate

        def spy(formula, *args):
            calls.append(formula)
            return original(formula, *args)

        monkeypatch.setattr(scoring, "evaluate", spy)
        for thy, goal, finalists in corpus_finalists:
            calls.clear()
            scored_as_cli(goal, thy, suite, finalists)
            misses = Counter({
                id(h.formula): len({
                    tuple([CANDIDATE_READS[n]([c])[0] for n in h.reads])
                    for c in finalists})
                for h in suite})
            assert all(any(f is h.formula for h in suite) for f in calls)
            assert Counter(id(f) for f in calls) == misses, goal.name
