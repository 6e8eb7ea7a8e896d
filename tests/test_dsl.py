from __future__ import annotations

import random
from collections import Counter

import pytest

from _reference import random_formula, ref_evaluate, ref_rule_names
from inductrank import dsl
from inductrank.dsl import (
    Atom, Exists, Forall, GoalIndex, Implies, Not, Sort, TrueF,
    compile_formula, evaluate, make_context, parse_formula,
    parse_heuristics,
)
from inductrank.parser import ParseError, parse_theory
from inductrank.pipeline import enumerate_candidates
from inductrank.scoring import default_suite
from inductrank.tactic import Candidate, parse_candidate
from inductrank.terms import Occurrence, goal_free_variables, occurrences_of


def ctx_for(goal, thy, text):
    candidate = parse_candidate(text)
    return make_context(goal, candidate, thy)


@pytest.fixture(scope="module")
def program_one():
    return default_suite()[0].formula


class TestProgramOneVerdicts:
    def test_true_on_rule_with_matching_argument_order(
            self, running_goal, running_theory, program_one):
        ctx = ctx_for(running_goal, running_theory,
                      "induct xs ys rule: itrev.induct")
        assert evaluate(program_one, ctx) is True

    def test_vacuously_true_without_rule(self, running_goal, running_theory,
                                         program_one):
        ctx = ctx_for(running_goal, running_theory,
                      "induct xs arbitrary: ys")
        assert evaluate(program_one, ctx) is True

    def test_false_on_misordered_single_term(self, running_goal,
                                             running_theory, program_one):
        ctx = ctx_for(running_goal, running_theory,
                      "induct ys rule: itrev.induct")
        assert evaluate(program_one, ctx) is False

    def test_number_bound_covers_argument_positions(self, running_goal,
                                                    running_theory):
        ctx = ctx_for(running_goal, running_theory, "induct xs")
        assert ctx.number_bound == 2


class TestParsing:
    def test_true(self):
        assert parse_formula("True") == TrueF()

    def test_sort_error_reported_at_parse_time(self):
        with pytest.raises(ParseError) as err:
            parse_formula("EX n : number. n is_rule_of n")
        assert "sort" in str(err.value)

    def test_unbound_variable(self):
        with pytest.raises(ParseError) as err:
            parse_formula("is_free_variable (t)")
        assert "unbound" in str(err.value)

    def test_unknown_assertion(self):
        with pytest.raises(ParseError):
            parse_formula("EX t : term. frobnicates (t)")

    def test_restriction_sorts_checked(self):
        with pytest.raises(ParseError):
            parse_formula("EX n : number in induction_term. True")
        with pytest.raises(ParseError):
            parse_formula("EX t : term. EX u : term in t : term. True")

    def test_unicode_aliases(self):
        a = parse_formula("∃ r1 : rule. True")
        b = parse_formula("EX r1 : rule. True")
        assert a == b
        c = parse_formula("(∃ r : rule. True) → (¬ True ∨ True)")
        assert c == parse_formula("(EX r : rule. True) --> (! True | True)")

    def test_quantifier_body_extends_right(self):
        f = parse_formula(
            "EX t : term. is_free_variable (t) & is_constant (t)")
        assert isinstance(f, Exists)

    def test_suite_blocks(self):
        suite = parse_heuristics(
            "(* two tiny heuristics *)\n"
            "heuristic a: True\n"
            "heuristic b: ALL t : term in induction_term. "
            "is_free_variable (t)\n")
        assert [name for name, _ in suite] == ["a", "b"]

    def test_duplicate_heuristic_names(self):
        with pytest.raises(ParseError):
            parse_heuristics("heuristic a: True\nheuristic a: True")

    @pytest.mark.parametrize("parse, text, message", [
        (parse_heuristics, "heuristic h:\n  True $ True",
         "<heuristics>:2:8: unexpected character '$'"),
        (parse_formula, "True -- True",
         "<formula>:1:6: unexpected character '-'"),
        (parse_heuristics, "heuristic h: True\n(* never closed",
         "<heuristics>:2:1: unterminated comment"),
        (parse_heuristics,
         "heuristic h: True\n  (* outer (* inner *) still open",
         "<heuristics>:2:3: unterminated comment"),
        (parse_formula, "EX t : term. (is_constant (t)",
         "<formula>:1:30: unexpected end of input (expected ')')"),
        (parse_formula, "True &",
         "<formula>:1:7: unexpected end of formula (expected formula)"),
        (parse_formula, "True -->\n\n",
         "<formula>:3:1: unexpected end of formula (expected formula)"),
        (parse_heuristics, "(* a\n b *) oops",
         "<heuristics>:2:7: found 'oops' (expected 'heuristic')"),
        (parse_heuristics,
         "(* one\n   two (* three *)\n *)   heuristic h: ! oops",
         "<heuristics>:3:26: found non-assertion "
         "(expected assertion name)"),
        (parse_heuristics, "heuristic h: (* c *) True @",
         "<heuristics>:1:27: unexpected character '@'"),
        (parse_formula, "EX r : rule. (* (*) *) *) r",
         "<formula>:1:28: found non-assertion (expected assertion name)"),
        (parse_heuristics,
         "heuristic a:\r\n  True\r\nheuristic b:\r\n"
         "  ALL t : term. is_constant (u)",
         "<heuristics>:4:30: unbound variable u"),
        (parse_formula, "True\r\n& (True\r\n",
         "<formula>:3:1: unexpected end of input (expected ')')"),
        (parse_formula,
         "∀ t : term ∈ induction_term. ¬ is_constant (t) ∧ "
         "is_free_variable (u)",
         "<formula>:1:68: unbound variable u"),
        (parse_formula, "∃ r : rule. ∃ t : term. t is_rule_of r",
         "<formula>:1:25: sort error: t has sort term, "
         "is_rule_of expects rule"),
        (parse_formula, "EX x : widget. True",
         "<formula>:1:8: unknown sort 'widget' "
         "(expected number or rule or term or term_occurrence)"),
        (parse_heuristics, "heuristic a: True\nheuristic a: True",
         "<heuristics>:2:11: duplicate heuristic a"),
        (parse_heuristics, "heuristic 3: True",
         "<heuristics>:1:11: found non-identifier "
         "(expected heuristic name)"),
        (parse_formula, "True True",
         "<formula>:1:6: trailing tokens after formula"),
    ])
    def test_exact_error_positions(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


class TestAtomSemantics:
    def test_is_nth_argument_of_positions(self, running_goal,
                                          running_theory):
        ctx = ctx_for(running_goal, running_theory, "induct xs ys")
        is_nth_argument_of = dsl._ATOMS["is_nth_argument_of"]
        itrev_occ = next(o for o in ctx.index.occurrences
                         if getattr(o.term, "name", None) == "itrev")
        xs = ctx.induction_terms[0]
        ys = ctx.induction_terms[1]
        xs_in_itrev = occurrences_of(xs, running_goal)[0]
        assert is_nth_argument_of(ctx, xs_in_itrev, 1, itrev_occ)
        # arity is 2, so there is no third argument
        assert not is_nth_argument_of(ctx, xs_in_itrev, 3, itrev_occ)
        append_occ = next(o for o in ctx.index.occurrences
                          if getattr(o.term, "name", None) == "@")
        ys_in_append = occurrences_of(ys, running_goal)[1]
        assert is_nth_argument_of(ctx, ys_in_append, 2, append_occ)

    def test_occurrence_restriction_matches_occurrences_of(
            self, running_goal, running_theory):
        ctx = ctx_for(running_goal, running_theory, "induct xs")
        ys = next(t for t in ctx.index.terms
                  if getattr(t, "name", None) == "ys")
        restricted = [o for o in ctx.index.occurrences if o.term == ys]
        assert restricted == occurrences_of(ys, running_goal)


SMALL_THEORIES = [
    # (source, goal name, candidate)
    ('primrec add :: "nat => nat => nat" where\n'
     '  "add 0 n = n"\n'
     '| "add (Suc m) n = Suc (add m n)"\n'
     'lemma a: "add m n = add n m"', "a", "induct m"),
    ('fun itadd :: "nat => nat => nat" where\n'
     '  "itadd 0 n = n"\n'
     '| "itadd (Suc m) n = itadd m (Suc n)"\n'
     'lemma b: "itadd m n = m"', "b", "induct m n rule: itadd.induct"),
    ('lemma c: "xs @ ys = ys @ xs"', "c", "induct xs arbitrary: ys"),
    ('datatype color = R | G | B\n'
     'lemma d: "c = R"', "d", "induct c"),
    ('primrec len :: "\'a list => nat" where\n'
     '  "len [] = 0"\n'
     '| "len (x # xs) = Suc (len xs)"\n'
     'lemma e: "len (x # xs) = Suc (len xs)"', "e", "induct xs rule: x"),
]


def _contexts():
    out = []
    for src, goal_name, cand_text in SMALL_THEORIES:
        thy = parse_theory(src)
        goal = thy.goal_named(goal_name)
        candidate = parse_candidate(cand_text)
        out.append((goal, candidate, thy))
    return out


class TestEvaluatorAgainstReference:
    def test_random_formulas_agree(self):
        rng = random.Random(20240817)
        contexts = _contexts()
        checked = 0
        for i in range(60):
            formula = random_formula(rng, depth=5, max_quantifiers=3)
            goal, candidate, thy = contexts[i % len(contexts)]
            ctx = make_context(goal, candidate, thy)
            assert evaluate(formula, ctx) == ref_evaluate(
                formula, goal, candidate, thy), f"formula #{i}: {formula}"
            checked += 1
        assert checked == 60

    def test_quantifier_duality(self):
        rng = random.Random(99)
        contexts = _contexts()
        for i in range(40):
            inner = random_formula(rng, depth=3, max_quantifiers=2)
            goal, candidate, thy = contexts[i % len(contexts)]
            ctx = make_context(goal, candidate, thy)
            for sort, restriction in [
                (Sort.TERM, None), (Sort.NUMBER, None), (Sort.RULE, None),
            ]:
                from inductrank.dsl import UNRESTRICTED
                neg_ex = Not(Exists("w", sort, UNRESTRICTED, inner))
                all_neg = Forall("w", sort, UNRESTRICTED, Not(inner))
                assert evaluate(neg_ex, ctx) == evaluate(all_neg, ctx)

    def test_rule_antecedent_vacuity(self):
        rng = random.Random(7)
        contexts = [(g, c, t) for g, c, t in _contexts() if c.rule is None]
        from inductrank.dsl import UNRESTRICTED
        for i in range(20):
            psi = random_formula(rng, depth=3, max_quantifiers=2)
            goal, candidate, thy = contexts[i % len(contexts)]
            ctx = make_context(goal, candidate, thy)
            shape = Implies(Exists("r", Sort.RULE, UNRESTRICTED, TrueF()),
                            psi)
            assert evaluate(shape, ctx) is True


# A goal naming one `fun` and one `primrec`, beside a `fun` it does not
# name and a nullary `fun`.
RULES_THEORY = """\
primrec rev :: "'a list => 'a list" where
  "rev [] = []"
| "rev (x # xs) = rev xs @ [x]"
fun itrev :: "'a list => 'a list => 'a list" where
  "itrev [] ys = ys"
| "itrev (x # xs) ys = itrev xs (x # ys)"
fun double :: "nat => nat" where
  "double 0 = 0"
| "double (Suc n) = Suc (Suc (double n))"
fun nil :: "'a list" where
  "nil = []"
lemma itrev_rev: "itrev xs ys = rev xs @ ys"
"""


class TestRuleDomain:
    """The rule sort ranges over the candidate's rule name when it names a
    `fun` with an argument position, and is empty otherwise."""

    @pytest.fixture(scope="class")
    def theory(self):
        return parse_theory(RULES_THEORY)

    @pytest.mark.parametrize("rule, resolves, of_goal", [
        ("itrev.induct", True, True),      # a rule of the goal
        ("double.induct", True, False),    # a `fun` the goal does not name
        ("rev.induct", False, False),      # a `primrec` carries no rule
        ("nil.induct", False, False),      # a nullary `fun` has no position
        ("x.induct", False, False),        # nothing is defined as x
        ("itrev", False, False),           # no `.induct` suffix
    ])
    def test_rules_agree_with_reference(self, theory, rule, resolves,
                                        of_goal):
        goal = theory.goal_named("itrev_rev")
        candidate = Candidate(("xs",), frozenset(), rule)
        ctx = make_context(goal, candidate, theory)
        assert list(ctx.rules) == ref_rule_names(candidate, theory)
        assert ctx.rules == ((rule,) if resolves else ())
        for text, verdict in [
                ("EX r : rule. True", resolves),
                ("EX r : rule. EX to : term_occurrence. r is_rule_of to",
                 of_goal)]:
            formula = parse_formula(text)
            assert evaluate(formula, ctx) == verdict == ref_evaluate(
                formula, goal, candidate, theory)


# Formulas whose quantifiers rebind a name that an enclosing quantifier
# bound, and then read the outer binding again.
SHADOWING_FORMULAS = [
    "EX t : term. (EX t : term in induction_term. is_free_variable (t)) "
    "& is_constant (t)",
    "ALL t : term in induction_term. (EX t : term. "
    "is_recursive_constant (t)) --> "
    "(EX to : term_occurrence in t : term. occurs_in_conclusion (to))",
    # rebound at another sort
    "EX x : term in induction_term. (EX x : number. "
    "EX t : term in induction_term. t is_nth_induction_term x) "
    "& is_free_variable (x)",
    # an inner occurrence quantifier rebinds `to`; the last atom reads
    # the outer one, an occurrence of t rather than of t1
    "EX t1 : term. EX to1 : term_occurrence in t1 : term. "
    "EX t : term in induction_term. EX to : term_occurrence in t : term. "
    "is_nth_argument_of (to, 1, to1) "
    "& (ALL to : term_occurrence in t1 : term. same_term (to, t1)) "
    "& same_term (to, t)",
    # the restriction of the inner occurrence quantifier reads the
    # innermost t
    "ALL t : term in induction_term. EX t : term. "
    "EX to : term_occurrence in t : term. "
    "(is_recursive_constant (t)) & (occurs_in_conclusion (to))",
]


class TestCompiledEvaluator:
    @pytest.fixture(scope="class")
    def contexts(self, corpus_dir):
        out = []
        for path in sorted(corpus_dir.glob("*.thy")):
            thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
            for goal in thy.goals:
                names = [v.name for v in goal_free_variables(goal)]
                for terms in ([], names, names[::-1]):
                    out.append((goal, Candidate(tuple(terms)), thy))
        return out

    @pytest.mark.parametrize("text", SHADOWING_FORMULAS)
    def test_shadowing_quantifiers_agree_with_oracle(self, text, contexts):
        formula = parse_formula(text)
        check, _ = compile_formula(formula)
        verdicts = set()
        for goal, candidate, thy in contexts:
            ctx = make_context(goal, candidate, thy)
            expected = ref_evaluate(formula, goal, candidate, thy)
            assert evaluate(formula, ctx) == expected, goal.name
            assert evaluate(formula, ctx, check) == expected, goal.name
            verdicts.add(expected)
        assert verdicts == {True, False}  # the outer binding matters

    def test_one_compiled_formula_serves_many_contexts(self):
        rng = random.Random(314)
        contexts = _contexts()
        for i in range(30):
            formula = random_formula(rng, depth=5, max_quantifiers=3)
            check, _ = compile_formula(formula)
            for goal, candidate, thy in contexts:
                ctx = make_context(goal, candidate, thy)
                assert check(ctx) == ref_evaluate(
                    formula, goal, candidate, thy), f"formula #{i}"

    def test_unknown_assertion(self):
        with pytest.raises(ValueError, match="unknown assertion frobnicates"):
            compile_formula(Atom("frobnicates", ()))


def _varied_candidates(goal, thy, rng, per_count=4):
    """Candidates of `goal` with every induction-term count, drawn with
    and without `arbitrary` and a rule, the counts shuffled so that the
    number bound goes up and down while one index serves them all."""
    by_count: dict[int, list] = {}
    for c in enumerate_candidates(goal, thy):
        by_count.setdefault(len(c.induction_terms), []).append(c)
    drawn = [c for cs in by_count.values()
             for c in rng.sample(cs, min(per_count, len(cs)))]
    rng.shuffle(drawn)
    return drawn


class TestSharedMemo:
    """One `GoalIndex`, and so one memo of candidate-independent
    sub-formulas, serves every candidate of a goal."""

    @pytest.fixture(scope="class")
    def goals(self, g4_theory):
        out = [(goal, thy) for goal, _, thy in _contexts()]
        return out + [(g4_theory.goal_named("g4"), g4_theory)]

    def _agree(self, formula, goal, thy, candidates):
        check, _ = compile_formula(formula)
        index = GoalIndex(goal, thy)
        verdicts = set()
        for c in candidates:
            ctx = make_context(goal, c, thy, index=index)
            expected = ref_evaluate(formula, goal, c, thy)
            assert check(ctx) == expected, (formula, c.tactic_text())
            verdicts.add((ctx.number_bound, expected))
        return index, verdicts

    def test_random_formulas_agree_with_oracle(self, goals):
        rng = random.Random(1010)
        memoised = 0
        for i in range(40):
            formula = random_formula(rng, depth=6, max_quantifiers=4)
            goal, thy = goals[i % len(goals)]
            index, _ = self._agree(formula, goal, thy,
                                   _varied_candidates(goal, thy, rng, 2))
            memoised += bool(index.memo)
        assert memoised >= 5

    @pytest.mark.parametrize("text", SHADOWING_FORMULAS)
    def test_shadowing_formulas_agree_with_oracle(self, text, goals):
        rng = random.Random(text)
        for goal, thy in goals:
            self._agree(parse_formula(text), goal, thy,
                        _varied_candidates(goal, thy, rng))

    def test_memoised_number_quantifier_beyond_arity_bound(self):
        # The memoised `EX t1` holds `ALL n : number`: m is both arguments
        # of itadd, so it holds up to the arity bound of 2, and fails once
        # three induction terms raise the number bound to 3.
        thy = parse_theory(
            'fun itadd :: "nat => nat => nat" where\n'
            '  "itadd 0 n = n"\n'
            '| "itadd (Suc m) n = itadd m (Suc n)"\n'
            'lemma g: "itadd m m = itadd k n"')
        goal = thy.goals[0]
        formula = parse_formula(
            "EX t : term. EX t1 : term. ALL n : number. "
            "EX to1 : term_occurrence in t1 : term. "
            "EX to : term_occurrence in t : term. "
            "is_nth_argument_of (to, n, to1)")
        candidates = [parse_candidate(text) for text in (
            "induct m", "induct m n k", "induct k n", "induct n k m",
            "induct m arbitrary: n rule: itadd.induct", "induct k")]
        index, verdicts = self._agree(formula, goal, thy, candidates)
        assert verdicts == {(2, True), (3, False)}
        assert GoalIndex(goal, thy).arity_bound == 2
        # one entry per term bound to t and number bound, at most
        assert {key[1] for key in index.memo} == {2, 3}
        assert len(index.memo) <= 2 * len(index.terms)

    def test_body_runs_once_per_key(self, monkeypatch, g4_theory):
        # every call of the innermost atom under the memoised `EX t1`
        # binds the key (t2, number bound) and the inner variables; with
        # one index shared, no such binding is evaluated twice
        calls = Counter()
        test = dsl._ATOMS["is_nth_argument_of"]

        def counted(ctx, to2, n, to1):
            calls[ctx.number_bound, id(to2), n, id(to1)] += 1
            return test(ctx, to2, n, to1)

        monkeypatch.setitem(dsl._ATOMS, "is_nth_argument_of", counted)
        formula = parse_formula(
            "ALL t2 : term in induction_term. EX t1 : term. "
            "EX to1 : term_occurrence in t1 : term. (is_constant (t1)) & "
            "(EX to2 : term_occurrence in t2 : term. EX n : number. "
            "is_nth_argument_of (to2, n, to1))")
        check, _ = compile_formula(formula)
        goal = g4_theory.goal_named("g4")
        candidates = [c for c in enumerate_candidates(goal, g4_theory)
                      if not c.arbitrary]
        index = GoalIndex(goal, g4_theory)
        shared = [check(make_context(goal, c, g4_theory, index=index))
                  for c in candidates]
        assert max(calls.values()) == 1
        hits = sum(calls.values())
        calls.clear()
        fresh = [check(make_context(goal, c, g4_theory))
                 for c in candidates]
        assert shared == fresh
        assert sum(calls.values()) > 10 * hits
