"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

from __future__ import annotations

import random
import time

import pytest

from _reference import random_formula, ref_evaluate
from inductrank.cli import main as cli_main
from inductrank.dsl import evaluate, make_context
from inductrank.parser import parse_theory
from inductrank.pipeline import enumerate_candidates, screen, stage1, stage2
from inductrank.schemes import functional_scheme, structural_scheme
from inductrank.scoring import default_suite, score_all, shortlist
from inductrank.tactic import (
    Candidate, SubgoalSet, apply_induct, parse_candidate,
)
from inductrank.terms import (
    LIST_DT, NAT_DT, Goal, format_term, free_variables, goal_subterms,
)

PRF1 = "induct xs arbitrary: ys"
PRF2 = "induct xs ys rule: itrev.induct"


def report(n, label):
    print(f"criterion {n} ({label}): PASS")


def test_criterion_1_candidate_count(running_goal, running_theory):
    started = time.monotonic()
    candidates = list(enumerate_candidates(running_goal, running_theory))
    elapsed = time.monotonic() - started
    assert len(candidates) == 40
    assert elapsed < 1.0
    report(1, "exactly 40 candidates on the running example")


def test_criterion_2_expert_candidates_survive_and_rank(running_goal,
                                                        running_theory):
    started = time.monotonic()
    result = screen(running_goal, running_theory)
    factory = lambda c: make_context(running_goal, c, running_theory)  # noqa: E731
    scored = score_all(result.finalists, default_suite(), factory)
    top10 = {sc.candidate.tactic_text() for sc in shortlist(scored, 10)}
    elapsed = time.monotonic() - started
    finalist_texts = {c.tactic_text() for c in result.finalists}
    assert PRF1 in finalist_texts and PRF2 in finalist_texts
    assert PRF1 in top10 and PRF2 in top10
    assert elapsed < 5.0
    report(2, "expert candidates survive screening and reach the top 10")


def test_criterion_3_program_one_verdicts(running_goal, running_theory):
    formula = default_suite()[0].formula

    def verdict(text):
        candidate = parse_candidate(text)
        ctx = make_context(running_goal, candidate, running_theory)
        return evaluate(formula, ctx), candidate

    matching, _ = verdict(PRF2)
    assert matching is True

    vacuous, prf1_cand = verdict(PRF1)
    assert vacuous is True
    assert ref_evaluate(formula, running_goal, prf1_cand,
                        running_theory) is True

    misordered, ys_cand = verdict("induct ys rule: itrev.induct")
    assert misordered is False
    assert ref_evaluate(formula, running_goal, ys_cand,
                        running_theory) is False
    report(3, "first-heuristic verdicts exact, brute-force confirmed")


ORACLE_THEORIES = [
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
     'lemma e: "len (x # xs) = Suc (len xs)"', "e",
     "induct xs arbitrary: x"),
]


def test_criterion_4_interpreter_oracle_equivalence():
    started = time.monotonic()
    contexts = []
    for src, goal_name, cand in ORACLE_THEORIES:
        thy = parse_theory(src)
        goal = thy.goal_named(goal_name)
        contexts.append((goal, parse_candidate(cand), thy))
    assert len(contexts) >= 5
    rng = random.Random(411)
    checked = 0
    for i in range(120):
        formula = random_formula(rng, depth=5, max_quantifiers=3)
        goal, candidate, thy = contexts[i % len(contexts)]
        ctx = make_context(goal, candidate, thy)
        fast = evaluate(formula, ctx)
        slow = ref_evaluate(formula, goal, candidate, thy)
        assert fast == slow, f"disagreement on formula #{i}: {formula}"
        checked += 1
    elapsed = time.monotonic() - started
    assert checked >= 100
    assert elapsed < 60.0
    report(4, f"evaluator agrees with brute force on {checked} formulas")


def test_criterion_5_scheme_correctness(running_theory):
    nat = structural_scheme(NAT_DT)
    assert [c.name for c in nat.cases] == ["0", "Suc"]
    assert [len(c.hypotheses) for c in nat.cases] == [0, 1]
    assert [format_term(h[0]) for h in nat.cases[1].hypotheses] == ["n"]

    lst = structural_scheme(LIST_DT)
    assert [c.name for c in lst.cases] == ["Nil", "Cons"]
    assert [len(c.hypotheses) for c in lst.cases] == [0, 1]
    cons = lst.cases[1]
    assert cons.hypotheses[0][0] == cons.fresh_vars[1]

    itrev = functional_scheme(running_theory.fundef("itrev"))
    assert itrev.arity == 2
    base, step = itrev.cases
    assert base.hypotheses == ()
    assert [format_term(p) for p in base.patterns] == ["[]", "ys"]
    assert [format_term(p, 10) for p in step.patterns] == ["(x # xs)", "ys"]
    assert [[format_term(t, 10) for t in h] for h in step.hypotheses] \
        == [["xs", "(x # ys)"]]
    report(5, "nat/list structural and itrev functional schemes exact")


def test_criterion_6_screening_fixtures(running_goal, running_theory):
    # condition 1: two-nullary-constructor datatype, constant goal
    thy1 = parse_theory('datatype bit = B0 | B1\nlemma c: "B0 = B0"')
    goal1 = thy1.goals[0]
    sub = Goal("c.case", (), goal1.conclusion)
    _, dispositions = stage2(
        goal1, [(Candidate(("b",)), SubgoalSet(("B0", "B1"), (sub, sub)))])
    assert dispositions[0].condition == 1

    # condition 2: identity-like non-recursive function goal
    thy2 = parse_theory('fun id2 :: "\'a => \'a" where "id2 x = x"\n'
                        'lemma i: "id2 y = y"')
    goal2 = thy2.goals[0]
    _, dispositions = stage2(goal2, stage1(
        goal2, enumerate_candidates(goal2, thy2), thy2)[0])
    cond2 = [d.candidate for d in dispositions if d.condition == 2]
    assert Candidate((), frozenset(), "id2.induct") in cond2

    # condition 3: rule applied with zero induction terms
    _, dispositions = stage2(running_goal, stage1(
        running_goal, enumerate_candidates(running_goal, running_theory),
        running_theory)[0])
    cond3 = [d.candidate for d in dispositions if d.condition == 3]
    assert Candidate((), frozenset(), "itrev.induct") in cond3
    report(6, "each stage-2 condition fires on its fixture")


def test_criterion_7_determinism_and_parallel_equivalence(capsys,
                                                          corpus_dir):
    path = str(corpus_dir / "running.thy")
    outputs = []
    for _ in range(2):
        code = cli_main(["recommend", path, "--goal", "itrev_rev",
                         "--timeout-ms", "0"])
        captured = capsys.readouterr()
        assert code == 0
        outputs.append(captured.out.encode("utf-8"))
    assert outputs[0] == outputs[1]
    report(7, "recommend output byte-identical across runs")


def test_criterion_8_score_bounds(corpus_dir):
    suite = default_suite()
    checked = 0
    for path in sorted(corpus_dir.glob("*.thy")):
        thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
        for goal in thy.goals:
            result = screen(goal, thy)
            factory = lambda c: make_context(goal, c, thy)  # noqa: E731
            for sc in score_all(result.finalists, suite, factory):
                assert 0 <= sc.score <= 20
                assert sc.score == sum(sc.verdicts)
                checked += 1
    assert checked > 0
    report(8, f"score bounds hold for {checked} scored candidates")


def test_criterion_9_eval_harness_shape(capsys, corpus_dir):
    import json

    annotations = str(corpus_dir / "annotations.txt")
    code = cli_main(["eval", str(corpus_dir), "--annotations", annotations,
                     "--json"])
    full = capsys.readouterr().out
    assert code == 0
    code = cli_main(["eval", str(corpus_dir), "--annotations", annotations,
                     "--json", "--terms-only"])
    terms = capsys.readouterr().out
    assert code == 0

    full_rows = [json.loads(l) for l in full.splitlines()]
    for row in full_rows:
        if row["kind"] in ("theory", "sum"):
            assert row["top_1"] <= row["top_3"] <= row["top_5"] \
                <= row["top_10"] <= row["total"]
    full_rank = {r["goal"]: r["nth"] for r in full_rows
                 if r["kind"] == "goal"}
    terms_rank = {r["goal"]: r["nth"]
                  for r in map(json.loads, terms.splitlines())
                  if r["kind"] == "goal"}
    assert full_rank  # the corpus is annotated
    for goal, rank in full_rank.items():
        if rank is not None and terms_rank[goal] is not None:
            assert terms_rank[goal] <= rank

    # the human-readable layout carries both table shapes
    code = cli_main(["eval", str(corpus_dir), "--annotations", annotations])
    out = capsys.readouterr().out
    assert code == 0
    assert "nth" in out and "score" in out and "2nd-b" in out
    assert "top_1" in out and "sum" in out
    report(9, "eval tables keep both layouts and rank monotonicity")
