from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inductrank
import inductrank.tactic as tactic_module
from inductrank import cli
from inductrank.cli import main
from inductrank.parser import parse_theory, print_theory
from inductrank.pipeline import (
    CONDITION_NAMES, enumerate_candidates, stage1, stage2,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def running_path(corpus_dir):
    return str(corpus_dir / "running.thy")


class TestRecommend:
    def test_running_example_defaults(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev")
        assert code == 0
        assert "generated=40" in out
        assert "induct xs arbitrary: ys" in out
        assert "induct xs ys rule: itrev.induct" in out

    def test_unknown_goal(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "missing")
        assert code == 1
        assert "missing" in err
        assert "itrev_rev" in err  # names the available goals

    def test_cap_one(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev",
                                 "--max-candidates", "1")
        assert code == 2  # the single enumerated candidate has no arguments
        assert "generated=1" in err

    def test_no_survivors_exit_2(self, capsys, tmp_path):
        thy = tmp_path / "t.thy"
        thy.write_text('lemma t: "True"')
        code, out, err = run_cli(capsys, "recommend", str(thy),
                                 "--goal", "t")
        assert code == 2

    def test_json_records(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev", "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 8
        assert records[0]["rank"] == 1
        for r in records:
            assert set(r) == {"rank", "tactic_text", "score", "verdicts"}
            assert r["score"] == sum(r["verdicts"])

    def test_goal_expr(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal-expr", "itrev xs ys = rev xs @ ys")
        assert code == 0
        assert "generated=40" in out

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.thy"
        bad.write_text('lemma x: "0 = ]"')
        code, out, err = run_cli(capsys, "recommend", str(bad),
                                 "--goal", "x")
        assert code == 1
        assert "error" in err

    def test_byte_identical_runs(self, capsys, running_path):
        outputs = []
        for _ in range(2):
            code, out, err = run_cli(capsys, "recommend", running_path,
                                     "--goal", "itrev_rev",
                                     "--timeout-ms", "0")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("flag", ["--top", "--max-candidates"])
    def test_nonpositive_count_is_an_error(self, capsys, running_path, flag):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev", flag, "0")
        assert code == 1
        assert err.startswith("error:") and flag in err
        assert err.count("\n") == 1

    def test_cap_beyond_sys_maxsize_prints_as_the_default(self, capsys,
                                                          running_path):
        args = ["recommend", running_path, "--goal", "itrev_rev"]
        default = run_cli(capsys, *args)
        huge = run_cli(capsys, *args, "--max-candidates",
                       str(sys.maxsize + 1))
        assert huge == default
        assert default[0] == 0

    def test_negative_timeout_is_an_error(self, capsys, running_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev", "--timeout-ms", "-5")
        assert (code, out) == (1, "")
        assert err == "error: --timeout-ms must be at least 0\n"

    def test_missing_theory_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "recommend",
                                 str(tmp_path / "absent.thy"), "--goal", "x")
        assert code == 1
        assert err.startswith("error:") and "absent.thy" in err
        assert err.count("\n") == 1

    def test_missing_heuristics_file(self, capsys, running_path, tmp_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal", "itrev_rev", "--heuristics",
                                 str(tmp_path / "absent.heuristics"))
        assert code == 1
        assert err.startswith("error:") and "absent.heuristics" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("prop", [
        "Suc 0 = 5000",
        "(" * 1000 + "x" + ")" * 1000 + " = 0",
    ], ids=["numeral", "parentheses"])
    def test_deep_input_is_an_error(self, capsys, tmp_path, prop):
        thy = tmp_path / "deep.thy"
        thy.write_text(f'lemma deep: "{prop}"\n')
        code, out, err = run_cli(capsys, "recommend", str(thy),
                                 "--goal", "deep")
        assert code == 1
        assert err == "error: input nested too deeply\n"

    # each Suc takes one frame of the recursion limit; with Python 3.11
    # numerals up to 949 rank inside this test, 49 above its deepest row
    @pytest.mark.parametrize("expr", ["n = 500", "n = 900"])
    def test_deep_numeral_ranks(self, capsys, corpus_dir, expr):
        code, out, err = run_cli(capsys, "recommend",
                                 str(corpus_dir / "nats.thy"),
                                 "--goal-expr", expr)
        assert (code, err) == (0, "")
        assert "1. induct n" in out

    def test_huge_numeral_is_an_error(self, capsys, running_path, tmp_path):
        code, out, err = run_cli(capsys, "recommend", running_path,
                                 "--goal-expr", "n = 30000000")
        assert (code, out) == (1, "")
        assert err == ("error: <expr>:1:5: numeral 30000000 is larger than "
                       "10000\n")
        thy = tmp_path / "big.thy"
        thy.write_text('lemma a: "99999999999999999999 = x"\n')
        code, out, err = run_cli(capsys, "recommend", str(thy), "--goal", "a")
        assert (code, out) == (1, "")
        assert err == (f"error: {thy}:1:11: numeral 99999999999999999999 is "
                       "larger than 10000\n")


# README, "Errors in unread lemmas and definitions": `recommend` and
# `explain` parse only the lemma they read, and `eval` parses every lemma.
class TestUnreadLemmas:
    REQUESTS = [
        ("recommend", "--goal", "itrev_rev", "--timeout-ms", "0"),
        ("explain", "--goal", "itrev_rev", "--tactic",
         "induct xs arbitrary: ys"),
        ("recommend", "--goal-expr", "rev (rev xs) = xs", "--timeout-ms",
         "0"),
    ]
    REQUEST_IDS = ["recommend", "explain", "goal-expr"]
    ILL_TYPED = 'lemma bad: "rev xs = Suc 0"\n'
    ILL_TYPED_ERROR = "13:20: type mismatch: 1 has type nat, expected 'a list"

    @staticmethod
    def _running_with(corpus_dir, tmp_path, lemmas: str) -> Path:
        """running.thy, 12 lines long, followed by `lemmas`."""
        thy = tmp_path / "other.thy"
        thy.write_text((corpus_dir / "running.thy").read_text(
            encoding="utf-8") + lemmas)
        return thy

    @pytest.mark.parametrize("request_argv", REQUESTS, ids=REQUEST_IDS)
    def test_requests_rank_past_an_ill_typed_lemma(
            self, capsys, corpus_dir, tmp_path, request_argv):
        command, *flags = request_argv
        thy = self._running_with(corpus_dir, tmp_path, self.ILL_TYPED)
        code, out, err = run_cli(capsys, command, str(thy), *flags)
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(
            capsys, command, str(corpus_dir / "running.thy"), *flags)

    def test_eval_reports_the_ill_typed_lemma(self, capsys, corpus_dir,
                                              tmp_path):
        thy = self._running_with(corpus_dir, tmp_path, self.ILL_TYPED)
        code, out, err = run_cli(
            capsys, "eval", str(tmp_path),
            "--annotations", str(corpus_dir / "annotations.txt"))
        assert (code, out) == (1, "")
        assert err == f"error: {thy}:{self.ILL_TYPED_ERROR}\n"

    @pytest.mark.parametrize("lemmas, error", [
        ('lemma other: "rev xs = xs"\nlemma other: "xs = xs"\n',
         "14:7: duplicate name other"),
        ("lemma other: rev xs = xs\n",
         '13:14: found unquoted proposition (expected "<prop>")'),
        ('lemma other: "rev xs = xs\n', "13:14: unterminated quote"),
    ], ids=["duplicate-name", "unquoted", "unterminated"])
    @pytest.mark.parametrize("request_argv", REQUESTS, ids=REQUEST_IDS)
    def test_declaration_errors_in_unread_lemmas_fail(
            self, capsys, corpus_dir, tmp_path, request_argv, lemmas, error):
        command, *flags = request_argv
        thy = self._running_with(corpus_dir, tmp_path, lemmas)
        assert run_cli(capsys, command, str(thy), *flags) \
            == (1, "", f"error: {thy}:{error}\n")

    def test_unknown_goal_lists_the_goals(self, capsys, running_path):
        assert run_cli(capsys, "recommend", running_path, "--goal",
                       "missing") == (1, "", "error: unknown goal 'missing'; "
                                      "available goals: itrev_rev\n")

    def test_unknown_goal_reports_a_malformed_lemma_first(
            self, capsys, corpus_dir, tmp_path):
        thy = self._running_with(corpus_dir, tmp_path, self.ILL_TYPED)
        for command, *flags in (("recommend", "--goal", "missing"),
                                ("explain", "--goal", "missing", "--tactic",
                                 "induct xs")):
            assert run_cli(capsys, command, str(thy), *flags) \
                == (1, "", f"error: {thy}:{self.ILL_TYPED_ERROR}\n")


# The same README paragraph: `recommend` and `explain` parse the equations
# of only the definitions that their goal reaches, and `eval` parses every
# definition.
class TestUnreachedDefinitions:
    THEORY = (
        'primrec double :: "nat => nat" where\n'
        '  "double 0 = 0"\n'
        '| "double (Suc n) = Suc (Suc (double n))"\n'
        '\n'
        'fun half :: "nat => nat" where\n'
        '  "half 0 = []"\n'
        '\n'
        'lemma double_suc: "double (Suc n) = Suc (Suc (double n))"\n')

    def test_recommend_ranks_past_an_ill_typed_definition(self, capsys,
                                                          tmp_path):
        thy = tmp_path / "two.thy"
        thy.write_text(self.THEORY)
        fixed = tmp_path / "fixed.thy"
        fixed.write_text(self.THEORY.replace('"half 0 = []"',
                                             '"half 0 = 0"'))
        code, out, err = run_cli(capsys, "recommend", str(thy), "--goal",
                                 "double_suc")
        assert (code, err) == (0, "")
        assert (code, out, err) == run_cli(capsys, "recommend", str(fixed),
                                           "--goal", "double_suc")
        annotations = tmp_path / "annotations.txt"
        annotations.write_text("double_suc | induct n | rule:no | arb:no\n")
        fixed.unlink()
        assert run_cli(capsys, "eval", str(tmp_path), "--annotations",
                       str(annotations)) \
            == (1, "", f"error: {thy}:6:3: ill-typed equation: left and "
                       "right sides disagree\n")

    def test_goal_expr_names_a_constant_defined_after_every_lemma(
            self, capsys, monkeypatch, corpus_dir, tmp_path):
        thy = tmp_path / "running.thy"
        text = (corpus_dir / "running.thy").read_text(encoding="utf-8") \
            + ('fun tl2 :: "\'a list => \'a list" where\n'
               '  "tl2 [] = []"\n'
               '| "tl2 (x # xs) = xs"\n')
        thy.write_text(text)
        argv = ("recommend", str(thy), "--goal-expr",
                "tl2 (itrev xs ys) = tl2 (rev xs @ ys)", "--json")
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert "rule: tl2.induct" in out
        # the ranking of a parse of every definition
        monkeypatch.setattr(cli, "parse_theory",
                            lambda text, file, **request: parse_theory(
                                text, file))
        assert run_cli(capsys, *argv) == (code, out, err)


class TestExplain:
    def test_finalist_matrix(self, capsys, running_path):
        code, out, err = run_cli(
            capsys, "explain", running_path, "--goal", "itrev_rev",
            "--tactic", "induct xs ys rule: itrev.induct")
        assert code == 0
        assert "rule_constant_takes_induction_terms_in_order  T" in out
        assert "score: 20 / 20" in out
        assert "rank:" in out

    def test_vacuous_rule_row_for_structural_candidate(self, capsys,
                                                       running_path):
        code, out, err = run_cli(
            capsys, "explain", running_path, "--goal", "itrev_rev",
            "--tactic", "induct xs arbitrary: ys")
        assert code == 0
        assert "rule_constant_takes_induction_terms_in_order  T" in out

    def test_filtered_candidate_reports_condition(self, capsys,
                                                  running_path):
        code, out, err = run_cli(
            capsys, "explain", running_path, "--goal", "itrev_rev",
            "--tactic", "induct rule: itrev.induct")
        assert code == 0
        assert "condition 3" in out
        assert "schematic" in out

    def test_repeated_rule_is_an_error(self, capsys, running_path):
        assert run_cli(capsys, "explain", running_path, "--goal", "itrev_rev",
                       "--tactic", "induct xs rule: itrev.induct rule: "
                       "itrev.induct") \
            == (1, "", "error: rule: given more than once\n")

    def test_arbitrary_after_the_rule_is_an_error(self, capsys,
                                                  running_path):
        assert run_cli(capsys, "explain", running_path, "--goal", "itrev_rev",
                       "--tactic", "induct xs rule: itrev.induct "
                       "arbitrary: ys") \
            == (1, "", "error: unexpected token 'arbitrary:' after rule\n")

    def test_stage1_filtered(self, capsys, running_path):
        code, out, err = run_cli(
            capsys, "explain", running_path, "--goal", "itrev_rev",
            "--tactic", "induct xs arbitrary: xs")
        assert code == 0
        assert "stage 1" in out
        assert "ArbitraryOverlapsInductionTerm" in out


    def test_candidate_beyond_the_cap(self, capsys, tmp_path, g4_theory):
        path = tmp_path / "g4.thy"
        path.write_text(print_theory(g4_theory))
        code, out, err = run_cli(
            capsys, "explain", str(path), "--goal", "g4",
            "--tactic", "induct xs ys zs m n")
        assert code == 0
        assert out.splitlines()[-1] \
            == "not enumerated (beyond the 10,000-candidate cap)"

    @pytest.mark.parametrize("tactic, note", [
        ("induct xs arbitrary: zz", "filtered: stage 1 (UnknownVariable)"),
        ("induct xs rule: tl2.induct",
         "not enumerated (outside the enumerated space: tl2.induct is not "
         "the rule of a constant in the goal)"),
    ])
    def test_candidate_no_cap_enumerates(self, capsys, tmp_path, corpus_dir,
                                         tactic, note):
        # no cap can enumerate these
        path = tmp_path / "running.thy"
        path.write_text(
            (corpus_dir / "running.thy").read_text(encoding="utf-8")
            + 'fun tl2 :: "\'a list => \'a list" where\n'
              '  "tl2 [] = []"\n'
              '| "tl2 (x # xs) = xs"\n')
        code, out, err = run_cli(capsys, "explain", str(path),
                                 "--goal", "itrev_rev", "--tactic", tactic)
        assert code == 0
        assert out.splitlines()[-1] == note


class TestDispositionNotes:
    """`explain` and `eval` name a candidate's fate by screening it alone."""

    def test_notes_equal_the_stage_dispositions(self, corpus_dir,
                                                g4_theory):
        goals = [(thy, goal) for path in sorted(corpus_dir.glob("*.thy"))
                 for thy in [parse_theory(path.read_text(encoding="utf-8"),
                                          path.name)]
                 for goal in thy.goals]
        goals.append((g4_theory, g4_theory.goal_named("g4")))
        assert len(goals) == 16
        for thy, goal in goals:
            candidates = list(enumerate_candidates(goal, thy))
            survivors, dropped1 = stage1(goal, candidates, thy)
            finalists, dropped2 = stage2(goal, survivors)
            notes = {d.candidate: f"filtered: stage 1 ({d.error})"
                     for d in dropped1}
            notes.update(
                (d.candidate, f"filtered: condition {d.condition} "
                              f"({CONDITION_NAMES[d.condition]})")
                for d in dropped2)
            # every candidate that was not ranked was dropped by a stage
            assert len(notes) + len(finalists) == len(candidates)
            for candidate, note in notes.items():
                assert cli._disposition_of(candidate, goal, thy) == note, \
                    (goal.name, candidate.tactic_text())


class TestClock:
    @pytest.mark.parametrize("template", [
        ("eval", "{corpus}", "--annotations", "{corpus}/annotations.txt",
         "--json"),
        ("recommend", "{corpus}/running.thy", "--json", "--goal",
         "itrev_rev"),
    ], ids=["eval", "recommend"])
    def test_output_does_not_depend_on_the_clock(self, capsys, monkeypatch,
                                                 corpus_dir, template):
        argv = [arg.format(corpus=corpus_dir) for arg in template]
        unpatched = run_cli(capsys, *argv)
        assert unpatched[0] == 0
        # a second passes per clock reading, so any application that read
        # the clock would exceed any budget
        ticks = itertools.count()

        def clock() -> float:
            return float(next(ticks))

        monkeypatch.setattr(time, "monotonic", clock)
        monkeypatch.setattr(tactic_module, "monotonic", clock, raising=False)
        assert run_cli(capsys, *argv) == unpatched


class TestEval:
    def test_tables_on_bundled_corpus(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "eval", str(corpus_dir),
            "--annotations", str(corpus_dir / "annotations.txt"))
        assert code == 0
        assert "top_1" in out and "top_10" in out
        assert "sum" in out
        assert "itrev_rev" in out

    def test_json_rows_and_monotonicity(self, capsys, corpus_dir):
        code, out, err = run_cli(
            capsys, "eval", str(corpus_dir),
            "--annotations", str(corpus_dir / "annotations.txt"), "--json")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        goals = [r for r in records if r["kind"] == "goal"]
        assert len(goals) == 15
        for g in goals:
            assert g["2nd-b"] <= g["2nd-a"] <= g["1st"] <= g["total"]
        theories = [r for r in records if r["kind"] in ("theory", "sum")]
        for t in theories:
            assert t["top_1"] <= t["top_3"] <= t["top_5"] <= t["top_10"] \
                <= t["total"]
        sum_row = [r for r in records if r["kind"] == "sum"]
        assert len(sum_row) == 1 and sum_row[0]["total"] == 15

    def test_terms_only_rank_never_worse(self, capsys, corpus_dir):
        args = ["eval", str(corpus_dir),
                "--annotations", str(corpus_dir / "annotations.txt"),
                "--json"]
        _, full_out, _ = run_cli(capsys, *args)
        _, terms_out, _ = run_cli(capsys, *args, "--terms-only")
        full = {r["goal"]: r["nth"] for r in map(json.loads,
                                                 full_out.splitlines())
                if r["kind"] == "goal"}
        terms = {r["goal"]: r["nth"] for r in map(json.loads,
                                                  terms_out.splitlines())
                 if r["kind"] == "goal"}
        for goal, full_rank in full.items():
            if full_rank is not None and terms[goal] is not None:
                assert terms[goal] <= full_rank

    def test_screened_out_annotation_prints_dash(self, capsys, corpus_dir,
                                                 tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("itrev_rev | induct ys rule: itrev.induct "
                       "| rule:yes | arb:no\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 0
        row = next(line for line in out.splitlines() if "itrev_rev" in line)
        assert " - " in row or row.rstrip().endswith("-") or "-" in row
        assert "condition 3" in out

    def test_unranked_notes_match_explain(self, capsys, corpus_dir,
                                          tmp_path):
        # eval names an unranked expert's fate in explain's words: the
        # stage-2 condition with its name, and for a candidate that was
        # never enumerated, what applying it directly gives.
        ann = tmp_path / "ann.txt"
        ann.write_text(
            "snoc_append | induct rule: snoc.induct | rule:yes | arb:no\n"
            "len_append | induct zz | rule:no | arb:no\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 0
        assert [line.split("   [")[1] for line in out.splitlines()
                if "   [" in line] == [
            "filtered: condition 3 (schematic variable introduced)]",
            "filtered: stage 1 (UnknownVariable)]"]
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann), "--json")
        assert [r["disposition"] for r in map(json.loads, out.splitlines())
                if r["kind"] == "goal"] == [
            "filtered: condition 3 (schematic variable introduced)",
            "filtered: stage 1 (UnknownVariable)"]

    def test_unresolvable_annotation(self, capsys, corpus_dir, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("ghost_goal | induct xs | rule:no | arb:no\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 1
        assert "ghost_goal" in err

    @pytest.mark.parametrize("flags", [
        "rule:no | arb:y",
        "rule:no | arb",
        "arb:no | rule:no",
        "rule:maybe | arb:no",
    ])
    def test_malformed_annotation_flags(self, capsys, corpus_dir, tmp_path,
                                        flags):
        ann = tmp_path / "ann.txt"
        ann.write_text("len_append | induct xs | rule:no | arb:no\n"
                       f"itrev_rev | induct xs arbitrary: ys | {flags}\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 1
        assert out == ""
        assert err == (f"error: {ann}:2: expected "
                       "'goal | tactic | rule:yes/no | arb:yes/no'\n")

    def test_goal_annotated_twice(self, capsys, corpus_dir, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("itrev_rev | induct xs arbitrary: ys | rule:no | "
                       "arb:yes\n"
                       "len_append | induct xs | rule:no | arb:no\n"
                       "itrev_rev | induct xs | rule:no | arb:no\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert (code, out) == (1, "")
        assert err == (f"error: {ann}:3: goal itrev_rev is annotated more "
                       "than once\n")

    @pytest.mark.parametrize("tactic, flags, message", [
        ("induct xs arbitrary: ys", "rule:no | arb:no",
         "arb:no, but the tactic gives arbitrary variables"),
        ("induct xs", "rule:no | arb:yes",
         "arb:yes, but the tactic gives no arbitrary variables"),
        ("induct xs ys rule: itrev.induct", "rule:no | arb:no",
         "rule:no, but the tactic gives a rule"),
        ("induct xs arbitrary: ys", "rule:yes | arb:yes",
         "rule:yes, but the tactic gives no rule"),
    ])
    def test_annotation_flags_disagreeing_with_the_tactic(
            self, capsys, corpus_dir, tmp_path, tactic, flags, message):
        ann = tmp_path / "ann.txt"
        ann.write_text("len_append | induct xs | rule:no | arb:no\n"
                       f"itrev_rev | {tactic} | {flags}\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 1
        assert out == ""
        assert err == f"error: {ann}:2: {message}\n"

    def test_no_annotations(self, capsys, corpus_dir, tmp_path):
        (tmp_path / "running.thy").write_text(
            (corpus_dir / "running.thy").read_text())
        ann = tmp_path / "annotations.txt"
        ann.write_text("# only a comment\n\n")
        args = ["eval", str(tmp_path), "--annotations", str(ann)]
        assert run_cli(capsys, *args) == (0, (
            "theory  line  goal  total  1st  2nd-a  2nd-b  nth  score  "
            "rule  arb\n"
            "\n"
            "theory  total  top_1  top_3  top_5  top_10\n"
            "sum     0      0      0      0      0\n"), "")
        code, out, err = run_cli(capsys, *args, "--json")
        assert (code, err) == (0, "")
        assert [json.loads(line) for line in out.splitlines()] == [
            {"kind": "sum", "theory": "sum", "total": 0, "top_1": 0,
             "top_3": 0, "top_5": 0, "top_10": 0}]

    def test_eval_deterministic(self, capsys, corpus_dir):
        args = ["eval", str(corpus_dir),
                "--annotations", str(corpus_dir / "annotations.txt")]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def test_setup_does_not_load_dataclasses():
    # a fresh interpreter, as pytest itself imports dataclasses; the code
    # is the set-up that bench/run.py times
    src = str(Path(inductrank.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import inductrank; inductrank.default_suite()"
         "; import sys; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestClosedPipe:
    """A reader that closes the pipe early, as `eval | head -n 1` does,
    ends the run quietly with a nonzero exit code."""

    def test_in_process(self, capsys, monkeypatch, corpus_dir):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["eval", str(corpus_dir), "--annotations",
                     str(corpus_dir / "annotations.txt")])
        assert code != 0
        assert capsys.readouterr().err == ""

    def test_reader_closes_after_first_line(self, tmp_path,
                                            scaled_definitions):
        # about 110 KB of output, more than a pipe holds, so the run is
        # still writing when the reader goes away
        path = tmp_path / "g4.thy"
        path.write_text(scaled_definitions + 'lemma g4: "itadd (len (itrev '
                        'xs ys)) m = itadd (len (rev zs)) n"\n')
        src = str(Path(inductrank.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "inductrank.cli", "recommend", str(path),
             "--goal", "g4", "--top", "100000", "--timeout-ms", "0",
             "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) != 0
        assert json.loads(first)["rank"] == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err
