from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import inductrank
from inductrank.cli import main


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

    def test_stage1_filtered(self, capsys, running_path):
        code, out, err = run_cli(
            capsys, "explain", running_path, "--goal", "itrev_rev",
            "--tactic", "induct xs arbitrary: xs")
        assert code == 0
        assert "stage 1" in out
        assert "ArbitraryOverlapsInductionTerm" in out


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
            "snoc_append | induct zz | rule:no | arb:no\n")
        code, out, err = run_cli(capsys, "eval", str(corpus_dir),
                                 "--annotations", str(ann))
        assert code == 0
        assert [line.split("   [")[1] for line in out.splitlines()
                if "snoc_append" in line] == [
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

    def test_eval_deterministic(self, capsys, corpus_dir):
        args = ["eval", str(corpus_dir),
                "--annotations", str(corpus_dir / "annotations.txt")]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


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
