from __future__ import annotations

import pytest

from inductrank.parser import (
    ParseError, parse_goal_expr, parse_theory, print_theory,
)
from inductrank.terms import (
    FreeVar, check_term, goal_free_variables, list_of, SimpleType,
)

RUNNING = '''
primrec rev :: "'a list => 'a list" where
  "rev [] = []"
| "rev (x # xs) = rev xs @ [x]"

fun itrev :: "'a list => 'a list => 'a list" where
  "itrev [] ys = ys"
| "itrev (x # xs) ys = itrev xs (x # ys)"

lemma itrev_rev: "itrev xs ys = rev xs @ ys"
'''


class TestParseTheory:
    def test_running_example(self):
        thy = parse_theory(RUNNING, "running.thy")
        assert len(thy.fundefs) == 2
        assert len(thy.goals) == 1
        assert not thy.fundef("rev").has_induction_rule
        assert thy.fundef("itrev").has_induction_rule
        goal = thy.goals[0]
        assert goal.premises == ()
        assert [v.name for v in goal_free_variables(goal)] == ["xs", "ys"]
        assert str(goal_free_variables(goal)[0].type) == "'a list"
        check_term(goal.conclusion, thy)

    def test_empty_file(self):
        thy = parse_theory("", "empty.thy")
        assert thy.datatypes == () and thy.fundefs == () and thy.goals == ()

    def test_unknown_constant_in_equation(self):
        with pytest.raises(ParseError) as err:
            parse_theory('fun f :: "nat => nat" where "f x = g x"')
        assert "unknown constant g" in str(err.value)

    def test_declarations_see_only_earlier_ones(self):
        with pytest.raises(ParseError) as err:
            parse_theory('fun f :: "nat => nat" where "f x = g x"\n'
                         'fun g :: "nat => nat" where "g x = x"')
        assert "unknown constant g" in str(err.value)
        # in a lemma, a name declared only later is a free variable
        early = parse_theory('lemma l: "f B = B"\n'
                             "datatype t = B\n"
                             'fun f :: "t => t" where "f B = B"')
        assert early.goals[0].conclusion.arg == FreeVar("B", SimpleType("'a"))
        thy = parse_theory("datatype t = B | C t\n"
                           'fun f :: "t => t" where\n'
                           '  "f B = B"\n'
                           '| "f (C x) = f x"\n'
                           'lemma l: "f (C y) = f y"')
        assert thy.goals[0].conclusion.fun.arg.arg.fun \
            == thy.fundefs[0].equations[1].lhs.arg.fun

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_theory("datatype t = A | A")
        assert "duplicate" in str(err.value)
        with pytest.raises(ParseError):
            parse_theory('primrec Suc :: "nat => nat" where "Suc x = x"')

    def test_ill_typed_equation(self):
        with pytest.raises(ParseError) as err:
            parse_theory('fun f :: "nat => nat" where "f x = []"')
        assert "type" in str(err.value).lower()

    def test_non_constructor_pattern(self):
        with pytest.raises(ParseError) as err:
            parse_theory('primrec d :: "nat => nat" where "d 0 = 0"\n'
                         'fun f :: "nat => nat" where "f (d x) = x"')
        assert "pattern" in str(err.value)

    def test_duplicate_pattern_variable(self):
        with pytest.raises(ParseError) as err:
            parse_theory('fun f :: "nat => nat => nat" where "f x x = x"')
        assert "duplicate pattern variable" in str(err.value)

    def test_premises_split_from_implications(self):
        thy = parse_theory(
            'primrec add :: "nat => nat => nat" where\n'
            '  "add 0 n = n"\n'
            '| "add (Suc m) n = Suc (add m n)"\n'
            'lemma cancel: "add k m = add k n ==> m = n"')
        goal = thy.goals[0]
        assert len(goal.premises) == 1
        assert [v.name for v in goal_free_variables(goal)] == ["k", "m", "n"]

    def test_numerals_and_list_literals(self):
        thy = parse_theory('lemma two: "[2] = [Suc (Suc 0)]"')
        concl = thy.goals[0].conclusion
        assert concl.fun.arg == concl.arg  # both sides identical terms

    def test_nested_comments_and_crlf(self):
        src = '(* outer (* inner *) still comment *)\r\n' \
              'lemma t: "0 = 0"\r\n'
        thy = parse_theory(src)
        assert thy.goals[0].name == "t"

    def test_datatype_with_compound_args(self):
        thy = parse_theory(
            "datatype tree 'a = Leaf | Node ('a tree) 'a ('a tree)")
        d = thy.datatypes[0]
        assert [c.name for c in d.constructors] == ["Leaf", "Node"]
        node = d.constructors[1]
        assert node.arg_types[0] == SimpleType("tree", (SimpleType("'a"),))

    def test_unknown_type(self):
        with pytest.raises(ParseError) as err:
            parse_theory('fun f :: "foo => nat" where "f x = 0"')
        assert "unknown type foo" in str(err.value)


class TestParseGoalExpr:
    def test_running_conclusion(self, running_theory, running_goal):
        t = parse_goal_expr("itrev xs ys = rev xs @ ys", running_theory)
        assert t == running_goal.conclusion

    def test_bare_variable_is_a_free_variable(self, running_theory):
        # with no applied context the variable is typed by the goal
        # position itself (boolean)
        t = parse_goal_expr("xs", running_theory)
        assert isinstance(t, FreeVar) and t.name == "xs"

    def test_partial_application_rejected(self, running_theory):
        with pytest.raises(ParseError) as err:
            parse_goal_expr("itrev xs", running_theory)
        assert "goal must be propositional" in str(err.value)


class TestRoundTrip:
    def test_corpus_files_round_trip(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.thy")):
            src = path.read_text(encoding="utf-8")
            thy = parse_theory(src, path.name)
            assert parse_theory(print_theory(thy), path.name) == thy

    def test_printed_types_reparse(self):
        src = ('fun apply2 :: "(\'a => \'b) => \'a => \'b" where '
               '"apply2 f x = f x"')
        thy = parse_theory(src)
        assert parse_theory(print_theory(thy)) == thy


class TestSpans:
    @pytest.mark.parametrize("src", [
        "datatype",
        'lemma x: "0 = male(',
        'fun f :: "nat => nat"',
        "datatype t 'a = C 'b",
        'lemma q: "0 ="',
        "lemma long_one:\n\n  \"0 = [] \"",
    ])
    def test_errors_carry_in_bounds_spans(self, src):
        lines = src.split("\n")
        with pytest.raises(ParseError) as err:
            parse_theory(src, "bad.thy")
        span = err.value.span
        assert span.file == "bad.thy"
        assert 1 <= span.line <= len(lines) + 1
        assert span.column >= 1
        if span.line <= len(lines):
            assert span.column <= len(lines[span.line - 1]) + 2

    def test_message_nonempty(self):
        with pytest.raises(ParseError) as err:
            parse_theory("garbage here")
        assert err.value.message
