from __future__ import annotations

import gc
import importlib.util
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from _reference import (
    ref_declared_texts, ref_lemma_lines, ref_reached, ref_token_theory,
    reference_scan,
)
from inductrank import dsl, parser
from inductrank.parser import (
    MAX_NUMERAL, ParseError, _Unifier, parse_goal_expr, parse_theory,
    print_theory, scan,
)
from inductrank.terms import (
    App, FreeVar, Goal, check_term, format_goal, free_variables,
    goal_free_variables, list_of, SimpleType, Theory, Tree,
    subterms_with_paths, type_vars,
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
        # a requested lemma is parsed where it stands, so it too sees only
        # the declarations before it
        src = 'lemma l: "B = Suc 0"\ndatatype t = B\nlemma m: "B = Suc 0"'
        assert parse_theory(src, goals=("l",)).goals[0].conclusion.fun.arg \
            == FreeVar("B", SimpleType("nat"))
        with pytest.raises(ParseError) as err:
            parse_theory(src, goals=("m",))
        assert str(err.value) == \
            "<string>:3:13: type mismatch: 1 has type nat, expected t"

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


# -- generated theories ------------------------------------------------------
#
# Types are written as theory text with A for the one type variable 'a of a
# declaration: "nat", "A list", "nat => nat", "A t0".  Every type the
# generator uses has a leaf term (a numeral, [], a nullary constructor)
# except A and nat => nat, which need a variable or a declared constant.

ELEMS = ("nat", "A")


def _decl(ty: str) -> str:
    return ty.replace("A", "'a")


@st.composite
def theory_texts(draw):
    """Theory text with datatypes whose constructors take compound
    arguments, polymorphic fun and primrec definitions, and lemmas with
    premises, list literals and numerals."""
    chunks: list[str] = []
    datatypes: list[tuple[str, bool, list[tuple[str, list[str]]]]] = []
    funs: list[tuple[str, list[str], str]] = []
    names: dict[str, str] = {}

    def instances(dt_name, has_param):
        return [f"{e} {dt_name}" for e in ELEMS] if has_param else [dt_name]

    def constructors(ty):
        for dt_name, has_param, ctors in datatypes:
            for inst in instances(dt_name, has_param):
                if inst == ty:
                    elem = ty.split()[0]
                    return [(c, [a.replace("A", elem) for a in args])
                            for c, args in ctors]
        return []

    def calls(ty):
        """Declared functions that give a `ty`, each with the argument
        types it is applied to: all of them, or none for a function
        that is itself a `ty`."""
        out = []
        for f, args, result in funs:
            for e in ELEMS:
                inst = [a.replace("A", e) for a in args + [result]]
                if inst[-1] == ty:
                    out.append((f, inst[:-1]))
                if " => ".join(inst) == ty:
                    out.append((f, []))
        return out

    def available(ty, env, free):
        return free or ty not in ("A", "nat => nat") or ty in env.values() \
            or any(not args for _, args in calls(ty))

    def term(ty, env, free, depth):
        def sub(t):
            return "(" + term(t, env, free, depth - 1) + ")"
        options = [("var", v) for v, t in env.items() if t == ty]
        if free:
            prefix = names.setdefault(ty, f"v{len(names)}_")
            options += [("var", prefix + c) for c in "ab"]
        options += [("call", fa) for fa in calls(ty)
                    if not fa[1] or depth > 0
                    and all(available(a, env, free) for a in fa[1])]
        options += [("ctor", ca) for ca in constructors(ty)
                    if not ca[1] or depth > 0
                    and all(available(a, env, free) for a in ca[1])]
        if ty == "nat":
            options += [("num", None)] + [("suc", None)] * (depth > 0)
        if ty.endswith(" list"):
            options += [("nil", None)] + [(k, None) for k in (
                "literal", "cons", "append") if depth > 0
                and available(ty[:-5], env, free)]
        kind, arg = draw(st.sampled_from(options))
        elem = ty[:-5]
        if kind == "var":
            return arg
        if kind in ("call", "ctor"):
            return " ".join([arg[0]] + [sub(a) for a in arg[1]])
        if kind == "num":
            return str(draw(st.integers(0, 4)))
        if kind == "suc":
            return "Suc " + sub("nat")
        if kind == "nil":
            return "[]"
        if kind == "literal":
            n = draw(st.integers(1, 3))
            return "[" + ", ".join(term(elem, env, free, depth - 1)
                                   for _ in range(n)) + "]"
        if kind == "cons":
            return sub(elem) + " # " + sub(ty)
        return sub(ty) + " @ " + sub(ty)

    for k in range(draw(st.integers(0, 2))):
        dt_name, has_param = f"t{k}", draw(st.booleans())
        own = ("A " if has_param else "") + dt_name
        arg_types = ["nat", "nat list", "nat => nat", "nat list list", own]
        arg_types += [i for d, p, _ in datatypes for i in instances(d, p)
                      if "A" not in i or has_param]
        if has_param:
            arg_types += ["A", "A list"]
        ctors = [(f"C{k}_0", [])]
        for j in range(1, draw(st.integers(1, 3))):
            ctors.append((f"C{k}_{j}", draw(st.lists(
                st.sampled_from(arg_types), max_size=3))))
        datatypes.append((dt_name, has_param, ctors))
        head = f"datatype {dt_name}" + (" 'a" if has_param else "")
        chunks.append(head + " = " + " | ".join(
            " ".join([c] + [_decl(a) if " " not in a else f"({_decl(a)})"
                            for a in args])
            for c, args in ctors))

    dt_types = [i for d, p, _ in datatypes for i in instances(d, p)]
    for k in range(draw(st.integers(0, 3))):
        f = f"f{k}"
        args = draw(st.lists(st.sampled_from(
            ["nat", "A", "nat list", "A list", "nat => nat"] + dt_types),
            min_size=1, max_size=3))
        result = draw(st.sampled_from(["nat", "nat list", "A list"]))
        funs.append((f, args, result))
        first, rest = args[0], args[1:]
        if first == "nat":
            patterns = [("0", []), ("(Suc p0)", ["nat"])]
        elif first.endswith(" list"):
            patterns = [("[]", []), ("(p0 # p1)", [first[:-5], first])]
        elif constructors(first):
            patterns = [(c if not cargs else "(" + " ".join(
                [c] + [f"p{i}" for i in range(len(cargs))]) + ")", cargs)
                for c, cargs in constructors(first)]
        else:
            patterns = [("p0", [first])]
        equations = []
        for pattern, ptypes in patterns:
            env = {f"p{i}": t for i, t in enumerate(ptypes)}
            env.update({f"q{i}": t for i, t in enumerate(rest)})
            lhs = " ".join([f, pattern] + [f"q{i}" for i in range(len(rest))])
            equations.append(f'"{lhs} = {term(result, env, False, 2)}"')
        ftype = " => ".join(f"({_decl(a)})" if "=>" in a else _decl(a)
                            for a in args + [result])
        kw = draw(st.sampled_from(["fun", "primrec"]))
        chunks.append(f'{kw} {f} :: "{ftype}" where\n  '
                      + "\n| ".join(equations))

    eq_types = ["nat", "A", "nat list", "A list", "nat => nat"] + dt_types
    for k in range(draw(st.integers(1, 3))):
        props = []
        for _ in range(draw(st.integers(1, 3))):
            ty = draw(st.sampled_from(eq_types))
            props.append(f"({term(ty, {}, True, 3)}) = "
                         f"({term(ty, {}, True, 3)})")
        chunks.append(f'lemma l{k}: "' + " ==> ".join(props) + '"')
    return "\n".join(chunks) + "\n"


def _parts(thy):
    """The types of `thy`, their argument types among them, and the
    sub-terms of its equations and goals, each as often as it occurs."""
    types = [f.type for f in thy.fundefs]
    types += [a for d in thy.datatypes for c in d.constructors
              for a in c.arg_types]
    terms = [t for f in thy.fundefs for e in f.equations
             for t in (e.lhs, e.rhs)]
    terms += [t for g in thy.goals for t in (*g.premises, g.conclusion)]
    nodes = [s for t in terms for _, s in subterms_with_paths(t)]
    types += [s.type for s in nodes if not isinstance(s, App)]
    for ty in types:  # grows while it is walked
        types.extend(ty.args)
    return types, nodes


def _has_inference_variable(thy) -> bool:
    types, _ = _parts(thy)
    return any(v.startswith("'?") for ty in types for v in type_vars(ty))


def _objects_per_value(thy) -> dict:
    types, nodes = _parts(thy)
    ids: dict = {}
    for part in (*types, *nodes):
        ids.setdefault(part, set()).add(id(part))
    return ids


class TestInference:
    def test_known_arrows_make_no_fresh_variables(self, monkeypatch):
        thy = parse_theory('fun f :: "nat => nat" where\n'
                           '  "f 0 = 0"\n| "f (Suc n) = f n"')
        made = []
        fresh = _Unifier.fresh

        def counted(self):
            made.append(1)
            return fresh(self)

        monkeypatch.setattr(_Unifier, "fresh", counted)
        parse_goal_expr("f (f (f 0)) = 0", thy)
        assert made == []

    def test_leftover_variables_named_by_first_occurrence(self, corpus_dir):
        lists = parse_theory((corpus_dir / "lists.thy").read_text(
            encoding="utf-8"))
        # The `=` constant comes first, and its type is the result list,
        # so the element type of map's result is 'a.
        equation = lists.fundef("map").equations[1]
        goal = parse_goal_expr("map f (x # xs) = f x # map f xs", lists)
        for term in (equation.lhs, goal):
            assert {v.name: str(v.type) for v in free_variables(term)} == \
                {"f": "'b => 'a", "x": "'b", "xs": "'b list"}
        # y's type is the only one left over, though not the first made
        goal = parse_goal_expr("h 0 y = 0", lists)
        assert {v.name: str(v.type) for v in free_variables(goal)} == \
            {"h": "nat => 'a => nat", "y": "'a"}

    def test_corpus_theories_have_no_inference_variables(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.thy")):
            thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
            assert not _has_inference_variable(thy), path.name

    @settings(max_examples=30, deadline=None)
    @given(text=theory_texts())
    def test_generated_theories_have_no_inference_variables(self, text):
        thy = parse_theory(print_theory(parse_theory(text)))
        assert not _has_inference_variable(thy)


class TestSharing:
    """Equal types and terms of one parse are one object, and nothing a
    parse builds to find them outlives it."""

    def test_corpus_theories_share_equal_parts(self, corpus_dir):
        # a full parse, a parse of each lemma alone, and each statement
        # read over the full theory, whose constructor schemes are built
        # afresh on each lookup
        for path in sorted(corpus_dir.glob("*.thy")):
            text = path.read_text(encoding="utf-8")
            thy = parse_theory(text, path.name)
            parses = {"": thy}
            for g in thy.goals:
                parses[g.name] = parse_theory(text, path.name,
                                              goals=(g.name,))
                term = parse_goal_expr(format_goal(g), thy)
                parses[f"{g.name} expr"] = Theory(
                    goals=(Goal(g.name, (), term),))
            for name, parsed in parses.items():
                ids = _objects_per_value(parsed)
                assert all(len(v) == 1 for v in ids.values()), \
                    (path.name, name)

    @settings(max_examples=30, deadline=None)
    @given(text=theory_texts())
    def test_generated_theories_share_equal_parts(self, text):
        ids = _objects_per_value(parse_theory(text))
        assert all(len(v) == 1 for v in ids.values())

    def test_nothing_outlives_a_parse(self, corpus_dir):
        def tables():
            sizes = {}
            for name, value in vars(parser).items():
                if isinstance(value, type) and \
                        value.__module__ == parser.__name__:
                    sizes.update({(name, k): len(v)
                                  for k, v in vars(value).items()
                                  if isinstance(v, (dict, list, set))})
                elif isinstance(value, (dict, list, set)):
                    sizes[name] = len(value)
            return sizes

        text = (corpus_dir / "lists.thy").read_text(encoding="utf-8")
        before = tables()
        first, second = parse_theory(text), parse_theory(text)
        goal = parse_goal_expr("rev (rev xs) = xs", first)
        one = parse_theory(text, goals=(first.goals[0].name,))
        assert first == second and one.goals == first.goals[:1]
        assert goal == parse_goal_expr("rev (rev xs) = xs", second)
        apps = [{id(s) for s in _parts(thy)[1] if isinstance(s, App)}
                for thy in (first, second)]
        assert apps[0] and not apps[0] & apps[1]
        assert tables() == before
        # freed as soon as it is dropped: no reference cycle holds a parse
        gc.disable()
        try:
            thy = parse_theory(text)
            one = parse_theory(text, goals=(thy.goals[0].name,))
            nodes = [weakref.ref(t) for t in (
                thy.goals[0].conclusion, parse_goal_expr("x = y", thy),
                one.goals[0].conclusion)]
            del thy, one
            assert [node() for node in nodes] == [None, None, None]
            # and a parse leaves no cyclic garbage behind
            gc.collect()
            for path in sorted(corpus_dir.glob("*.thy")):
                text = path.read_text(encoding="utf-8")
                for goal in parse_theory(text, path.name).goals:
                    parse_theory(text, path.name, goals=(goal.name,))
                assert gc.collect() == 0, path.name
        finally:
            gc.enable()


class TestWrittenOutConstructors:
    """`SimpleType`, the leaves and `Goal` write `Tree.__init__` out; each
    tree they build must hash and compare as the generic constructor's
    tree of the same fields, or dict and set lookups would disagree with
    `==`."""

    @settings(max_examples=40, deadline=None)
    @given(text=theory_texts())
    def test_parsed_trees_match_the_generic_constructor(self, text):
        thy = parse_theory(text)
        types, nodes = _parts(thy)
        leaves = [n for n in nodes if not isinstance(n, App)]
        assert types and leaves and thy.goals
        for tree in (*types, *leaves, *thy.goals):
            generic = object.__new__(type(tree))
            Tree.__init__(generic, *[getattr(tree, f) for f in tree._fields])
            assert hash(generic) == hash(tree)
            assert generic == tree and tree == generic


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

    @settings(max_examples=60, deadline=None)
    @given(text=theory_texts())
    def test_generated_theories_round_trip(self, text):
        thy = parse_theory(text)
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

    # Whole messages with exact positions, so that a change to the scanner
    # or the cursor cannot move them unnoticed.
    @pytest.mark.parametrize("src, error", [
        ('lemma a: "0 = ]"',
         "bad.thy:1:15: found ']' (expected term)"),
        ('lemma a: "[x] =\n  0 # x"',
         "bad.thy:1:15: type mismatch: 0 # x has type nat list, expected "
         "nat list list"),
        ('lemma a: "xs =\n  ys @ ]"',
         "bad.thy:2:8: found ']' (expected term)"),
        ('fun f :: "nat => nat" where\n  "f 0 = 0"\n| "f (Suc n) =\n'
         '     n n"',
         "bad.thy:4:8: cannot apply n (type nat) to n"),
        ('(* a (* b *) c\n *) lemma a: "x = )"',
         "bad.thy:2:19: found ')' (expected term)"),
        ("(* a (* b *) c *)  garbage",
         "bad.thy:1:20: found 'garbage' (expected datatype or fun or "
         "primrec or lemma)"),
        ('lemma a:\r\n  "x =\r\n  ]"',
         "bad.thy:3:3: found ']' (expected term)"),
        ('lemma a: "x" \r\n\r\n  ]',
         "bad.thy:3:3: found ']' (expected datatype or fun or primrec or "
         "lemma)"),
        ("datatype t = C (nat => foo)",
         "bad.thy:1:24: unknown type foo"),
        ("datatype t = C (nat =>)",
         "bad.thy:1:23: unexpected end of type (expected type)"),
        ("datatype t = C (nat\n  =>\n )",
         "bad.thy:3:2: unexpected end of type (expected type)"),
        ("datatype t = C nat (nat list, nat)",
         "bad.thy:1:29: trailing tokens in type"),
        # a parenthesised constructor argument is read from the tokens its
        # datatype holds, with the positions a scan of its text gives
        ("datatype t = C (nat",
         "bad.thy:1:16: unterminated type"),
        ("datatype t 'a = C ('b list)",
         "bad.thy:1:19: type variable 'b is not a parameter"),
        ("datatype t = C ((nat list) => foo)",
         "bad.thy:1:31: unknown type foo"),
        ('fun f :: "nat => nat" where "f x"',
         "bad.thy:1:33: unexpected end of input (expected '=')"),
        ('lemma a: "x = y',
         "bad.thy:1:10: unterminated quote"),
        ('lemma a: "x"\n  (* a (* b *) c',
         "bad.thy:2:3: unterminated comment"),
        ('lemma a: "x"\ndatatype',
         "bad.thy:2:9: unexpected end of input (expected datatype name)"),
        # left-over inference variables are named as in a parsed term
        ('lemma a: "x # x = y"',
         "bad.thy:1:13: type mismatch: x has type 'a, expected 'a list"),
        ('fun f :: "nat => nat" where "f 0 = 0"\nlemma a: "f xs = []"',
         "bad.thy:2:16: type mismatch: [] has type 'a list, expected nat"),
        ('lemma a: "g x = g"',
         "bad.thy:1:15: type mismatch: g has type 'a => 'b, expected 'b"),
        ('lemma a: "g g"',
         "bad.thy:1:13: cannot apply g (type 'a) to g"),
        # declaration checks on a parsed equation or goal
        ('fun f :: "nat => nat" where\n  "g 0 = 0"',
         "bad.thy:2:3: equation must define f"),
        ('fun f :: "nat => nat" where\n  "f (f 0) = 0"',
         "bad.thy:2:3: patterns must be constructor patterns or variables"),
        ('fun f :: "nat => nat => nat" where\n  "f x x = 0"',
         "bad.thy:2:3: duplicate pattern variable x"),
        ('fun f :: "nat => nat" where\n  "f 0 = []"',
         "bad.thy:2:3: ill-typed equation: left and right sides disagree"),
        ('fun f :: "nat => nat => nat" where\n  "f 0 m = m"\n'
         '| "f (Suc n) m = f ?y m"',
         "bad.thy:3:20: schematic variable ?y on the right-hand side"),
        ('lemma a: "Suc 0"',
         "bad.thy:1:11: goal must be propositional"),
        # declarations that the declaration pattern stops at, or reads into
        # an error: a token left out, a keyword in a word, a comment inside
        # a datatype, a quote that holds an opening comment, an
        # unterminated nested comment
        ('fun f "nat => nat" where "f x = x"',
         "bad.thy:1:7: found 'nat => nat' (expected '::')"),
        ('lemma a "x = x"\nfun f :: "nat" where "f = 0"',
         "bad.thy:1:9: found 'x = x' (expected ':')"),
        ('fun f :: "nat => nat" where "f 0 = 0" |\nlemma a: "f x = x"',
         'bad.thy:2:1: found unquoted equation (expected "<equation>")'),
        ("datatypes t = C",
         "bad.thy:1:1: found 'datatypes' (expected datatype or fun or "
         "primrec or lemma)"),
        ('where x: "0 = 0"',
         "bad.thy:1:1: found 'where' (expected datatype or fun or "
         "primrec or lemma)"),
        ('datatype t = C\'fun D\nfun f :: "t => t" where "f x = x"',
         "bad.thy:1:20: unknown type D"),
        ('datatype t = C 3fun f :: "t" where "f = C"',
         "bad.thy:1:16: found '3' (expected datatype or fun or primrec or "
         "lemma)"),
        ("datatype t = A (* fun *) | B C",
         "bad.thy:1:30: unknown type C"),
        ('datatype t = A (* lemma a: "x" *) B',
         "bad.thy:1:35: unknown type B"),
        ('datatype t = C "x"',
         "bad.thy:1:16: found 'x' (expected datatype or fun or primrec or "
         "lemma)"),
        ('lemma a: "(*"\nfun f :: "nat" where "f = 0"',
         "bad.thy:1:11: unterminated comment"),
        ('lemma a: "x = x" (* a (* b *)\nfun f :: "nat" where "f = 0"',
         "bad.thy:1:18: unterminated comment"),
        # a datatype's span ends where its datatype does: a schematic
        # variable is one token, and a parenthesised type ends at a
        # keyword or a quote
        ("datatype t = C ?fun | D",
         "bad.thy:1:16: found '?fun' (expected datatype or fun or primrec "
         "or lemma)"),
        ("datatype t = C (nat ?fun)",
         "bad.thy:1:21: trailing tokens in type"),
        ("datatype t = C (nat fun)",
         "bad.thy:1:16: unterminated type"),
        ('datatype t = C (nat "x")',
         "bad.thy:1:16: unterminated type"),
        # a keyword is no name
        ('lemma lemma: "0 = 0"',
         "bad.thy:1:7: found 'lemma' (expected lemma name)"),
        ('fun lemma :: "nat => nat" where "lemma 0 = 0"',
         "bad.thy:1:5: found 'lemma' (expected function name)"),
        ("datatype fun = C",
         "bad.thy:1:10: found 'fun' (expected datatype name)"),
        ('datatype t =\nlemma a: "x = x"',
         "bad.thy:2:1: found 'lemma' (expected constructor name)"),
        ('datatype t = C | fun\nfun f :: "t" where "f = fun"',
         "bad.thy:1:18: found 'fun' (expected constructor name)"),
    ])
    def test_exact_error_positions(self, src, error):
        with pytest.raises(ParseError) as err:
            parse_theory(src, "bad.thy")
        assert str(err.value) == error

    @pytest.mark.parametrize("src, error", [
        ('lemma a: "x $ y"', "bad.thy:1:13: unexpected character '$'"),
        ('lemma a:\n  "x =\n   y $"', "bad.thy:3:6: unexpected character '$'"),
        ('lemma a: "x (* y"', "bad.thy:1:13: unterminated comment"),
    ])
    def test_scan_errors_inside_quotes_are_absolute(self, src, error):
        with pytest.raises(ParseError) as err:
            parse_theory(src, "bad.thy")
        assert str(err.value) == error

    def test_message_nonempty(self):
        with pytest.raises(ParseError) as err:
            parse_theory("garbage here")
        assert err.value.message


def _sources(test) -> list[str]:
    """The theory texts of the `TestSpans` table that parametrizes
    `test`."""
    (mark,) = [m for m in test.pytestmark if m.name == "parametrize"]
    return [row if isinstance(row, str) else row[0] for row in mark.args[1]]


def _assert_requests_agree(text: str) -> None:
    """Parsing one lemma of `text`, or none, with or without a definition
    named in `texts`, gives the full parse's datatypes, the definitions
    `ref_reached` says the request reaches, and only that lemma; its
    `unread` names every other definition."""
    full = parse_theory(text, "t.thy")
    assert full.unread == frozenset()

    def expected(goals, texts=()) -> Theory:
        reach = ref_reached(text, goals, texts)
        return Theory(full.datatypes,
                      tuple(f for f in full.fundefs if f.name in reach),
                      tuple(map(full.goal_named, goals)),
                      frozenset(f.name for f in full.fundefs) - reach)

    def agrees(thy: Theory, goals, texts=()) -> bool:
        want = expected(goals, texts)
        return thy == want and thy.unread == want.unread

    assert agrees(parse_theory(text, "t.thy", goals=()), ())
    for goal in full.goals:
        thy = parse_theory(text, "t.thy", goals=(goal.name,))
        assert agrees(thy, (goal.name,))
        assert thy.goals[0].line == goal.line
    for f in full.fundefs:
        assert agrees(parse_theory(text, "t.thy", goals=(),
                                   texts=(f.name,)), (), (f.name,))


def _owner(src: str, span) -> tuple[str, str] | None:
    """The definition (``"fun"``) or lemma whose equation or statement
    quotes hold `span`, by `ref_declared_texts`; None outside them."""
    lines = src.replace("\r\n", "\n").split("\n")
    offset = sum(len(line) + 1 for line in lines[:span.line - 1]) \
        + span.column - 1
    return next(((kind, name)
                 for start, end, kind, name in ref_declared_texts(src)
                 if start <= offset < end), None)


class TestRequestedGoals:
    def test_corpus_files(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.thy")):
            _assert_requests_agree(path.read_text(encoding="utf-8"))

    @settings(max_examples=60, deadline=None)
    @given(text=theory_texts())
    def test_generated_theories(self, text):
        _assert_requests_agree(text)

    @pytest.mark.parametrize("src", [
        *_sources(TestSpans.test_errors_carry_in_bounds_spans),
        *_sources(TestSpans.test_exact_error_positions),
        *_sources(TestSpans.test_scan_errors_inside_quotes_are_absolute),
    ])
    def test_errors_are_those_of_the_full_parse(self, src):
        """An error outside every equation's and lemma's quotes is raised
        whatever is requested; one inside them, with the full parse's
        text, exactly when that definition is reached or that lemma is
        requested."""
        with pytest.raises(ParseError) as full:
            parse_theory(src, "bad.thy")
        owner = _owner(src, full.value.span)
        lemmas = re.findall(r"lemma\s+(\w+)", src)
        definitions = re.findall(r"(?:fun|primrec)\s+(\w+)", src)
        assert len(lemmas) <= 1
        requests = [((), ()), *[((name,), ()) for name in lemmas],
                    *[((), (name,)) for name in definitions]]
        for goals, texts in requests:
            raised = owner is None or owner[1] in (
                goals if owner[0] == "lemma"
                else ref_reached(src, goals, texts))
            if not raised:
                parse_theory(src, "bad.thy", goals=goals, texts=texts)
                continue
            with pytest.raises(ParseError) as err:
                parse_theory(src, "bad.thy", goals=goals, texts=texts)
            assert str(err.value) == str(full.value)
        # every error inside quotes is raised by some request
        assert owner is None or owner[1] in lemmas + definitions

    def test_running_example_reaches_its_two_definitions(self):
        def names(**request):
            return [f.name for f in parse_theory(RUNNING, **request).fundefs]
        assert names(goals=("itrev_rev",)) == ["rev", "itrev"]
        assert names(goals=()) == []
        assert names(goals=(), texts=("itrev",)) == ["itrev"]
        assert names(goals=(), texts=("rev xs",)) == ["rev"]
        assert names(goals=None) == ["rev", "itrev"]

    def test_goal_expr_refuses_a_definition_left_out(self):
        # read as a free variable, the name of a definition the theory
        # left out would make a different goal without a word
        src = RUNNING + ('fun tl2 :: "\'a list => \'a list" where\n'
                         '  "tl2 [] = []"\n| "tl2 (x # xs) = xs"\n')
        thy = parse_theory(src, goals=())
        assert thy == Theory() and thy.unread == {"rev", "itrev", "tl2"}
        with pytest.raises(ParseError) as err:
            parse_goal_expr("xs =\n  tl2 xs", thy)
        assert str(err.value) == (
            "<expr>:2:3: definition tl2 was left out of the theory; pass "
            "this text in parse_theory's texts")
        read = parse_theory(src, goals=(), texts=("tl2 xs = xs",))
        assert read.unread == {"rev", "itrev"}
        assert parse_goal_expr("tl2 xs = xs", read) \
            == parse_goal_expr("tl2 xs = xs", parse_theory(src))

    def test_reach_ends_at_the_first_malformed_declaration(self):
        # in a file with two errors, a lemma after the first malformed
        # declaration reaches nothing, while the token reader finds reach
        # over every declaration
        src = ('fun f :: "nat => nat" where "f 0 = ]"\ngarbage\n'
               'lemma a: "f x = x"')
        in_f = "bad.thy:1:36: found ']' (expected term)"
        for read, goals, error in [
                (parse_theory, None, in_f),
                (parse_theory, ("a",), "bad.thy:2:1: found 'garbage' "
                 "(expected datatype or fun or primrec or lemma)"),
                (ref_token_theory, ("a",), in_f)]:
            with pytest.raises(ParseError) as err:
                read(src, "bad.thy", goals)
            assert str(err.value) == error

    def test_forward_reference_in_a_reached_definition(self):
        # a reached definition is parsed where it stands
        src = ('fun f :: "nat => nat" where "f n = g n"\n'
               'fun g :: "nat => nat" where "g n = n"\n'
               'lemma a: "f n = n"\n')
        error = "bad.thy:1:36: unknown constant g"
        for request in ({}, {"goals": ("a",)},
                        {"goals": (), "texts": ("f",)}):
            with pytest.raises(ParseError) as err:
                parse_theory(src, "bad.thy", **request)
            assert str(err.value) == error
        assert [f.name for f in parse_theory(
            src, "bad.thy", goals=(), texts=("g",)).fundefs] == ["g"]


def _assert_goal_lines(text: str, stride: int = 1) -> None:
    """Every lemma's `Goal.line` is the line of its ``lemma`` keyword, by
    `ref_lemma_lines`: in the full parse, in a parse of every other lemma
    and in the one-lemma parse of every `stride`-th lemma and the last."""
    want = ref_lemma_lines(text)
    assert {g.name: g.line for g in parse_theory(text).goals} == want
    for name in {*list(want)[::stride], *list(want)[-1:]}:
        assert [g.line for g in parse_theory(text, goals=(name,)).goals] \
            == [want[name]]
    every_other = list(want)[::2]
    assert [g.line for g in parse_theory(text, goals=every_other).goals] \
        == [want[name] for name in every_other]


# what is put between declarations: multi-line nested comments among them
_BETWEEN = ("", "(* one line *)", "(* a\n  (* nested\n\n  *) b *)",
            "(*\n(* (* x *) *)\n*)\n\n", "\n\n\n")
_DECLARATION = re.compile(r"\n(?=datatype |fun |primrec |lemma )")


@st.composite
def commented_theory_texts(draw):
    """A `theory_texts` text with a drawn piece of `_BETWEEN` after each
    declaration, and with CRLF line ends half the time."""
    text = "".join(part + "\n" + draw(st.sampled_from(_BETWEEN)) + "\n"
                   for part in _DECLARATION.split(draw(theory_texts())))
    return text.replace("\n", "\r\n") if draw(st.booleans()) else text


def _workload_theory(workload: str, seed: int) -> str:
    """The theory text of a benchmark workload, ``"scaled_recommend"`` or
    ``"large_theory_recommend"``, from `bench/workloads.py`."""
    path = Path(__file__).parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return getattr(module, workload)(seed).theory_text


class TestGoalLines:
    def test_corpus_files(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.thy")):
            _assert_goal_lines(path.read_text(encoding="utf-8"))

    @settings(max_examples=60, deadline=None)
    @given(text=commented_theory_texts())
    def test_generated_theories_with_comments_and_crlf(self, text):
        _assert_goal_lines(text)

    def test_large_theory(self):
        # one-lemma parses of 25 of its 408 lemmas, for time
        _assert_goal_lines(_workload_theory("large_theory_recommend", 1),
                           stride=17)


def _read_to_its_end(text: str) -> bool:
    """Whether the `_DECLARATION` matches read `text`, as `parse_theory`
    reads it, to its end."""
    source = parser._blanked(text.replace("\r\n", "\n"))
    return parser._declarations(source)[1] == len(source)


def _outcome(read, text: str, goals) -> tuple | str:
    """What `read` makes of `text` with `goals`: the theory's `repr`,
    which holds every `Goal.line`, with its `unread`; or the error text."""
    try:
        thy = read(text, "t.thy", goals)
    except ParseError as err:
        return str(err)
    return repr(thy), thy.unread


def _assert_readers_agree(text: str) -> None:
    """`parse_theory` gives what the token reader, `ref_token_theory`,
    gives, in full, with no lemma and with each lemma the text names
    alone."""
    names = re.findall(r"lemma\s+([a-zA-Z_][a-zA-Z0-9_']*)", text)
    for goals in (None, (), *((name,) for name in names)):
        assert _outcome(parse_theory, text, goals) \
            == _outcome(ref_token_theory, text, goals), goals


_KEYWORD_TEXTS = ("datatype", "fun", "primrec", "lemma", "where")
# a token of the top level, or of a quoted text
_TOKEN_TEXT = re.compile(r'"[^"]*"|\(\*|\*\)|[a-zA-Z0-9_\'?]+|==>|=>|::|\S')
# what a comment inside a datatype holds
_COMMENTED = ("fun", 'lemma x: "y"', 'fun g :: "nat" where "g = 0"',
              "(* lemma *)")


@st.composite
def mutated_theory_texts(draw):
    """A `theory_texts` or `commented_theory_texts` text with one change:
    a token deleted, a keyword spliced into an identifier, a comment that
    holds a keyword put inside a datatype, or an opening comment put
    inside a quoted text."""
    text = draw(st.one_of(theory_texts(), commented_theory_texts()))
    change = draw(st.sampled_from(("delete", "splice", "comment", "quote")))
    if change == "delete":
        tok = draw(st.sampled_from(list(_TOKEN_TEXT.finditer(text))))
        return text[:tok.start()] + text[tok.end():]
    if change == "splice":
        word = draw(st.sampled_from(list(re.finditer(
            r"[a-zA-Z_][a-zA-Z0-9_']*", text))))
        at = draw(st.integers(word.start(), word.end()))
        piece = draw(st.sampled_from(("", "'", "?", "3", " "))) \
            + draw(st.sampled_from(_KEYWORD_TEXTS))
        return text[:at] + piece + text[at:]
    if change == "comment":
        # a space of a datatype's line, or of any line if there is none
        lines = re.findall(r"datatype[^\n]*", text) or [text]
        start = text.index(draw(st.sampled_from(lines)))
        spaces = [start + i for i, c in enumerate(text[start:])
                  if c == " " and "\n" not in text[start:start + i]]
        at = draw(st.sampled_from(spaces or [start]))
        comment = f" (* {draw(st.sampled_from(_COMMENTED))} *)"
        return text[:at] + comment + text[at:]
    quote = draw(st.sampled_from(list(re.finditer(r'"[^"]*"', text))))
    at = draw(st.integers(quote.start() + 1, quote.end() - 1))
    return text[:at] + "(*" + text[at:]


class TestDeclarationPattern:
    """The top level read one declaration per match of `_DECLARATION`,
    against the token reader."""

    def test_reads_the_corpus_and_the_benchmark_theories(self, corpus_dir):
        # a later edit to the pattern must not leave these to the cursor
        # without a word
        texts = [path.read_text(encoding="utf-8")
                 for path in sorted(corpus_dir.glob("*.thy"))]
        texts += [_workload_theory(w, 1) for w in
                  ("scaled_recommend", "large_theory_recommend")]
        for text in texts:
            assert _read_to_its_end(text)
            full = parse_theory(text)
            for goal in (full.goals[0], full.goals[-1]):
                parse_theory(text, goals=(goal.name,))

    @pytest.mark.parametrize("text, read", [
        # a word that holds a keyword is no keyword
        ('datatype funny = lemmas | C\'fun | D funny\n'
         'lemma a: "D lemmas = x"\n', True),
        ('datatypes t = C\nlemma a: "x = x"\n', False),
        ('lemma a: "x = x"\nfunny f :: "nat" where "f = 0"\n', False),
        # comments between declarations, or inside one
        ('(* a *) lemma a: "x = x" (* fun *)\n(**)', True),
        ('(* a (* b *) *)\nlemma a: "x = x"\n', True),
        ('(* a (* b *)\nlemma a: "x = x"\n', False),
        ('datatype t = C (* fun *) | D\n', True),
        ('fun f :: "nat" (* c *) where "f = 0"\n', True),
        # a quote inside a datatype
        ('datatype t = C "x"\n', False),
        # a datatype span that its datatype does not read to its end
        ('datatype t = C 3 fun f :: "t" where "f = C"\n', True),
        ('datatype t = C where\nlemma a: "C = x"\n', True),
    ])
    def test_which_texts_the_pattern_reads(self, text, read):
        assert _read_to_its_end(text) == read
        _assert_readers_agree(text)

    @settings(max_examples=60, deadline=None)
    @given(text=commented_theory_texts())
    def test_reads_commented_theories_to_their_end(self, text):
        assert _read_to_its_end(text)

    def test_a_statement_too_deep_is_the_token_readers_error(self):
        # read from the matches, the statement overflows the stack before
        # the datatype is scanned; the token reader scans the file first,
        # and so does the parse on its way out
        text = ('lemma a: "' + "(" * 2000 + "x" + ")" * 2000 + ' = y"\n'
                "datatype t = A $")
        assert _read_to_its_end(text)
        with pytest.raises(ParseError) as err:
            parse_theory(text, "bad.thy", goals=("a",))
        assert str(err.value) == "bad.thy:2:16: unexpected character '$'"

    def test_corpus_files_agree(self, corpus_dir):
        for path in sorted(corpus_dir.glob("*.thy")):
            _assert_readers_agree(path.read_text(encoding="utf-8"))

    @settings(max_examples=100, deadline=None)
    @given(text=st.one_of(theory_texts(), commented_theory_texts()))
    def test_generated_theories_agree(self, text):
        _assert_readers_agree(text)

    @settings(max_examples=300, deadline=None)
    @given(text=mutated_theory_texts())
    # a keyword that ends a word, or sits in a comment inside a datatype
    @example(text='datatype t = C\'fun | D\nlemma a: "x = x"\n')
    @example(text='datatype t = C 3fun f :: "t" where "f = C"\n')
    @example(text='datatype t = C ?fun | D\nlemma a: "x = x"\n')
    @example(text='datatype t = C (nat ?fun) | D\nlemma a: "x = x"\n')
    @example(text='datatype t = C (* fun *) | D\nlemma a: "D = x"\n')
    @example(text='datatype t = C | fun\nfun f :: "t" where "f = fun"\n')
    # a parenthesised type that a keyword or a quote ends
    @example(text='datatype t = C (nat\nfun f :: "nat" where "f = 0")\n')
    @example(text='datatype t = C (nat "x")\nlemma a: "x = x"\n')
    # a quote that holds an opening comment, requested or not
    @example(text='lemma a: "(* x"\nlemma b: "x = x"\n')
    # long runs the pattern reads before it fails
    @example(text='lemma a: "x"' + " " * 5000 + "junk")
    @example(text="datatype t = " + "A " * 5000 + '"')
    @example(text="(* " + "a *( " * 5000 + " (* *) *)")
    def test_mutated_theories_agree(self, text):
        _assert_readers_agree(text)


# Pieces of scanner input: every token kind of the theory and the heuristic
# lexers, every symbol of each, quotes, nested and unterminated comments,
# kinds of whitespace and newline, the heuristic language's Unicode aliases
# and characters that neither lexer accepts.
SCAN_PIECES = (
    "x", "xs", "Suc", "_a'", "'a", "'b1", "?x", "?_y'", "0", "12", "007",
    "\u0663", "==>", "=>", "::", "=", "#", "@", "(", ")", "[", "]", ",",
    "|", ":", "-->", "->", ".", "&", "!", "-", ">", '"', '"x y"',
    '"a\nb"', "(*", "*)", "(* c *)", "(* a (* b *) c *)", "(* open", " ",
    "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x85", "\u2028",
    "\u3000", "\u2203", "\u2200", "\u2227", "\u2228", "\u00ac",
    "\u2192", "\u27f6", "\u2208", "$", "\u00e9", "\u03bb", "\x00",
    "~", "{",
)


_SCAN_TEXTS = st.lists(st.one_of(st.sampled_from(SCAN_PIECES),
                                 st.characters()), max_size=24)


class TestScan:
    @settings(max_examples=400, deadline=None)
    @given(pieces=_SCAN_TEXTS, prefix=_SCAN_TEXTS, suffix=_SCAN_TEXTS)
    # a token, a quote and a comment that would run on past the window
    @example(pieces=["xs"], prefix=['"'], suffix=["ys", '"'])
    @example(pieces=["x", " ", '"'], prefix=["\n"], suffix=['y"'])
    @example(pieces=["(* open"], prefix=["x"], suffix=[" *)"])
    def test_agrees_with_one_match_per_token(self, pieces, prefix, suffix):
        # the window between a drawn prefix and suffix, as a quoted text
        # is scanned in place
        before, text = "".join(prefix), "".join(pieces)
        source = before + text + "".join(suffix)
        start, end = len(before), len(before) + len(text)
        for token_re in (parser._TOKEN_RE, dsl._TOKEN_RE):
            outcomes = []
            for scanner in (scan, reference_scan):
                try:
                    outcomes.append(
                        scanner(source, "s.thy", start, end, token_re))
                except ParseError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1], (source, start, end,
                                                token_re.pattern)


class TestNesting:
    """How deep a term may nest: what parses under pytest today is pinned,
    so that no rewrite of the parser lowers it."""

    @pytest.mark.parametrize("prop", [
        "n = 900",
        "(" * 150 + "x" + ")" * 150 + " = y",
        "[" * 150 + "x" + "]" * 150 + " = y",
    ], ids=["numeral", "parentheses", "list-literals"])
    def test_deep_terms_parse(self, running_theory, prop):
        parse_theory(f'lemma deep: "{prop}"')
        parse_goal_expr(prop, running_theory)

    @pytest.mark.parametrize("numeral, shown", [
        (str(MAX_NUMERAL + 1), str(MAX_NUMERAL + 1)),
        ("30000000", "30000000"),
        ("99999999999999999999", "99999999999999999999"),
        ("9" * 5000, "99999999999999999999... (5000 digits)"),
    ], ids=["bound+1", "8-digit", "20-digit", "5000-digit"])
    def test_huge_numeral_is_an_error(self, numeral, shown):
        with pytest.raises(ParseError) as err:
            parse_theory(f'lemma a:\n  "{numeral} = x"', "big.thy")
        assert str(err.value) == \
            f"big.thy:2:4: numeral {shown} is larger than {MAX_NUMERAL}"
        assert MAX_NUMERAL >= 10_000

    def test_zero_padded_numeral_is_its_value(self):
        padded = parse_theory(f'lemma a: "{"0" * 5000}5 = x"')
        assert padded.goals == parse_theory('lemma a: "5 = x"').goals

    def test_zero_padded_numeral_in_other_digits_is_its_value(self):
        # Arabic-Indic digits: six zeros and a five
        padded = parse_theory('lemma a: "٠٠٠٠٠٠٥ = x"')
        assert padded.goals == parse_theory('lemma a: "5 = x"').goals
