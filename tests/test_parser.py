from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from inductrank import parser
from inductrank.parser import (
    ParseError, _Unifier, parse_goal_expr, parse_theory, print_theory,
)
from inductrank.terms import (
    App, FreeVar, check_term, free_variables, goal_free_variables, list_of,
    SimpleType, subterms_with_paths, type_vars,
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
        for path in sorted(corpus_dir.glob("*.thy")):
            thy = parse_theory(path.read_text(encoding="utf-8"), path.name)
            ids = _objects_per_value(thy)
            assert all(len(v) == 1 for v in ids.values()), path.name

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
        assert first == second
        assert goal == parse_goal_expr("rev (rev xs) = xs", second)
        apps = [{id(s) for s in _parts(thy)[1] if isinstance(s, App)}
                for thy in (first, second)]
        assert apps[0] and not apps[0] & apps[1]
        assert tables() == before
        # freed as soon as it is dropped: no reference cycle holds a parse
        gc.disable()
        try:
            thy = parse_theory(text)
            nodes = [weakref.ref(t) for t in (
                thy.goals[0].conclusion, parse_goal_expr("x = y", thy))]
            del thy
            assert [node() for node in nodes] == [None, None]
            # and a parse leaves no cyclic garbage behind
            gc.collect()
            for path in sorted(corpus_dir.glob("*.thy")):
                parse_theory(path.read_text(encoding="utf-8"), path.name)
                assert gc.collect() == 0, path.name
        finally:
            gc.enable()


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
