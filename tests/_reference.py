"""Brute-force reference implementations used as oracles.

Everything here is written independently of the library's evaluator: the
quantifiers materialise their full domains (no short-circuiting, no
sharing), term and occurrence domains come from their own recursive
walkers, and argument-position assertions are answered by inspecting the
actual tree instead of doing path arithmetic.
"""

from __future__ import annotations

import itertools
import random
import re

from inductrank.dsl import (
    And, Atom, Exists, Forall, Implies, InductionTerms, Not,
    OccurrencesOf, Or, Sort, TrueF, ATOM_SIGNATURES,
    INDUCTION_TERMS, UNRESTRICTED,
)
from inductrank.parser import (
    Cursor, ParseError, SourceSpan, Token, _Reader, _closure,
    _parse_datatype, _parse_fundef, _parse_lemma,
)
from inductrank.schemes import rules_for
from inductrank.tactic import Candidate
from inductrank.terms import (
    App, Const, FreeVar, Goal, Occurrence, SimpleType, Theory,
    goal_free_variables, spine, term_type,
)


# ---------------------------------------------------------------------------
# Reference scanner


def reference_scan(source: str, file: str, start: int, end: int,
                   token_re) -> list[Token]:
    """The tokens of `source[start:end]` by one `token_re.match` per token
    and per run of whitespace in that slice: the scanner before whitespace
    was read with the token after it.  Offsets are in `source`, and an
    error's line and column are those of its offset there."""
    def span(i: int) -> SourceSpan:
        lines = source[:start + i].split("\n")
        return SourceSpan(file, len(lines), len(lines[-1]) + 1)

    text = source[start:end]
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        m = token_re.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", span(i))
        kind, j = m.lastgroup, m.end()
        if kind == "comment":
            depth = 1
            while depth:
                close = text.find("*)", j)
                if close < 0:
                    raise ParseError("unterminated comment", span(i))
                inner = text.find("(*", j)
                if 0 <= inner < close:
                    depth, j = depth + 1, inner + 2
                else:
                    depth, j = depth - 1, close + 2
        elif kind == "quoted":
            tokens.append(Token(kind, text[i + 1:j - 1], start + i))
        elif kind == "unterminated":
            raise ParseError("unterminated quote", span(i))
        elif kind != "ws":
            tokens.append(Token(kind, m.group(), start + i))
        i = j
    tokens.append(Token("eof", "", end))
    return tokens


# ---------------------------------------------------------------------------
# Reference top level


def ref_token_theory(source: str, file: str, goals=None, texts=()) -> Theory:
    """The theory of `source` (with CRLF read as LF), read token by
    token: one `scan` of the whole file, then a loop over its
    declarations with the parser's own per-declaration readers.  It is
    what `parse_theory` gives, save in a file with two errors: here reach
    is found over every declaration the tokens show (`_token_reach`),
    where `parse_theory` finds it over those before the first malformed
    one, so a definition that only a later lemma names raises here and
    not there."""
    source = source.replace("\r\n", "\n")
    p = Cursor(source, file)
    r = _Reader(source, file)
    reach = None if goals is None else _token_reach(p.tokens, goals, texts)
    top_level = ("datatype", "fun", "primrec", "lemma")
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "ident" or tok.text not in top_level:
            raise p.fail(f"found {tok.text!r}", tok, expected=top_level)
        if tok.text == "datatype":
            r.datatype(_parse_datatype(p, r))
        elif tok.text in ("fun", "primrec"):
            kw, name, ty, quoted = _parse_fundef(p, r)
            if reach is None or name in reach:
                r.definition(kw, name, ty, quoted)
            else:  # read past its equations, each checked to be quoted
                list(quoted)
                r.unread.add(name)
        else:
            at, name, prop = _parse_lemma(p, r)
            if goals is None or name in goals:
                r.lemma(at, name, prop)
    return r.theory()


def _token_reach(tokens: list[Token], goals, texts) -> set[str]:
    """The `_closure` of the statements of the lemmas `goals` and the
    `texts`.  It reads the top-level `tokens` in the shapes the
    declaration loop accepts, and never raises: a declaration it cannot
    read is one the loop reports."""
    def at(i: int, kind: str, text: str | None = None) -> bool:
        return i < len(tokens) and tokens[i].kind == kind \
            and text in (None, tokens[i].text)

    equations: dict[str, list[str]] = {}
    named = list(texts)
    for i, tok in enumerate(tokens):
        if tok.kind != "ident" or not at(i + 1, "ident"):
            continue
        name = tokens[i + 1].text
        if tok.text == "lemma":
            if name in goals and at(i + 2, "sym", ":") \
                    and at(i + 3, "quoted"):
                named.append(tokens[i + 3].text)
        elif tok.text in ("fun", "primrec") and at(i + 2, "sym", "::") \
                and at(i + 3, "quoted") and at(i + 4, "ident", "where"):
            texts_of = equations.setdefault(name, [])
            j = i + 5
            while at(j, "quoted"):
                texts_of.append(tokens[j].text)
                if not at(j + 1, "sym", "|"):
                    break
                j += 2
    return _closure(equations, named)


# ---------------------------------------------------------------------------
# Reference reach

_IDENT = r"[a-zA-Z_][a-zA-Z0-9_']*"
_DEFINITION = re.compile(rf'''\b(?:fun|primrec)\s+({_IDENT})\s*::\s*"[^"]*"\s*
                           where((?:\s*"[^"]*"\s*\|)*\s*"[^"]*")''', re.X)
_LEMMA = re.compile(rf'\blemma\s+({_IDENT})\s*:\s*("[^"]*")')
_QUOTED = re.compile(r'"[^"]*"')
_QUOTED_OR_COMMENT = re.compile(r'"[^"]*"|\(\*')
_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _blanked(text: str) -> str:
    """`text` with CRLF read as LF and its comments, which nest, blanked
    out, keeping every offset and newline."""
    text = text.replace("\r\n", "\n")
    chars = list(text)
    pos = 0
    while (m := _QUOTED_OR_COMMENT.search(text, pos)) is not None:
        pos = m.end()
        if m.group() != "(*":
            continue
        depth = 1
        while depth and (c := _COMMENT_MARK.search(text, pos)):
            depth += 1 if c.group() == "(*" else -1
            pos = c.end()
        end = pos if not depth else len(text)
        chars[m.start():end] = [ch if ch == "\n" else " "
                                for ch in text[m.start():end]]
    return "".join(chars)


def ref_declared_texts(text: str) -> list[tuple[int, int, str, str]]:
    """The equations and lemma statements of `text` (with CRLF read as
    LF), as ``(start, end, kind, name)``: the offsets of the opening
    quote and after the closing one, and ``"fun"`` with the defined name
    or ``"lemma"`` with the lemma's.  Regular expressions find the
    declarations in the `_blanked` text."""
    blanked = _blanked(text)
    out = [(q.start(), q.end(), "fun", d.group(1))
           for d in _DEFINITION.finditer(blanked)
           for q in _QUOTED.finditer(blanked, d.start(2), d.end(2))]
    out += [(m.start(2), m.end(2), "lemma", m.group(1))
            for m in _LEMMA.finditer(blanked)]
    return sorted(out)


def ref_lemma_lines(text: str) -> dict[str, int]:
    """The line of each lemma's ``lemma`` keyword in `text`, counting from
    1 and reading CRLF as LF: the number of pieces that the text before
    it falls into when it is split at each newline."""
    blanked = _blanked(text)
    return {m.group(1): len(blanked[:m.start()].split("\n"))
            for m in _LEMMA.finditer(blanked)}


def ref_reached(text: str, goals, texts=()) -> set[str]:
    """The definitions of `text` whose equations a request for the lemmas
    `goals` with the other `texts` reads: those named, as an identifier,
    in a requested statement, in `texts` or in the equations of another
    such definition, found by growing the set until it stops growing."""
    norm = text.replace("\r\n", "\n")
    equations: dict[str, list[str]] = {}
    roots = list(texts)
    for start, end, kind, name in ref_declared_texts(text):
        if kind == "fun":
            equations.setdefault(name, []).append(norm[start + 1:end - 1])
        elif name in goals:
            roots.append(norm[start + 1:end - 1])
    reached: set[str] = set()
    while True:
        read = roots + [e for f in reached for e in equations[f]]
        grown = {w for t in read for w in re.findall(_IDENT, t)} \
            & equations.keys()
        if grown == reached:
            return reached
        reached = grown


# ---------------------------------------------------------------------------
# Reference enumeration


def reference_candidates(goal: Goal, thy: Theory):
    """Every candidate for `goal` in the documented order, by nested loops:
    the empty induction-term sequence with each arbitrary subset, then
    every later sequence with the same subsets, each with each rule."""
    names = [v.name for v in goal_free_variables(goal)]
    rules = [None, *rules_for(goal, thy)]
    subsets = []
    for j in range(len(names) + 1):
        for combination in itertools.combinations(names, j):
            arb = frozenset(combination)
            subsets.append(arb)
            for rule in rules:
                yield Candidate((), arb, rule)
    for k in range(1, len(names) + 1):
        for seq in itertools.permutations(names, k):
            for arb in subsets:
                for rule in rules:
                    yield Candidate(seq, arb, rule)


# ---------------------------------------------------------------------------
# Reference domains


def ref_subterm_positions(root):
    """(path, subterm) pairs, recursively, pre-order."""

    def walk(t, path):
        out = [(path, t)]
        if isinstance(t, App):
            out += walk(t.fun, path + (0,))
            out += walk(t.arg, path + (1,))
        return out

    return walk(root, ())


def ref_dedup(items):
    out = []
    for x in items:
        if not any(x == y for y in out):
            out.append(x)
    return out


def ref_goal_terms(goal: Goal):
    items = []
    for p in goal.premises:
        items += [t for _, t in ref_subterm_positions(p)]
    items += [t for _, t in ref_subterm_positions(goal.conclusion)]
    return ref_dedup(items)


def ref_goal_occurrences(goal: Goal):
    out = []
    for i, p in enumerate(goal.premises):
        out += [Occurrence(path, t, i)
                for path, t in ref_subterm_positions(p)]
    out += [Occurrence(path, t, None)
            for path, t in ref_subterm_positions(goal.conclusion)]
    return out


def ref_induction_terms(goal: Goal, names):
    def first_var(name):
        for _, root in goal.regions():
            for _, t in ref_subterm_positions(root):
                if isinstance(t, FreeVar) and t.name == name:
                    return t
        return FreeVar(name, SimpleType("'a"))

    return [first_var(n) for n in names]


def ref_rule_names(candidate, thy: Theory):
    rule = candidate.rule
    if rule is None or not rule.endswith(".induct"):
        return []
    f = thy.fundef(rule[: -len(".induct")])
    if f is None or not f.has_induction_rule or not f.equations:
        return []
    if len(spine(f.equations[0].lhs)[1]) == 0:
        return []
    return [rule]


def ref_number_bound(goal: Goal, candidate):
    widest = 1
    for t in ref_goal_terms(goal):
        n = 0
        node = t
        while isinstance(node, App):
            n += 1
            node = node.fun
        widest = max(widest, n)
    return max(widest, len(candidate.induction_terms), 1)


# ---------------------------------------------------------------------------
# Reference atom semantics (tree inspection, not path arithmetic)


def _region_root(goal: Goal, occ: Occurrence):
    if occ.premise_index is None:
        return goal.conclusion
    return goal.premises[occ.premise_index]


def ref_is_nth_argument_of(goal: Goal, to2: Occurrence, n: int,
                           to1: Occurrence) -> bool:
    if to1.premise_index != to2.premise_index:
        return False
    root = _region_root(goal, to1)
    for q, node in ref_subterm_positions(root):
        if not isinstance(node, App):
            continue
        if q != () and q[-1] == 0:
            continue  # not the outermost application of its spine
        # full spine of the application rooted at q
        arg_paths = []
        cur, cur_path = node, q
        while isinstance(cur, App):
            arg_paths.append(cur_path + (1,))
            cur_path = cur_path + (0,)
            cur = cur.fun
        arg_paths.reverse()
        m = len(arg_paths)
        for j in range(1, m + 1):
            head_pos = q + (0,) * j
            if to1.path != head_pos:
                continue
            # the application headed here takes the outermost j arguments
            args_of_head = arg_paths[m - j:]
            if 1 <= n <= j and args_of_head[n - 1] == to2.path:
                return True
    return False


def ref_atom(goal: Goal, candidate, thy: Theory, name: str, values) -> bool:
    if name == "is_rule_of":
        rule_name, occ = values
        return (isinstance(occ.term, Const)
                and rule_name == occ.term.name + ".induct")
    if name == "is_nth_argument_of":
        to2, n, to1 = values
        return ref_is_nth_argument_of(goal, to2, n, to1)
    if name == "is_nth_induction_term":
        t, n = values
        terms = ref_induction_terms(goal, candidate.induction_terms)
        return 1 <= n <= len(terms) and terms[n - 1] == t
    if name == "is_free_variable":
        return isinstance(values[0], FreeVar)
    if name == "is_constant":
        return isinstance(values[0], Const)
    if name == "is_in_arbitrary":
        t = values[0]
        return isinstance(t, FreeVar) and t.name in candidate.arbitrary
    if name == "is_of_datatype":
        ty = term_type(values[0])
        return (not ty.is_var()) and thy.datatype(ty.name) is not None
    if name == "occurs_in_conclusion":
        return values[0].premise_index is None
    if name == "is_recursive_constant":
        t = values[0]
        if not isinstance(t, Const):
            return False
        f = thy.fundef(t.name)
        if f is None:
            return False
        return any(isinstance(sub, Const) and sub.name == f.name
                   for eq in f.equations
                   for _, sub in ref_subterm_positions(eq.rhs))
    if name == "same_term":
        occ, t = values
        return occ.term == t
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Reference evaluator: full materialisation, no short-circuiting


def ref_evaluate(formula, goal: Goal, candidate, thy: Theory,
                 number_bound: int | None = None) -> bool:
    if number_bound is None:
        number_bound = ref_number_bound(goal, candidate)

    def domain(sort, restriction, env):
        if sort is Sort.NUMBER:
            return list(range(1, number_bound + 1))
        if sort is Sort.RULE:
            return ref_rule_names(candidate, thy)
        if sort is Sort.TERM:
            if isinstance(restriction, InductionTerms):
                return ref_induction_terms(goal, candidate.induction_terms)
            return ref_goal_terms(goal)
        occurrences = ref_goal_occurrences(goal)
        if isinstance(restriction, OccurrencesOf):
            target = env[restriction.term_var]
            return [o for o in occurrences if o.term == target]
        return occurrences

    def ev(f, env):
        if isinstance(f, TrueF):
            return True
        if isinstance(f, Not):
            return not ev(f.body, env)
        if isinstance(f, And):
            results = [ev(f.left, env), ev(f.right, env)]
            return False not in results
        if isinstance(f, Or):
            results = [ev(f.left, env), ev(f.right, env)]
            return True in results
        if isinstance(f, Implies):
            results = [ev(f.left, env), ev(f.right, env)]
            return (not results[0]) or results[1]
        if isinstance(f, Exists):
            results = [ev(f.body, {**env, f.var: v})
                       for v in domain(f.sort, f.restriction, env)]
            return True in results
        if isinstance(f, Forall):
            results = [ev(f.body, {**env, f.var: v})
                       for v in domain(f.sort, f.restriction, env)]
            return False not in results
        assert isinstance(f, Atom)
        values = tuple(a if isinstance(a, int) else env[a] for a in f.args)
        return ref_atom(goal, candidate, thy, f.name, values)

    return ev(formula, {})


# ---------------------------------------------------------------------------
# Random well-sorted formula generation


def random_formula(rng: random.Random, depth: int = 5,
                   max_quantifiers: int = 3):
    """A closed, well-sorted formula of AST depth at most `depth`."""

    def atom_for(env):
        usable = []
        for name, sig in ATOM_SIGNATURES.items():
            if all(s is Sort.NUMBER or s in env.values() for s in sig):
                usable.append((name, sig))
        if not usable:
            return TrueF()
        name, sig = usable[rng.randrange(len(usable))]
        args = []
        for s in sig:
            if s is Sort.NUMBER:
                number_vars = [v for v, vs in env.items()
                               if vs is Sort.NUMBER]
                if number_vars and rng.random() < 0.5:
                    args.append(number_vars[rng.randrange(len(number_vars))])
                else:
                    args.append(rng.randint(1, 3))
            else:
                vars_of = [v for v, vs in env.items() if vs is s]
                args.append(vars_of[rng.randrange(len(vars_of))])
        return Atom(name, tuple(args))

    def build(env, depth_left, quant_left):
        if depth_left <= 0 or rng.random() < 0.2:
            return atom_for(env) if rng.random() < 0.8 else TrueF()
        roll = rng.random()
        if quant_left > 0 and roll < 0.55:
            sort = [Sort.NUMBER, Sort.RULE, Sort.TERM,
                    Sort.OCCURRENCE][rng.randrange(4)]
            restriction = UNRESTRICTED
            if sort is Sort.TERM and rng.random() < 0.5:
                restriction = INDUCTION_TERMS
            if sort is Sort.OCCURRENCE:
                term_vars = [v for v, vs in env.items() if vs is Sort.TERM]
                if term_vars and rng.random() < 0.6:
                    restriction = OccurrencesOf(
                        term_vars[rng.randrange(len(term_vars))])
            var = f"v{len(env)}"
            body = build({**env, var: sort}, depth_left - 1, quant_left - 1)
            cls = Exists if rng.random() < 0.5 else Forall
            return cls(var, sort, restriction, body)
        if roll < 0.65:
            return Not(build(env, depth_left - 1, quant_left))
        cls = [And, Or, Implies][rng.randrange(3)]
        return cls(build(env, depth_left - 1, quant_left),
                   build(env, depth_left - 1, quant_left))

    return build({}, depth, max_quantifiers)


def formula_source(f) -> str:
    """`f` in the concrete syntax the heuristic parser reads, with every
    operand of a connective parenthesised."""
    if isinstance(f, TrueF):
        return "True"
    if isinstance(f, Not):
        return f"! ({formula_source(f.body)})"
    if isinstance(f, (And, Or, Implies)):
        op = {And: "&", Or: "|", Implies: "-->"}[type(f)]
        return f"({formula_source(f.left)}) {op} ({formula_source(f.right)})"
    if isinstance(f, (Exists, Forall)):
        restriction = ""
        if isinstance(f.restriction, InductionTerms):
            restriction = " in induction_term"
        elif isinstance(f.restriction, OccurrencesOf):
            restriction = f" in {f.restriction.term_var} : term"
        quantifier = "EX" if isinstance(f, Exists) else "ALL"
        return (f"{quantifier} {f.var} : {f.sort.value}{restriction}. "
                f"{formula_source(f.body)}")
    return f"{f.name} ({', '.join(map(str, f.args))})"
