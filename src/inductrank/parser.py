"""Parser for the textual theory-file format.

A theory file is a sequence of declarations::

    datatype <name> <params> = <Ctor> <argtypes> | ...
    primrec <name> :: "<type>" where "<eq>" | "<eq>" ...
    fun     <name> :: "<type>" where "<eq>" | "<eq>" ...
    lemma   <name>: "<prop>"

Comments are ``(* ... *)`` and may nest.  Inside quotes, terms use curried
application, list literals ``[a, b]``, numerals, and the fixed infix table
``==>`` (implication), ``=``, ``#`` and ``@`` (both right-associative).
Constants defined with ``fun`` carry a derived induction rule; ``primrec``
constants do not.

Free variables in lemmas are typed by unification; constants are
instantiated per use, so stored terms are fully monomorphic within each
declaration (left-over inference variables are canonicalised to 'a, 'b,
...).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_
from typing import Callable, NamedTuple

from .terms import (
    EXTRA_CONST_SCHEMES, FUN, IMPLIES, PRELUDE_DATATYPES, PRELUDE_FUNDEFS,
    PRELUDE_NAMES, TYPE_BOOL, TYPE_NAT,
    App, Const, Constructor, DatatypeDef, Equation, FreeVar, FunDef, Goal,
    SchematicVar, SimpleType, Term, Theory,
    format_goal, format_term, format_type, fun_type, mk_app,
    spine, split_implications, type_vars,
)


@dataclass(frozen=True)
class SourceSpan:
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


@dataclass
class ParseError(Exception):
    message: str
    span: SourceSpan
    expected: tuple[str, ...] = ()

    def __str__(self) -> str:
        s = f"{self.span}: {self.message}"
        if self.expected:
            s += " (expected " + " or ".join(self.expected) + ")"
        return s


# ---------------------------------------------------------------------------
# Lexing

_KEYWORDS = {"datatype", "fun", "primrec", "lemma", "where"}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\(\*)
  | (?P<quoted>"[^"]*")
  | (?P<unterminated>")
  | (?P<tyvar>'[a-zA-Z][a-zA-Z0-9_']*)
  | (?P<schem>\?[a-zA-Z_][a-zA-Z0-9_']*)
  | (?P<ident>[a-zA-Z_][a-zA-Z0-9_']*)
  | (?P<num>\d+)
  | (?P<sym>==>|=>|::|=|\#|@|\(|\)|\[|\]|,|\||:)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str       # tyvar | schem | ident | num | sym | quoted | eof
    text: str       # for quoted tokens: the text between the quotes
    line: int
    column: int


def scan(source: str, file: str, line: int = 1, column: int = 1,
         token_re: re.Pattern = _TOKEN_RE) -> list[Token]:
    """Tokens of `source`, whose first character is at `line`:`column`.
    Each group of `token_re` is a token kind.  Whitespace (``ws``) and
    comments, which open with a ``comment`` match and nest, are skipped.

    A token's column is its distance from the last newline before it;
    `nl` is that newline's index (before the first one, -`column`)."""
    tokens: list[Token] = []
    nl = -column
    i, n = 0, len(source)
    while i < n:
        m = token_re.match(source, i)
        if m is None:
            raise ParseError(f"unexpected character {source[i]!r}",
                             SourceSpan(file, line, i - nl))
        kind, j = m.lastgroup, m.end()
        if kind == "comment":
            depth = 1
            while depth:
                close = source.find("*)", j)
                if close < 0:
                    raise ParseError("unterminated comment",
                                     SourceSpan(file, line, i - nl))
                inner = source.find("(*", j)
                if 0 <= inner < close:
                    depth, j = depth + 1, inner + 2
                else:
                    depth, j = depth - 1, close + 2
        elif kind == "quoted":
            tokens.append(Token(kind, source[i + 1:j - 1], line, i - nl))
        elif kind == "unterminated":
            raise ParseError("unterminated quote",
                             SourceSpan(file, line, i - nl))
        elif kind != "ws":
            tokens.append(Token(kind, m.group(), line, i - nl))
            i = j
            continue
        newlines = source.count("\n", i, j)
        if newlines:
            line += newlines
            nl = source.rfind("\n", i, j)
        i = j
    tokens.append(Token("eof", "", line, n - nl))
    return tokens


class Cursor:
    """A position in a token list, with errors spanned in `file`."""

    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.pos = 0
        self.file = file

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None,
             expected: tuple[str, ...] = ()) -> ParseError:
        tok = tok or self.peek()
        return ParseError(message, SourceSpan(self.file, tok.line, tok.column),
                          expected)

    def at_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "sym" and tok.text == text

    def expect_sym(self, text: str) -> Token:
        if self.at_sym(text):
            return self.next()
        raise self.unexpected(f"'{text}'")

    def expect_ident(self, what: str) -> Token:
        if self.peek().kind == "ident":
            return self.next()
        raise self.unexpected(what)

    def unexpected(self, what: str,
                   end: str = "unexpected end of input") -> ParseError:
        """The error for the next token where `what` was expected; `end`
        is what it says at the end of the list."""
        tok = self.peek()
        return self.fail(f"found {tok.text!r}" if tok.kind != "eof" else end,
                         tok, expected=(what,))


def _quoted(text: str, file: str, line: int, column: int) -> Cursor:
    """A cursor over the terms or types of quoted text starting at
    `line`:`column`."""
    return Cursor(scan(text, file, line, column), file)


# ---------------------------------------------------------------------------
# Type inference plumbing


class _Mismatch(Exception):
    pass


def _with_args(t: SimpleType, args: tuple[SimpleType, ...]) -> SimpleType:
    """`t` with argument types `args`; `t` itself when they are its own."""
    if all(map(is_, args, t.args)):
        return t
    return SimpleType(t.name, args)


class _Unifier:
    """Unifier over SimpleType; inference variables are primed names
    starting with ``'?``.  `subst` binds a variable to a type that may
    mention other bound variables; bindings are followed one level at a
    time, and a type is resolved in full only where it is written out."""

    def __init__(self) -> None:
        self.subst: dict[str, SimpleType] = {}
        self.counter = 0

    def fresh(self) -> SimpleType:
        self.counter += 1
        return SimpleType(f"'?{self.counter}")

    def head(self, t: SimpleType) -> SimpleType:
        """`t` with the bindings at its root followed."""
        while t.name in self.subst:
            t = self.subst[t.name]
        return t

    def _occurs(self, name: str, t: SimpleType) -> bool:
        t = self.head(t)
        return t.name == name or any(self._occurs(name, a) for a in t.args)

    def unify(self, a: SimpleType, b: SimpleType) -> None:
        a, b = self.head(a), self.head(b)
        if a is b:
            return
        if a.is_var():
            if a.name == b.name:
                return
            if self._occurs(a.name, b):
                raise _Mismatch()
            self.subst[a.name] = b
        elif b.is_var():
            self.unify(b, a)
        elif a.name != b.name or len(a.args) != len(b.args):
            raise _Mismatch()
        else:
            for x, y in zip(a.args, b.args):
                self.unify(x, y)

    def instantiate(self, scheme: SimpleType) -> SimpleType:
        mapping: dict[str, SimpleType] = {}

        def walk(t: SimpleType) -> SimpleType:
            if t.is_var():
                if t.name not in mapping:
                    mapping[t.name] = self.fresh()
                return mapping[t.name]
            return _with_args(t, tuple(map(walk, t.args))) if t.args else t

        return walk(scheme)


_CANON_POOL = [f"'{c}" for c in "abcdefghijklmnopqrstuvwxyz"]


def _renamer(uni: _Unifier) -> Callable[[SimpleType], SimpleType]:
    """A function that resolves the inference variables of the types it is
    given and renames the left-over ones to 'a, 'b, ... in the order it
    first meets them, visiting each type object once.  No declared type
    variable such as 'a can be met: every type in a parsed term comes from
    a fresh variable, an instantiated scheme (all of whose variables are
    replaced) or a ground type."""
    renames: dict[str, SimpleType] = {}
    done: dict[int, SimpleType] = {}

    def canon(ty: SimpleType) -> SimpleType:
        out = done.get(id(ty))
        if out is None:
            t = uni.head(ty)
            if t.args:
                out = _with_args(t, tuple(map(canon, t.args)))
            elif t.name.startswith("'?"):
                out = renames.get(t.name)
                if out is None:
                    i = len(renames)
                    out = renames[t.name] = SimpleType(
                        _CANON_POOL[i] if i < len(_CANON_POOL) else f"'v{i}")
            else:
                out = t
            done[id(ty)] = out
        return out

    return canon


def _canonicalise(term: Term, uni: _Unifier) -> Term:
    """`term` with its types resolved and renamed by one `_renamer`."""
    canon = _renamer(uni)

    def rewrite(t: Term) -> Term:
        if isinstance(t, App):
            fun, arg = rewrite(t.fun), rewrite(t.arg)
            return t if fun is t.fun and arg is t.arg else App(fun, arg)
        ty = canon(t.type)
        return t if ty is t.type else type(t)(t.name, ty)

    return rewrite(term)


# ---------------------------------------------------------------------------
# Parser


# -- types ------------------------------------------------------------------


def _parse_type(ts: Cursor, known: dict[str, int]) -> SimpleType:
    left = _parse_type_postfix(ts, known)
    if ts.at_sym(FUN):
        ts.next()
        right = _parse_type(ts, known)
        return SimpleType(FUN, (left, right))
    return left


def _parse_type_postfix(ts: Cursor, known: dict[str, int]) -> SimpleType:
    args: list[SimpleType]
    tok = ts.peek()
    if tok.kind == "tyvar":
        ts.next()
        args = [SimpleType(tok.text)]
    elif ts.at_sym("("):
        ts.next()
        args = [_parse_type(ts, known)]
        while ts.at_sym(","):
            ts.next()
            args.append(_parse_type(ts, known))
        ts.expect_sym(")")
        if len(args) > 1:
            # a tuple of type arguments must feed a postfix constructor
            name_tok = ts.peek()
            if name_tok.kind != "ident":
                raise ts.fail("type arguments need a constructor",
                              expected=("type constructor",))
    elif tok.kind == "ident":
        ts.next()
        _check_type_name(ts, tok, 0, known)
        args = [SimpleType(tok.text)]
    else:
        raise ts.unexpected("type", "unexpected end of type")
    while ts.peek().kind == "ident":
        name_tok = ts.next()
        _check_type_name(ts, name_tok, len(args), known)
        args = [SimpleType(name_tok.text, tuple(args))]
    result = args[0]
    if len(args) > 1:
        raise ts.fail("dangling type arguments")
    return result


def _check_type_name(ts: Cursor, tok: Token, arity: int,
                     known: dict[str, int]) -> None:
    declared = known.get(tok.text)
    if declared is None:
        raise ts.fail(f"unknown type {tok.text}", tok)
    if declared != arity:
        raise ts.fail(
            f"type {tok.text} expects {declared} argument(s), got {arity}",
            tok)


# -- terms ------------------------------------------------------------------


class _TermParser:
    """Precedence-climbing term parser with on-the-fly type inference.

    Every production returns a ``(term, type)`` pair; the type side lives in
    the unifier's world and is only written back into the term during
    canonicalisation.  `bind_unknown` controls what happens to identifiers
    that are not declared constants: in goal position they become free
    variables, in the right-hand side of an equation they are an error.
    """

    def __init__(self, ts: Cursor, sig: Theory | _Signature,
                 uni: _Unifier, env: dict[str, SimpleType],
                 bind_unknown: bool):
        self.ts = ts
        self.sig = sig
        self.uni = uni
        self.env = env
        self.schem_env: dict[str, SimpleType] = {}
        self.bind_unknown = bind_unknown

    def parse(self) -> tuple[Term, SimpleType]:
        return self.parse_implies()

    def parse_implies(self) -> tuple[Term, SimpleType]:
        left, lty = self.parse_eq()
        if self.ts.at_sym(IMPLIES):
            tok = self.ts.next()
            right, rty = self.parse_implies()
            self.require(left, lty, TYPE_BOOL, tok)
            self.require(right, rty, TYPE_BOOL, tok)
            term = mk_app(Const(IMPLIES, EXTRA_CONST_SCHEMES[IMPLIES]),
                          left, right)
            return term, TYPE_BOOL
        return left, lty

    def parse_eq(self) -> tuple[Term, SimpleType]:
        left, lty = self.parse_cons()
        if self.ts.at_sym("="):
            tok = self.ts.next()
            right, rty = self.parse_eq()
            self.require(right, rty, lty, tok)
            term = mk_app(Const("eq", fun_type(lty, lty, TYPE_BOOL)),
                          left, right)
            return term, TYPE_BOOL
        return left, lty

    def parse_cons(self) -> tuple[Term, SimpleType]:
        left, lty = self.parse_app()
        if self.ts.at_sym("#") or self.ts.at_sym("@"):
            tok = self.ts.next()
            right, rty = self.parse_cons()
            scheme = self.sig.const_scheme(tok.text)
            assert scheme is not None
            inst = self.uni.instantiate(scheme)
            (a_ty, b_ty), result = _split2(inst)
            self.require(left, lty, a_ty, tok)
            self.require(right, rty, b_ty, tok)
            return mk_app(Const(tok.text, inst), left, right), result
        return left, lty

    def parse_app(self) -> tuple[Term, SimpleType]:
        t, ty = self.parse_atom()
        while self._at_atom():
            tok = self.ts.peek()
            arg, arg_ty = self.parse_atom()
            fun_ty = self.uni.head(ty)
            try:
                if fun_ty.name == FUN:
                    # a known arrow: its codomain is the result type
                    self.uni.unify(fun_ty.args[0], arg_ty)
                    ty = fun_ty.args[1]
                else:
                    ty = self.uni.fresh()
                    self.uni.unify(fun_ty, SimpleType(FUN, (arg_ty, ty)))
            except _Mismatch:
                raise self.ts.fail(
                    f"cannot apply {format_term(t)} "
                    f"(type {format_type(_renamer(self.uni)(fun_ty))}) "
                    f"to {format_term(arg)}", tok)
            t = mk_app(t, arg)
        return t, ty

    def _at_atom(self) -> bool:
        tok = self.ts.peek()
        return (tok.kind in ("ident", "num", "schem")
                or (tok.kind == "sym" and tok.text in ("(", "[")))

    def parse_atom(self) -> tuple[Term, SimpleType]:
        tok = self.ts.peek()
        if tok.kind == "num":
            self.ts.next()
            return _numeral(int(tok.text)), TYPE_NAT
        if tok.kind == "schem":
            self.ts.next()
            name = tok.text[1:]
            if name not in self.schem_env:
                self.schem_env[name] = self.uni.fresh()
            ty = self.schem_env[name]
            return SchematicVar(name, ty), ty
        if tok.kind == "ident":
            self.ts.next()
            scheme = self.sig.const_scheme(tok.text)
            if scheme is not None:
                inst = self.uni.instantiate(scheme)
                return Const(tok.text, inst), inst
            if tok.text in self.env:
                ty = self.env[tok.text]
                return FreeVar(tok.text, ty), ty
            if not self.bind_unknown:
                raise self.ts.fail(f"unknown constant {tok.text}", tok)
            ty = self.uni.fresh()
            self.env[tok.text] = ty
            return FreeVar(tok.text, ty), ty
        if tok.kind == "sym" and tok.text == "(":
            self.ts.next()
            inner = self.parse_implies()
            self.ts.expect_sym(")")
            return inner
        if tok.kind == "sym" and tok.text == "[":
            self.ts.next()
            items: list[tuple[Term, SimpleType]] = []
            if not self.ts.at_sym("]"):
                items.append(self.parse_implies())
                while self.ts.at_sym(","):
                    self.ts.next()
                    items.append(self.parse_implies())
            self.ts.expect_sym("]")
            return self._list_literal(items, tok)
        raise self.ts.unexpected("term", "unexpected end of term")

    def _list_literal(self, items: list[tuple[Term, SimpleType]],
                      tok: Token) -> tuple[Term, SimpleType]:
        elem = self.uni.fresh()
        list_ty = SimpleType("list", (elem,))
        result: Term = Const("[]", list_ty)
        for item, ity in reversed(items):
            self.require(item, ity, elem, tok)
            result = mk_app(Const("#", fun_type(elem, list_ty, list_ty)),
                            item, result)
        return result, list_ty

    def require(self, t: Term, actual: SimpleType, expected: SimpleType,
                tok: Token) -> None:
        try:
            self.uni.unify(actual, expected)
        except _Mismatch:
            name = _renamer(self.uni)
            raise self.ts.fail(
                f"type mismatch: {format_term(t)} has type "
                f"{format_type(name(actual))}, expected "
                f"{format_type(name(expected))}", tok)


def _split2(t: SimpleType) -> tuple[tuple[SimpleType, SimpleType], SimpleType]:
    a = t.args[0]
    b = t.args[1].args[0]
    r = t.args[1].args[1]
    return (a, b), r


def _numeral(n: int) -> Term:
    t: Term = Const("0", TYPE_NAT)
    for _ in range(n):
        t = mk_app(Const("Suc", fun_type(TYPE_NAT, TYPE_NAT)), t)
    return t


# ---------------------------------------------------------------------------
# Declarations


class _Signature:
    """The constants declared so far while a theory is parsed: their type
    schemes by name, and which of them are constructors.  It answers the
    term parser's lookups the way the `Theory` of the declarations so far
    would, without building one per declaration."""

    def __init__(self) -> None:
        self.schemes: dict[str, SimpleType] = dict(EXTRA_CONST_SCHEMES)
        self.constructors: set[str] = set()
        for f in PRELUDE_FUNDEFS.values():
            self.schemes[f.name] = f.type
        for d in PRELUDE_DATATYPES.values():
            self.add_datatype(d)

    def add_datatype(self, d: DatatypeDef) -> None:
        for c in d.constructors:
            self.schemes[c.name] = d.constructor_type(c)
            self.constructors.add(c.name)

    def const_scheme(self, name: str) -> SimpleType | None:
        return self.schemes.get(name)


def parse_theory(source: str, file: str = "<string>") -> Theory:
    """Parse a theory file.  Raises ParseError on syntax violations,
    duplicate names, unknown constants/types, or ill-typed equations."""
    p = Cursor(scan(source.replace("\r\n", "\n"), file), file)
    datatypes: list[DatatypeDef] = []
    fundefs: list[FunDef] = []
    goals: list[Goal] = []
    known_types = {"nat": 0, "list": 1, "bool": 0}
    declared = set(PRELUDE_NAMES)
    sig = _Signature()

    def declare(name: str, tok: Token) -> None:
        if name in declared:
            raise p.fail(f"duplicate name {name}", tok)
        declared.add(name)

    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "ident" or tok.text not in _KEYWORDS:
            raise p.fail(f"found {tok.text!r}", tok,
                         expected=("datatype", "fun", "primrec", "lemma"))
        if tok.text == "datatype":
            d = _parse_datatype(p, known_types, declare)
            datatypes.append(d)
            known_types[d.name] = len(d.params)
            sig.add_datatype(d)
        elif tok.text in ("fun", "primrec"):
            fundefs.append(_parse_fundef(p, sig, known_types, declare))
        else:
            goals.append(_parse_lemma(p, sig, declare))
    return Theory(tuple(datatypes), tuple(fundefs), tuple(goals))


def _parse_datatype(p: Cursor, known_types: dict[str, int],
                    declare) -> DatatypeDef:
    p.next()  # 'datatype'
    name_tok = p.expect_ident("datatype name")
    declare(name_tok.text, name_tok)
    params: list[str] = []
    while p.peek().kind == "tyvar":
        tv = p.next()
        if tv.text in params:
            raise p.fail(f"duplicate type parameter {tv.text}", tv)
        params.append(tv.text)
    p.expect_sym("=")
    # the datatype may appear recursively in its own constructors
    local_types = dict(known_types)
    local_types[name_tok.text] = len(params)
    ctors: list[Constructor] = []
    while True:
        ctor_tok = p.expect_ident("constructor name")
        declare(ctor_tok.text, ctor_tok)
        args: list[SimpleType] = []
        while ((p.peek().kind == "ident" and p.peek().text not in _KEYWORDS)
               or p.peek().kind == "tyvar" or p.at_sym("(")):
            args.append(_parse_ctor_arg(p, local_types, params, ctor_tok))
        ctors.append(Constructor(ctor_tok.text, tuple(args)))
        if p.at_sym("|"):
            p.next()
            continue
        break
    if not ctors:
        raise p.fail("datatype needs at least one constructor", name_tok)
    return DatatypeDef(name_tok.text, tuple(params), tuple(ctors))


def _parse_ctor_arg(p: Cursor, known: dict[str, int], params: list[str],
                    ctx_tok: Token) -> SimpleType:
    tok = p.peek()
    if tok.kind == "tyvar":
        p.next()
        if tok.text not in params:
            raise p.fail(f"type variable {tok.text} is not a parameter", tok)
        return SimpleType(tok.text)
    if tok.kind == "ident":
        p.next()
        if known.get(tok.text) != 0:
            raise p.fail(
                f"unknown type {tok.text}" if tok.text not in known
                else f"type {tok.text} needs arguments (use parentheses)",
                tok)
        return SimpleType(tok.text)
    # parenthesised compound type; re-lex the slice via a tiny trick:
    # collect raw tokens until the matching close paren
    p.expect_sym("(")
    depth = 1
    parts: list[Token] = []
    while depth > 0:
        t = p.next()
        if t.kind == "eof":
            raise p.fail("unterminated type", tok)
        if t.kind == "sym" and t.text == "(":
            depth += 1
        elif t.kind == "sym" and t.text == ")":
            depth -= 1
            if depth == 0:
                break
        parts.append(t)
    # the type ends at the closing parenthesis `t`
    ts = Cursor(parts + [Token("eof", "", t.line, t.column)], p.file)
    ty = _parse_type(ts, known)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in type")
    for tv in type_vars(ty):
        if tv not in params:
            raise p.fail(f"type variable {tv} is not a parameter", tok)
    return ty


def _parse_fundef(p: Cursor, sig: _Signature,
                  known_types: dict[str, int], declare) -> FunDef:
    kw = p.next()  # 'fun' | 'primrec'
    name_tok = p.expect_ident("function name")
    p.expect_sym("::")
    ty_tok = p.peek()
    if ty_tok.kind != "quoted":
        raise p.fail("found unquoted type", ty_tok, expected=('"<type>"',))
    p.next()
    ts = _quoted(ty_tok.text, p.file, ty_tok.line, ty_tok.column + 1)
    declared_ty = _parse_type(ts, known_types)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in type")
    declare(name_tok.text, name_tok)
    where_tok = p.expect_ident("'where'")
    if where_tok.text != "where":
        raise p.fail(f"found {where_tok.text!r}", where_tok,
                     expected=("'where'",))

    # the new constant is visible inside its own equations
    sig.schemes[name_tok.text] = declared_ty

    equations: list[Equation] = []
    arity: int | None = None
    while True:
        eq_tok = p.peek()
        if eq_tok.kind != "quoted":
            raise p.fail("found unquoted equation", eq_tok,
                         expected=('"<equation>"',))
        p.next()
        eq = _parse_equation(p, eq_tok, sig, name_tok.text)
        n_args = len(eq.lhs_args())
        if arity is None:
            arity = n_args
        elif arity != n_args:
            raise p.fail(f"equation has {n_args} argument(s), earlier ones "
                         f"have {arity}", eq_tok)
        equations.append(eq)
        if p.at_sym("|"):
            p.next()
            continue
        break
    return FunDef(name_tok.text, declared_ty, tuple(equations),
                  kw.text == "fun")


def _parse_equation(p: Cursor, quoted: Token, sig: _Signature,
                    fn_name: str) -> Equation:
    ts = _quoted(quoted.text, p.file, quoted.line, quoted.column + 1)
    uni = _Unifier()
    env: dict[str, SimpleType] = {}

    # left-hand side: unknown identifiers become pattern variables
    lhs_parser = _TermParser(ts, sig, uni, env, bind_unknown=True)
    lhs, lhs_ty = lhs_parser.parse_cons()
    ts.expect_sym("=")
    rhs_parser = _TermParser(ts, sig, uni, env, bind_unknown=False)
    rhs_parser.schem_env = lhs_parser.schem_env
    rhs, rhs_ty = rhs_parser.parse_cons()
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in equation")

    head, args = spine(lhs)
    if not (isinstance(head, Const) and head.name == fn_name):
        raise p.fail(f"equation must define {fn_name}", quoted)
    _check_patterns(args, sig, SourceSpan(p.file, quoted.line, quoted.column))
    try:
        uni.unify(lhs_ty, rhs_ty)
    except _Mismatch:
        raise p.fail("ill-typed equation: left and right sides disagree",
                     quoted)
    # canonicalise both sides against the same variable pool
    shell = Const("eq", fun_type(lhs_ty, lhs_ty, TYPE_BOOL))
    pair = _canonicalise(mk_app(shell, lhs, rhs), uni)
    _, (lhs2, rhs2) = spine(pair)
    return Equation(lhs2, rhs2)


def _check_patterns(args: tuple[Term, ...], sig: _Signature,
                    span: SourceSpan) -> None:
    seen_vars: set[str] = set()

    def walk(t: Term) -> None:
        if isinstance(t, FreeVar):
            if t.name in seen_vars:
                raise ParseError(f"duplicate pattern variable {t.name}", span)
            seen_vars.add(t.name)
            return
        head, sub = spine(t)
        if isinstance(head, Const) and head.name in sig.constructors:
            for s in sub:
                walk(s)
            return
        raise ParseError(
            "patterns must be constructor patterns or variables", span)

    for a in args:
        walk(a)


def _parse_lemma(p: Cursor, sig: _Signature, declare) -> Goal:
    lemma_tok = p.next()  # 'lemma'
    name_tok = p.expect_ident("lemma name")
    declare(name_tok.text, name_tok)
    p.expect_sym(":")
    prop_tok = p.peek()
    if prop_tok.kind != "quoted":
        raise p.fail("found unquoted proposition", prop_tok,
                     expected=('"<prop>"',))
    p.next()
    term = _parse_prop(
        _quoted(prop_tok.text, p.file, prop_tok.line, prop_tok.column + 1),
        sig)
    premises, conclusion = split_implications(term)
    return Goal(name_tok.text, premises, conclusion, line=lemma_tok.line)


def _parse_prop(ts: Cursor, sig: Theory | _Signature) -> Term:
    uni = _Unifier()
    parser = _TermParser(ts, sig, uni, {}, bind_unknown=True)
    start = ts.peek()
    term, ty = parser.parse()
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in proposition")
    try:
        uni.unify(ty, TYPE_BOOL)
    except _Mismatch:
        raise ts.fail("goal must be propositional", start)
    return _canonicalise(term, uni)


def parse_goal_expr(source: str, ctx: Theory,
                    file: str = "<expr>") -> Term:
    """Parse a standalone boolean proposition over `ctx`'s signature."""
    return _parse_prop(_quoted(source.replace("\r\n", "\n"), file, 1, 1), ctx)


# ---------------------------------------------------------------------------
# Printing (round-trip support)


def print_theory(thy: Theory) -> str:
    """Pretty-print a theory so that reparsing yields a structurally equal
    Theory.  Datatypes come first; they never reference functions."""
    chunks: list[str] = []
    for d in thy.datatypes:
        head = " ".join(["datatype", d.name, *d.params])
        alts = []
        for c in d.constructors:
            parts = [c.name] + [_ctor_arg_text(t) for t in c.arg_types]
            alts.append(" ".join(parts))
        chunks.append(f"{head} = " + " | ".join(alts))
    for f in thy.fundefs:
        kw = "fun" if f.has_induction_rule else "primrec"
        lines = [f'{kw} {f.name} :: "{format_type(f.type)}" where']
        eq_texts = [f'"{format_term(e.lhs, 3)} = {format_term(e.rhs, 3)}"'
                    for e in f.equations]
        lines.append("  " + "\n| ".join(eq_texts))
        chunks.append("\n".join(lines))
    for g in thy.goals:
        chunks.append(f'lemma {g.name}: "{format_goal(g)}"')
    return "\n\n".join(chunks) + ("\n" if chunks else "")


def _ctor_arg_text(t: SimpleType) -> str:
    if not t.args and t.name != FUN:
        return t.name
    return f"({format_type(t)})"
