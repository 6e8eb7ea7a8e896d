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

Equal types and equal terms of one parse are one object: every node of a
parsed theory or goal is built once and shared wherever it recurs.  The
tables that find them belong to one `parse_theory` or `parse_goal_expr`
call and are dropped when it returns, so two parses share nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .terms import (
    EXTRA_CONST_SCHEMES, FUN, IMPLIES, PRELUDE_DATATYPES, PRELUDE_FUNDEFS,
    PRELUDE_NAMES, TYPE_BOOL, TYPE_NAT,
    App, Const, Constructor, DatatypeDef, Equation, FreeVar, FunDef, Goal,
    SchematicVar, SimpleType, Term, Theory,
    format_goal, format_term, format_type, fun_type, split_implications,
    subst_type, type_vars,
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
        subst = self.subst
        while a.name in subst:
            a = subst[a.name]
        while b.name in subst:
            b = subst[b.name]
        if a is b:
            return
        if a.name[0] == "'":
            if a.name == b.name:
                return
            if self._occurs(a.name, b):
                raise _Mismatch()
            subst[a.name] = b
        elif b.name[0] == "'":
            if self._occurs(b.name, a):
                raise _Mismatch()
            subst[b.name] = a
        elif a.name != b.name or len(a.args) != len(b.args):
            raise _Mismatch()
        else:
            for x, y in zip(a.args, b.args):
                self.unify(x, y)

    def instantiate(self, scheme: SimpleType,
                    variables: list[str]) -> SimpleType:
        """`scheme` with its type variables `variables` replaced by fresh
        ones, made in that order; a scheme without any is its own
        instance."""
        if not variables:
            return scheme
        return subst_type(scheme, {v: self.fresh() for v in variables})


class _Tables:
    """The shared nodes of one parse.  Each distinct type and term is
    built once and found again here:

    - a type by its name and the ids of its canonical argument types;
    - a leaf term by its class, name and the id of its canonical type;
    - an application by the ids of its function and argument.

    Keying by id is sound only because every id is of an object that the
    table itself keeps alive, as a value or inside one.  `schemes` holds
    the type variables of each constant scheme met, and `ground` the
    canonical form of each scheme that has none, both by the id of the
    scheme object.  One `_Tables` serves one `parse_theory` or
    `parse_goal_expr` call and is dropped with it."""

    def __init__(self) -> None:
        self.types: dict[tuple, SimpleType] = {}
        self.terms: dict[tuple, Term] = {}
        self.schemes: dict[int, tuple[SimpleType, list[str]]] = {}
        self.ground: dict[int, tuple[SimpleType, SimpleType]] = {}

    def type(self, name: str, args: tuple[SimpleType, ...] = ()) -> SimpleType:
        """The shared type `name` over the shared types `args`."""
        key = (name, *map(id, args))
        out = self.types.get(key)
        if out is None:
            out = self.types[key] = SimpleType(name, args)
        return out

    def intern(self, t: SimpleType) -> SimpleType:
        """The shared type equal to `t`, which has no inference
        variables."""
        return self.type(t.name, tuple(map(self.intern, t.args)))

    def variables(self, scheme: SimpleType) -> list[str]:
        """The type variables of `scheme`, listed once per parse."""
        entry = self.schemes.get(id(scheme))
        if entry is None:
            entry = self.schemes[id(scheme)] = (scheme, type_vars(scheme))
            if not entry[1]:
                self.ground[id(scheme)] = (scheme, self.intern(scheme))
        return entry[1]


_CANON_POOL = [f"'{c}" for c in "abcdefghijklmnopqrstuvwxyz"]


class _Renamer:
    """Called on types, it resolves their inference variables and renames
    the left-over ones to 'a, 'b, ... in the order it first meets them,
    visiting each type object once.  What it returns is the parse's
    shared type, from `tables`; a ground scheme's is looked up
    there whole, not walked again in every declaration.  No declared type
    variable such as 'a can be met: every type in a parsed term comes from
    a fresh variable, an instantiated scheme (all of whose variables are
    replaced) or a ground type.

    It is an object, not a recursive closure: a closure that calls itself
    is a reference cycle, which would keep the tables, and with them the
    parsed theory, alive until the cycle collector runs."""

    def __init__(self, uni: _Unifier, tables: _Tables) -> None:
        self.subst = uni.subst
        self.tables = tables
        self.renames: dict[str, SimpleType] = {}
        self.done: dict[int, SimpleType] = {}

    def __call__(self, ty: SimpleType) -> SimpleType:
        out = self.done.get(id(ty))
        if out is None:
            t, subst, tables = ty, self.subst, self.tables
            while t.name in subst:
                t = subst[t.name]
            known = tables.ground.get(id(t))
            if known is not None:
                out = known[1]
            elif t.args:
                out = tables.type(t.name, tuple(map(self, t.args)))
            elif t.name.startswith("'?"):
                out = self.renames.get(t.name)
                if out is None:
                    i = len(self.renames)
                    out = self.renames[t.name] = tables.type(
                        _CANON_POOL[i] if i < len(_CANON_POOL) else f"'v{i}")
            else:
                out = tables.type(t.name)
            self.done[id(ty)] = out
        return out


# A term is parsed into raw nodes: an application is a ``(fun, arg)`` pair
# and a leaf a ``(cls, name, type)`` triple, whose class is `Const`,
# `FreeVar` or `SchematicVar` and whose type is the unifier's.
Raw = tuple


def _canonicalise(raw: Raw, canon: _Renamer,
                  terms: dict[tuple, Term]) -> Term:
    """The term of `raw`, its types resolved and renamed by `canon`.
    Every node is the parse's shared one, from `terms`, the table of a
    `_Tables`."""
    if len(raw) == 2:
        fun = _canonicalise(raw[0], canon, terms)
        arg = _canonicalise(raw[1], canon, terms)
        key: tuple = (id(fun), id(arg))
        out = terms.get(key)
        if out is None:
            out = terms[key] = App(fun, arg)
        return out
    cls, name, ty = raw
    ty = canon(ty)
    key = (cls, name, id(ty))
    out = terms.get(key)
    if out is None:
        out = terms[key] = cls(name, ty)
    return out


def _term(raw: Raw) -> Term:
    """The term of `raw` with its types unresolved, for an error message."""
    if len(raw) == 2:
        return App(_term(raw[0]), _term(raw[1]))
    cls, name, ty = raw
    return cls(name, ty)


def _spine(raw: Raw) -> tuple[Raw, list[Raw]]:
    """The head leaf of `raw` and the arguments it is applied to."""
    args: list[Raw] = []
    while len(raw) == 2:
        args.append(raw[1])
        raw = raw[0]
    args.reverse()
    return raw, args


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

    Every production returns a ``(raw, type)`` pair: a raw node, and its
    type in the unifier's world, which is only written into a term by
    `_canonicalise`.  `bind_unknown` controls what happens to identifiers
    that are not declared constants and to schematic variables: in goal
    position they become free and schematic variables, in the right-hand
    side of an equation they are an error.
    """

    def __init__(self, ts: Cursor, sig: Theory | _Signature,
                 uni: _Unifier, tables: _Tables,
                 env: dict[str, SimpleType], bind_unknown: bool):
        self.ts = ts
        self.sig = sig
        self.uni = uni
        self.tables = tables
        self.env = env
        self.schem_env: dict[str, SimpleType] = {}
        self.bind_unknown = bind_unknown

    def parse(self) -> tuple[Raw, SimpleType]:
        return self.parse_implies()

    def parse_implies(self) -> tuple[Raw, SimpleType]:
        left, lty = self.parse_eq()
        if self.ts.at_sym(IMPLIES):
            tok = self.ts.next()
            right, rty = self.parse_implies()
            self.require(left, lty, TYPE_BOOL, tok)
            self.require(right, rty, TYPE_BOOL, tok)
            imp = (Const, IMPLIES, EXTRA_CONST_SCHEMES[IMPLIES])
            return ((imp, left), right), TYPE_BOOL
        return left, lty

    def parse_eq(self) -> tuple[Raw, SimpleType]:
        left, lty = self.parse_cons()
        if self.ts.at_sym("="):
            tok = self.ts.next()
            right, rty = self.parse_eq()
            self.require(right, rty, lty, tok)
            eq = (Const, "eq", fun_type(lty, lty, TYPE_BOOL))
            return ((eq, left), right), TYPE_BOOL
        return left, lty

    def parse_cons(self) -> tuple[Raw, SimpleType]:
        left, lty = self.parse_app()
        if self.ts.at_sym("#") or self.ts.at_sym("@"):
            tok = self.ts.next()
            right, rty = self.parse_cons()
            scheme = self.sig.const_scheme(tok.text)
            assert scheme is not None
            inst = self.instance(scheme)
            (a_ty, b_ty), result = _split2(inst)
            self.require(left, lty, a_ty, tok)
            self.require(right, rty, b_ty, tok)
            return (((Const, tok.text, inst), left), right), result
        return left, lty

    def parse_app(self) -> tuple[Raw, SimpleType]:
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
                name = _Renamer(self.uni, self.tables)
                raise self.ts.fail(
                    f"cannot apply {format_term(_term(t))} "
                    f"(type {format_type(name(fun_ty))}) "
                    f"to {format_term(_term(arg))}", tok)
            t = (t, arg)
        return t, ty

    def _at_atom(self) -> bool:
        tok = self.ts.peek()
        return (tok.kind in ("ident", "num", "schem")
                or (tok.kind == "sym" and tok.text in ("(", "[")))

    def parse_atom(self) -> tuple[Raw, SimpleType]:
        tok = self.ts.peek()
        if tok.kind == "num":
            self.ts.next()
            return _numeral(int(tok.text)), TYPE_NAT
        if tok.kind == "schem":
            self.ts.next()
            if not self.bind_unknown:
                raise self.ts.fail(
                    f"schematic variable {tok.text} on the right-hand side",
                    tok)
            name = tok.text[1:]
            if name not in self.schem_env:
                self.schem_env[name] = self.uni.fresh()
            ty = self.schem_env[name]
            return (SchematicVar, name, ty), ty
        if tok.kind == "ident":
            self.ts.next()
            scheme = self.sig.const_scheme(tok.text)
            if scheme is not None:
                inst = self.instance(scheme)
                return (Const, tok.text, inst), inst
            if tok.text in self.env:
                ty = self.env[tok.text]
                return (FreeVar, tok.text, ty), ty
            if not self.bind_unknown:
                raise self.ts.fail(f"unknown constant {tok.text}", tok)
            ty = self.uni.fresh()
            self.env[tok.text] = ty
            return (FreeVar, tok.text, ty), ty
        if tok.kind == "sym" and tok.text == "(":
            self.ts.next()
            inner = self.parse_implies()
            self.ts.expect_sym(")")
            return inner
        if tok.kind == "sym" and tok.text == "[":
            self.ts.next()
            items: list[tuple[Raw, SimpleType]] = []
            if not self.ts.at_sym("]"):
                items.append(self.parse_implies())
                while self.ts.at_sym(","):
                    self.ts.next()
                    items.append(self.parse_implies())
            self.ts.expect_sym("]")
            return self._list_literal(items, tok)
        raise self.ts.unexpected("term", "unexpected end of term")

    def instance(self, scheme: SimpleType) -> SimpleType:
        """A fresh instance of the constant scheme `scheme`."""
        return self.uni.instantiate(scheme, self.tables.variables(scheme))

    def _list_literal(self, items: list[tuple[Raw, SimpleType]],
                      tok: Token) -> tuple[Raw, SimpleType]:
        elem = self.uni.fresh()
        list_ty = SimpleType("list", (elem,))
        cons = (Const, "#", fun_type(elem, list_ty, list_ty))
        result: Raw = (Const, "[]", list_ty)
        for item, ity in reversed(items):
            self.require(item, ity, elem, tok)
            result = ((cons, item), result)
        return result, list_ty

    def require(self, t: Raw, actual: SimpleType, expected: SimpleType,
                tok: Token) -> None:
        try:
            self.uni.unify(actual, expected)
        except _Mismatch:
            name = _Renamer(self.uni, self.tables)
            raise self.ts.fail(
                f"type mismatch: {format_term(_term(t))} has type "
                f"{format_type(name(actual))}, expected "
                f"{format_type(name(expected))}", tok)


def _split2(t: SimpleType) -> tuple[tuple[SimpleType, SimpleType], SimpleType]:
    a = t.args[0]
    b = t.args[1].args[0]
    r = t.args[1].args[1]
    return (a, b), r


_ZERO: Raw = (Const, "0", TYPE_NAT)
_SUC: Raw = (Const, "Suc", fun_type(TYPE_NAT, TYPE_NAT))


def _numeral(n: int) -> Raw:
    t = _ZERO
    for _ in range(n):
        t = (_SUC, t)
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
    tables = _Tables()

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
            d = _parse_datatype(p, known_types, tables, declare)
            datatypes.append(d)
            known_types[d.name] = len(d.params)
            sig.add_datatype(d)
        elif tok.text in ("fun", "primrec"):
            fundefs.append(
                _parse_fundef(p, sig, tables, known_types, declare))
        else:
            goals.append(_parse_lemma(p, sig, tables, declare))
    return Theory(tuple(datatypes), tuple(fundefs), tuple(goals))


def _parse_datatype(p: Cursor, known_types: dict[str, int],
                    tables: _Tables, declare) -> DatatypeDef:
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
            args.append(tables.intern(
                _parse_ctor_arg(p, local_types, params, ctor_tok)))
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


def _parse_fundef(p: Cursor, sig: _Signature, tables: _Tables,
                  known_types: dict[str, int], declare) -> FunDef:
    kw = p.next()  # 'fun' | 'primrec'
    name_tok = p.expect_ident("function name")
    p.expect_sym("::")
    ty_tok = p.peek()
    if ty_tok.kind != "quoted":
        raise p.fail("found unquoted type", ty_tok, expected=('"<type>"',))
    p.next()
    ts = _quoted(ty_tok.text, p.file, ty_tok.line, ty_tok.column + 1)
    declared_ty = tables.intern(_parse_type(ts, known_types))
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
        eq = _parse_equation(p, eq_tok, sig, tables, name_tok.text)
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
                    tables: _Tables, fn_name: str) -> Equation:
    ts = _quoted(quoted.text, p.file, quoted.line, quoted.column + 1)
    uni = _Unifier()
    env: dict[str, SimpleType] = {}

    # left-hand side: unknown identifiers become pattern variables
    lhs_parser = _TermParser(ts, sig, uni, tables, env, bind_unknown=True)
    lhs, lhs_ty = lhs_parser.parse_cons()
    ts.expect_sym("=")
    rhs_parser = _TermParser(ts, sig, uni, tables, env, bind_unknown=False)
    rhs, rhs_ty = rhs_parser.parse_cons()
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in equation")

    head, args = _spine(lhs)
    if not (head[0] is Const and head[1] == fn_name):
        raise p.fail(f"equation must define {fn_name}", quoted)
    _check_patterns(args, sig, SourceSpan(p.file, quoted.line, quoted.column))
    try:
        uni.unify(lhs_ty, rhs_ty)
    except _Mismatch:
        raise p.fail("ill-typed equation: left and right sides disagree",
                     quoted)
    # both sides share one variable pool, named in the order of the goal
    # ``lhs = rhs``, whose `=` constant's type comes first
    canon = _Renamer(uni, tables)
    canon(lhs_ty)
    return Equation(_canonicalise(lhs, canon, tables.terms),
                    _canonicalise(rhs, canon, tables.terms))


def _check_patterns(args: list[Raw], sig: _Signature,
                    span: SourceSpan) -> None:
    seen_vars: set[str] = set()
    stack = args[::-1]
    while stack:
        r = stack.pop()
        if r[0] is FreeVar:
            if r[1] in seen_vars:
                raise ParseError(f"duplicate pattern variable {r[1]}", span)
            seen_vars.add(r[1])
            continue
        head, sub = _spine(r)
        if not (head[0] is Const and head[1] in sig.constructors):
            raise ParseError(
                "patterns must be constructor patterns or variables", span)
        stack += sub[::-1]


def _parse_lemma(p: Cursor, sig: _Signature, tables: _Tables,
                 declare) -> Goal:
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
        sig, tables)
    premises, conclusion = split_implications(term)
    return Goal(name_tok.text, premises, conclusion, line=lemma_tok.line)


def _parse_prop(ts: Cursor, sig: Theory | _Signature,
                tables: _Tables) -> Term:
    uni = _Unifier()
    parser = _TermParser(ts, sig, uni, tables, {}, bind_unknown=True)
    start = ts.peek()
    term, ty = parser.parse()
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in proposition")
    try:
        uni.unify(ty, TYPE_BOOL)
    except _Mismatch:
        raise ts.fail("goal must be propositional", start)
    return _canonicalise(term, _Renamer(uni, tables), tables.terms)


def parse_goal_expr(source: str, ctx: Theory,
                    file: str = "<expr>") -> Term:
    """Parse a standalone boolean proposition over `ctx`'s signature."""
    ts = _quoted(source.replace("\r\n", "\n"), file, 1, 1)
    return _parse_prop(ts, ctx, _Tables())


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
