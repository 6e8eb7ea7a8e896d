"""Parser for the textual theory-file format.

A theory file is a sequence of declarations::

    datatype <name> <params> = <Ctor> <argtypes> | ...
    primrec <name> :: "<type>" where "<eq>" | "<eq>" ...
    fun     <name> :: "<type>" where "<eq>" | "<eq>" ...
    lemma   <name>: "<prop>"

Comments are ``(* ... *)`` and may nest.  Inside quotes, terms use curried
application, list literals ``[a, b]``, numerals up to `MAX_NUMERAL`, and
the fixed infix table ``==>`` (implication), ``=``, ``#`` and ``@`` (both
right-associative).  Constants defined with ``fun`` carry a derived
induction rule; ``primrec`` constants do not.

The top level is read by one regular expression, `_DECLARATION`, with
one match per declaration: a definition's name, quoted type and quoted
equations, a lemma's name and quoted statement, or a datatype's span up
to the next keyword or quote.  Comments are blanked in place first
(`_blanked`), so the matches read every well-formed file to its end;
where they stop short, at a malformed declaration, a cursor reads on
and raises its error.  A parse reports a file's first lexical error
outside quotes, or else its first error in file order.

The scanner makes one regular-expression match per token and the
whitespace before it.  A token carries its offset into the file: line
and column are computed only for an error or a `Goal.line`.  A quoted
text is scanned in place when the parser reaches it, so a file's tokens
are never all held at once.

A lemma's statement is parsed only if `parse_theory`'s `goals` names it,
or `goals` is None.  A definition's equations are parsed only if it is
reached: its name occurs as an identifier in a requested statement, in
one of the caller's `texts` or in the equations of a reached definition.
A requested lemma or reached definition is parsed where it stands, so it
sees exactly the declarations before it.

Free variables in lemmas are typed by unification; constants are
instantiated per use, so stored terms are fully monomorphic within each
declaration (left-over inference variables are canonicalised to 'a, 'b,
...).  A constant's type is its scheme with each type variable replaced
by a fresh inference variable, made by one walk of the scheme, and it is
written out to the parse's shared types like a variable's.

Equal types and equal terms of one parse are one object: every node of a
parsed theory or goal is built once and shared wherever it recurs.  The
tables that find them belong to one `parse_theory` or `parse_goal_expr`
call and are dropped when it returns, so two parses share nothing.
"""

from __future__ import annotations

import re
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .terms import (
    EXTRA_CONST_SCHEMES, FUN, IMPLIES, PRELUDE_DATATYPES, PRELUDE_FUNDEFS,
    PRELUDE_NAMES,
    App, Const, Constructor, DatatypeDef, Equation, FreeVar, FunDef, Goal,
    SchematicVar, SimpleType, Term, Theory,
    format_goal, format_term, format_type, split_implications,
    type_vars,
)


class SourceSpan(NamedTuple):
    file: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan,
                 expected: tuple[str, ...] = ()):
        self.message = message
        self.span = span
        self.expected = expected

    def __str__(self) -> str:
        s = f"{self.span}: {self.message}"
        if self.expected:
            s += " (expected " + " or ".join(self.expected) + ")"
        return s


# ---------------------------------------------------------------------------
# Lexing

_TOP_LEVEL = ("datatype", "fun", "primrec", "lemma")
_KEYWORDS = {*_TOP_LEVEL, "where"}

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


def _lexer(token_re: re.Pattern) -> re.Pattern:
    """`token_re` after the whitespace before a token, so that this costs
    no match of its own; only whitespace that no token follows is a
    ``ws`` match."""
    return re.compile(r"\s*(?:" + token_re.pattern + ")", token_re.flags)


_LEXER = _lexer(_TOKEN_RE)
_new = tuple.__new__
# the match kinds that are not plain tokens
_SKIPPED = {"ws", "comment", "quoted", "unterminated"}


class Token(NamedTuple):
    """A token of a source, with where it starts in that source."""
    kind: str       # tyvar | schem | ident | num | sym | quoted | eof
    text: str       # for quoted tokens: the text between the quotes
    offset: int     # of its first character, the quote of a quoted token


def _span(source: str, file: str, offset: int) -> SourceSpan:
    """The span of `offset` in `source`."""
    return SourceSpan(file, 1 + source.count("\n", 0, offset),
                      offset - source.rfind("\n", 0, offset))


def scan(source: str, file: str, start: int = 0, end: int | None = None,
         token_re: re.Pattern = _TOKEN_RE) -> list[Token]:
    """Tokens of `source[start:end]`, read in place: offsets are in `source`.
    Each group of `token_re` is a token kind.  Whitespace (``ws``) and
    comments, which open with a ``comment`` match and nest, are skipped.

    A `finditer` pass reads the matches of `_lexer(token_re)`; one that
    does not start at `pos` leaves a character no group matches there,
    and a comment restarts the pass after its end."""
    lexer = _LEXER if token_re is _TOKEN_RE else _lexer(token_re)
    tokens: list[Token] = []
    pos, end = start, len(source) if end is None else end
    while pos < end:
        for m in lexer.finditer(source, pos, end):
            if m.start() != pos:
                break
            kind = m.lastgroup
            i, pos = m.span(m.lastindex)
            if kind not in _SKIPPED:
                tokens.append(_new(Token, (kind, source[i:pos], i)))
            elif kind == "comment":
                depth = 1
                while depth:
                    close = source.find("*)", pos, end)
                    if close < 0:
                        raise ParseError("unterminated comment",
                                         _span(source, file, i))
                    inner = source.find("(*", pos, end)
                    if 0 <= inner < close:
                        depth, pos = depth + 1, inner + 2
                    else:
                        depth, pos = depth - 1, close + 2
                break
            elif kind == "quoted":
                tokens.append(Token(kind, source[i + 1:pos - 1], i))
            elif kind == "unterminated":
                raise ParseError("unterminated quote", _span(source, file, i))
        if pos < end and token_re.match(source, pos, end) is None:
            raise ParseError(f"unexpected character {source[pos]!r}",
                             _span(source, file, pos))
    tokens.append(Token("eof", "", end))
    return tokens


class Cursor:
    """A position in `tokens`, by default the tokens `scan` reads of
    `source[start:end]`, with errors spanned in `file`."""

    def __init__(self, source: str, file: str, start: int = 0,
                 end: int | None = None, token_re: re.Pattern = _TOKEN_RE,
                 tokens: list[Token] | None = None):
        self.tokens = (scan(source, file, start, end, token_re)
                       if tokens is None else tokens)
        self.pos, self.source, self.file = 0, source, file

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
        return ParseError(message, _span(self.source, self.file, tok.offset),
                          expected)

    def at_sym(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == "sym" and tok.text == text

    def expect_sym(self, text: str) -> Token:
        if self.at_sym(text):
            return self.next()
        raise self.unexpected(f"'{text}'")

    def expect_ident(self, what: str) -> Token:
        tok = self.peek()
        if tok.kind == "ident" and tok.text not in _KEYWORDS:
            return self.next()
        raise self.unexpected(what)

    def unexpected(self, what: str,
                   end: str = "unexpected end of input") -> ParseError:
        """The error for the next token where `what` was expected; `end`
        is what it says at the end of the list."""
        tok = self.peek()
        return self.fail(f"found {tok.text!r}" if tok.kind != "eof" else end,
                         tok, expected=(what,))


# ---------------------------------------------------------------------------
# Type inference plumbing


class _Mismatch(Exception):
    pass


class _Ty(NamedTuple):
    """A type the unifier made, read like a `SimpleType` but cheaper to
    build."""
    name: str
    args: Sequence = ()


class _Unifier:
    """Unifier over `_Ty`s and the parse's shared `SimpleType`s; inference
    variables are primed names starting with ``'?``.  `subst` binds a
    variable to a type that may mention other bound variables; bindings
    are followed one level at a time, and a type is resolved in full only
    where it is written out."""

    def __init__(self) -> None:
        self.subst: dict[str, SimpleType | _Ty] = {}
        self.counter = 0

    def fresh(self) -> _Ty:
        self.counter += 1
        return _new(_Ty, (f"'?{self.counter}", ()))

    def _occurs(self, name: str, t: SimpleType) -> bool:
        subst, stack = self.subst, [t]
        while stack:
            t = stack.pop()
            while t.name in subst:
                t = subst[t.name]
            if t.name == name:
                return True
            stack += t.args
        return False

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
            if b.args and self._occurs(a.name, b):
                raise _Mismatch()
            subst[a.name] = b
        elif b.name[0] == "'":
            if a.args and self._occurs(b.name, a):
                raise _Mismatch()
            subst[b.name] = a
        elif a.name != b.name or len(a.args) != len(b.args):
            raise _Mismatch()
        else:
            for x, y in zip(a.args, b.args):
                if x is not y:
                    self.unify(x, y)


class _Tables:
    """The shared nodes of one parse.  Each distinct type and term is
    built once and found again here:

    - a type by its name and the ids of its canonical argument types;
    - a leaf term by its class, name and the id of its canonical type;
    - an application by the ids of its function and argument.

    Keying by id is sound only because every id is of an object that the
    table itself keeps alive, as a value or inside one.  A constant's
    instance is not kept: it is walked into these types like any other
    type the unifier made.  One `_Tables` serves one `parse_theory` or
    `parse_goal_expr` call and is dropped with it."""

    def __init__(self) -> None:
        self.types: dict[tuple, SimpleType] = {}
        self.terms: dict[tuple, Term] = {}
        self.declared: dict[str, SimpleType] = {}
        self.bool = self.type("bool")

    def type(self, name: str, args: tuple[SimpleType, ...] = ()) -> SimpleType:
        """The shared type `name` over the shared types `args`."""
        key = (name, *map(id, args))
        out = self.types.get(key)
        if out is None:
            out = self.types[key] = SimpleType(name, args)
        return out


_CANON_POOL = [f"'{c}" for c in "abcdefghijklmnopqrstuvwxyz"]


class _Renamer:
    """Called on types, it resolves their inference variables and renames
    the left-over ones to 'a, 'b, ... in the order it first meets them,
    visiting each type object once.  What it returns is the parse's
    shared type, from `tables`, as is each `SimpleType` it meets.  A
    constant's instance is written out as a variable's type is: by one
    walk that meets its variables left to right.  No declared type
    variable such as 'a can be met: every type in a parsed term comes
    from a fresh variable, an instance or a ground type.

    It is an object, not a recursive closure: a closure that calls itself
    is a reference cycle, which would keep the tables, and with them the
    parsed theory, alive until the cycle collector runs."""

    def __init__(self, uni: _Unifier, tables: _Tables) -> None:
        self.subst = uni.subst
        self.tables = tables
        self.renamed = 0
        self.done: dict[int, SimpleType] = {}

    def __call__(self, ty: SimpleType) -> SimpleType:
        done = self.done
        out = done.get(id(ty))
        if out is None:
            t, subst, tables = ty, self.subst, self.tables
            while t.name in subst:
                t = subst[t.name]
            out = done.get(id(t))
            if out is None:
                if type(t) is SimpleType:
                    out = t
                elif t.args:
                    out = tables.type(t.name, tuple(map(self, t.args)))
                else:  # a `_Ty` leaf is an inference variable
                    i = self.renamed
                    self.renamed += 1
                    out = tables.type(_CANON_POOL[i] if i < len(_CANON_POOL)
                                      else f"'v{i}")
                done[id(t)] = out
            done[id(ty)] = out
        return out


# A term is parsed into raw nodes: an application is a ``(fun, arg)`` pair,
# and a leaf a ``(FreeVar, SchematicVar or Const, name, type)`` triple
# whose type is the unifier's.
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
    cls, name = raw[0], raw[1]
    ty = canon(raw[2])
    key = (cls, name, id(ty))
    out = terms.get(key)
    if out is None:
        out = terms[key] = cls(name, ty)
    return out


def _term(raw: Raw) -> Term:
    """The term of `raw` without types, for an error message."""
    if len(raw) == 2:
        return App(_term(raw[0]), _term(raw[1]))
    return raw[0](raw[1], None)


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


def _parse_type(ts: Cursor, known: dict[str, int],
                tables: _Tables) -> SimpleType:
    """A type, built of the shared types of `tables`."""
    left = _parse_type_postfix(ts, known, tables)
    if ts.at_sym(FUN):
        ts.next()
        return tables.type(FUN, (left, _parse_type(ts, known, tables)))
    return left


def _parse_type_postfix(ts: Cursor, known: dict[str, int],
                        tables: _Tables) -> SimpleType:
    args: list[SimpleType]
    tok = ts.peek()
    if tok.kind == "tyvar":
        ts.next()
        args = [tables.type(tok.text)]
    elif ts.at_sym("("):
        ts.next()
        args = [_parse_type(ts, known, tables)]
        while ts.at_sym(","):
            ts.next()
            args.append(_parse_type(ts, known, tables))
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
        args = [tables.type(tok.text)]
    else:
        raise ts.unexpected("type", "unexpected end of type")
    while ts.peek().kind == "ident":
        name_tok = ts.next()
        _check_type_name(ts, name_tok, len(args), known)
        args = [tables.type(name_tok.text, tuple(args))]
    return args[0]


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


# the binding level of each infix operator, all right-associative
_INFIX = {IMPLIES: 0, "=": 1, "#": 2, "@": 2}
# what an argument starts with: a token kind, or a symbol
_ATOMS = {"ident", "num", "schem", "(", "["}
# the largest numeral read; a numeral is a term of that many `Suc`s
MAX_NUMERAL = 10_000


class _TermParser(Cursor, _Unifier):
    """Precedence-climbing term parser with on-the-fly type inference: a
    cursor over the tokens of one quoted text, and their unifier.

    Every production returns a ``(raw, type)`` pair: a raw node, and its
    type in the unifier's world, which is only written into a term by
    `_canonicalise`.  `bind_unknown` controls what happens to identifiers
    that are not declared constants and to schematic variables: in goal
    position they become free and schematic variables, in the right-hand
    side of an equation they are an error.
    """

    def __init__(self, sig: Theory | _Signature, tables: _Tables,
                 source: str, file: str, start: int = 0,
                 end: int | None = None):
        Cursor.__init__(self, source, file, start, end)
        self.sig, self.tables, self.bool = sig, tables, tables.bool
        _Unifier.__init__(self)
        self.env: dict[str, SimpleType] = {}
        self.schem_env: dict[str, SimpleType] = {}
        self.bind_unknown = True

    def parse(self, level: int = 0) -> tuple[Raw, SimpleType]:
        """A term whose infix operators bind at `level` or tighter."""
        left, lty = self.parse_app()
        while True:
            tok = self.tokens[self.pos]
            op = _INFIX.get(tok.text) if tok.kind == "sym" else None
            if op is None or op < level:
                return left, lty
            self.pos += 1
            right, rty = self.parse(op)
            if op == 2:
                leaf, inst = self.constant(tok.text)
                self.require(left, lty, inst.args[0], tok)
                self.require(right, rty, inst.args[1].args[0], tok)
                lty = inst.args[1].args[1]
            elif op == 1:
                self.require(right, rty, lty, tok)
                leaf = self.constant("eq", {"'a": lty})[0]
                lty = self.bool
            else:
                self.require(left, lty, self.bool, tok)
                self.require(right, rty, self.bool, tok)
                leaf, lty = self.constant(IMPLIES)[0], self.bool
            left = ((leaf, left), right)

    def parse_app(self) -> tuple[Raw, SimpleType]:
        t, ty = self.parse_atom()
        tokens, subst = self.tokens, self.subst
        while True:
            tok = tokens[self.pos]
            if (tok.text if tok.kind == "sym" else tok.kind) not in _ATOMS:
                return t, ty
            arg, arg_ty = self.parse_atom()
            fun_ty = ty
            while fun_ty.name in subst:
                fun_ty = subst[fun_ty.name]
            try:
                if fun_ty.name == FUN:
                    # a known arrow: its codomain is the result type
                    self.unify(fun_ty.args[0], arg_ty)
                    ty = fun_ty.args[1]
                else:
                    ty = self.fresh()
                    self.unify(fun_ty, _Ty(FUN, (arg_ty, ty)))
            except _Mismatch:
                name = _Renamer(self, self.tables)
                raise self.fail(
                    f"cannot apply {format_term(_term(t))} "
                    f"(type {format_type(name(fun_ty))}) "
                    f"to {format_term(_term(arg))}", tok)
            t = (t, arg)

    def parse_atom(self) -> tuple[Raw, SimpleType]:
        tok = self.tokens[self.pos]
        kind, text = tok.kind, tok.text
        if (text if kind == "sym" else kind) not in _ATOMS:
            raise self.unexpected("term", "unexpected end of term")
        self.pos += 1
        if kind == "ident":
            # a name in `env` is no constant: the signature does not
            # change while one text is parsed
            ty = self.env.get(text)
            if ty is None:
                if self.sig.const_scheme(text) is not None:
                    return self.constant(text)
                if not self.bind_unknown:
                    raise self.fail(f"unknown constant {text}", tok)
                ty = self.env[text] = self.fresh()
            return (FreeVar, text, ty), ty
        if kind == "num":
            # leading zeros, in any script, are stripped first: `int`
            # refuses a text of more than 4,300 digits
            start = 0
            while start < len(text) - 1 and int(text[start]) == 0:
                start += 1
            value = text[start:]
            if len(value) > len(str(MAX_NUMERAL)) or int(value) > MAX_NUMERAL:
                if len(text) > 20:
                    text = f"{text[:20]}... ({len(text)} digits)"
                raise self.fail(f"numeral {text} is larger than {MAX_NUMERAL}",
                                tok)
            t, ty = self.constant("0")
            suc = self.constant("Suc")[0]
            for _ in range(int(value)):
                t = (suc, t)
            return t, ty
        if kind == "schem":
            if not self.bind_unknown:
                raise self.fail(
                    f"schematic variable {text} on the right-hand side", tok)
            ty = self.schem_env.get(text)
            if ty is None:
                ty = self.schem_env[text] = self.fresh()
            return (SchematicVar, text[1:], ty), ty
        if text == "[":
            return self._list_literal(tok)
        inner = self.parse()
        self.expect_sym(")")
        return inner

    def constant(self, name: str, images: dict | None = None
                 ) -> tuple[Raw, SimpleType]:
        """The constant `name` at an instance of its scheme, each type
        variable replaced by its image in `images` or a fresh one."""
        ty = self.instance(self.sig.const_scheme(name), images or {})
        return (Const, name, ty), ty

    def instance(self, scheme: SimpleType,
                 images: dict[str, SimpleType]) -> SimpleType:
        """`scheme` with each leaf replaced by its image in `images`; a
        type variable's is made a fresh inference variable and a type
        constant's its shared type where the walk first meets it."""
        if scheme.args:
            return _new(_Ty, (scheme.name, tuple([
                self.instance(a, images) for a in scheme.args])))
        out = images.get(scheme.name)
        if out is None:
            out = images[scheme.name] = self.fresh() \
                if scheme.name[0] == "'" else self.tables.type(scheme.name)
        return out

    def _list_literal(self, tok: Token) -> tuple[Raw, SimpleType]:
        items: list[tuple[Raw, SimpleType]] = []
        if not self.at_sym("]"):
            items.append(self.parse())
            while self.at_sym(","):
                self.pos += 1
                items.append(self.parse())
        self.expect_sym("]")
        result, list_ty = self.constant("[]")
        elem = list_ty.args[0]
        cons = self.constant("#", {"'a": elem})[0]
        for item, ity in reversed(items):
            self.require(item, ity, elem, tok)
            result = ((cons, item), result)
        return result, list_ty

    def require(self, t: Raw, actual: SimpleType, expected: SimpleType,
                tok: Token) -> None:
        try:
            self.unify(actual, expected)
        except _Mismatch:
            name = _Renamer(self, self.tables)
            raise self.fail(
                f"type mismatch: {format_term(_term(t))} has type "
                f"{format_type(name(actual))}, expected "
                f"{format_type(name(expected))}", tok)


# ---------------------------------------------------------------------------
# Declarations


class _Signature:
    """The constants declared so far while a theory is parsed: their type
    schemes by name, and which of them are constructors.  It answers the
    term parser's lookups the way the `Theory` of the declarations so far
    would, without building one per declaration."""

    def __init__(self) -> None:
        self.schemes: dict[str, SimpleType] = dict(EXTRA_CONST_SCHEMES)
        self.const_scheme = self.schemes.get
        self.constructors: set[str] = set()
        for f in PRELUDE_FUNDEFS.values():
            self.schemes[f.name] = f.type
        for d in PRELUDE_DATATYPES.values():
            self.add_datatype(d)

    def add_datatype(self, d: DatatypeDef) -> None:
        for c in d.constructors:
            self.schemes[c.name] = d.constructor_type(c)
            self.constructors.add(c.name)


def parse_theory(source: str, file: str = "<string>",
                 goals: Collection[str] | None = None, *,
                 texts: Sequence[str] = ()) -> Theory:
    """Parse a theory file.  Raises ParseError on syntax violations,
    duplicate names, unknown constants/types, or ill-typed equations.

    `goals` names the lemmas whose statements are parsed; None, the
    default, means every lemma and every definition.  Every other lemma
    is still declared, so its name is checked and taken, and its
    statement must be quoted, but the text inside the quotes is not read
    and the theory leaves it out.  No declaration can refer to a lemma.

    Unless `goals` is None, only the definitions reached from the
    requested statements and from `texts`, the other texts the caller
    will read against the theory, have their equations parsed (see
    `_closure`).  Every other definition is still declared with its type,
    and its equations must be quoted, but the theory leaves it out and
    names it in its `unread`.

    The error raised is the file's first lexical error outside quotes,
    else its first error in file order in what the request reads.  Reach
    is found before the first malformed declaration: in a file with two
    errors, a lemma after it reaches no definition."""
    source = _blanked(source.replace("\r\n", "\n"))
    try:
        return _read_matches(source, file, goals, texts,
                             *_declarations(source))
    except (ParseError, RecursionError):
        scan(source, file)  # raises the first lexical error, if any
        raise


class _Reader:
    """A theory being read: the declarations read so far, and the names,
    types and constants they declare.  Its methods do the work of one
    declaration once the top level has found its parts."""

    def __init__(self, source: str, file: str) -> None:
        self.source, self.file = source, file
        self.datatypes: list[DatatypeDef] = []
        self.fundefs: list[FunDef] = []
        self.lemmas: list[Goal] = []
        self.unread: set[str] = set()
        # the offset of the last lemma read, and its line
        self.at, self.line = 0, 1
        self.known_types = {"nat": 0, "list": 1, "bool": 0}
        self.declared = set(PRELUDE_NAMES)
        self.sig = _Signature()
        self.tables = _Tables()

    def fail(self, message: str, offset: int) -> ParseError:
        return ParseError(message, _span(self.source, self.file, offset))

    def quoted(self, tok: Token) -> tuple[str, str, int, int]:
        """The source, file, start and end of the text between the quotes
        of `tok`: the first arguments of a cursor over it."""
        start = tok.offset + 1
        return self.source, self.file, start, start + len(tok.text)

    def declare(self, name: str, offset: int) -> None:
        if name in self.declared:
            raise self.fail(f"duplicate name {name}", offset)
        self.declared.add(name)

    def datatype(self, d: DatatypeDef) -> None:
        self.datatypes.append(d)
        self.known_types[d.name] = len(d.params)
        self.sig.add_datatype(d)

    def signature(self, name: str, offset: int, ty: str,
                  at: int) -> SimpleType:
        """Declare `name`, at `offset`, with the type `ty` at `at`."""
        # a type text read once reads the same later: types are only added
        declared_ty = self.tables.declared.get(ty)
        if declared_ty is None:
            ts = Cursor(self.source, self.file, at, at + len(ty))
            declared_ty = _parse_type(ts, self.known_types, self.tables)
            if ts.peek().kind != "eof":
                raise ts.fail("trailing tokens in type")
            self.tables.declared[ty] = declared_ty
        self.declare(name, offset)
        # the new constant is visible inside its own equations
        self.sig.schemes[name] = declared_ty
        return declared_ty

    def definition(self, kw: str, name: str, ty: SimpleType,
                   quoted: Iterable[Token]) -> None:
        """The definition `name` of type `ty` with the quoted equations."""
        equations: list[Equation] = []
        arity: int | None = None
        for eq_tok in quoted:
            eq, n_args = _parse_equation(self, eq_tok, name)
            if arity is None:
                arity = n_args
            elif arity != n_args:
                raise self.fail(f"equation has {n_args} argument(s), "
                                f"earlier ones have {arity}", eq_tok.offset)
            equations.append(eq)
        self.fundefs.append(FunDef(name, ty, tuple(equations), kw == "fun"))

    def lemma(self, at: int, name: str, prop: Token) -> None:
        """The lemma `name` at offset `at`, declared already, with the
        statement quoted in `prop`.  Its line is counted on from that of
        the last lemma read."""
        term = _parse_prop(_TermParser(self.sig, self.tables,
                                       *self.quoted(prop)))
        premises, conclusion = split_implications(term)
        self.line += self.source.count("\n", self.at, at)
        self.at = at
        self.lemmas.append(Goal(name, premises, conclusion, line=self.line))

    def theory(self) -> Theory:
        return Theory(tuple(self.datatypes), tuple(self.fundefs),
                      tuple(self.lemmas), frozenset(self.unread))


# -- the top level, one match per declaration ------------------------------

_NOT_NEWLINE = re.compile(r"[^\n]")


def _blanked(source: str) -> str:
    """`source` with each comment outside quotes, which may nest, made
    spaces, keeping every offset and newline.  A comment is found by its
    ``*``, rarer than ``(``.  An unterminated comment or quote and all
    after it are left for `scan` to report."""
    pieces: list[str] = []
    done = out = 0  # the end of the text copied; a place outside quotes
    star = source.find("*", 1)
    while star > 0:
        i = star - 1
        if source[i] != "(":
            star = source.find("*", star + 1)
        elif source.count('"', out, i) % 2:  # the ``(*`` is quoted
            out = source.find('"', star) + 1
            star = source.find("*", out) if out else -1
        else:
            depth = 1
            while depth and (star := source.find("*", star + 1)) > 0:
                if source[star - 1] == "(":
                    depth += 1
                elif source.startswith(")", star + 1):
                    depth -= 1
            if depth:
                break
            star += 2
            pieces += source[done:i], _NOT_NEWLINE.sub(" ", source[i:star])
            done = out = star
            star = source.find("*", star)
    return "".join(pieces) + source[done:]


_WORD = "[a-zA-Z0-9_']"  # a character that continues an identifier
_KEYWORD = rf"(?:{'|'.join(_TOP_LEVEL)})(?!{_WORD})"  # a whole token
_NAME = rf"(?!{_KEYWORD}|where(?!{_WORD}))[a-zA-Z_]{_WORD}*"  # no keyword
_DECLARATION = re.compile(
    rf"\s*(?:(?P<fun>fun|primrec)\s+(?P<fname>{_NAME})\s*::\s*"
    r'"(?P<type>[^"]*)"\s*where\s*(?P<eqs>"[^"]*"(?:\s*\|\s*"[^"]*")*)'
    r"(?!\s*\|)"
    rf'|(?P<lemma>lemma)\s+(?P<lname>{_NAME})\s*:\s*"(?P<stmt>[^"]*)"'
    # up to the next keyword, quote or comment; `next` is the token there
    rf"|(?P<datatype>datatype(?!{_WORD})(?:[^\"(?a-zA-Z0-9_']+|\((?!\*)"
    rf"|\?{_WORD}*|(?!{_KEYWORD}){_WORD}+)*)"
    r'(?:(?=(?P<next>"[^"]*"|[a-z]+)))?'
    r"|\Z)")
_QUOTED = re.compile(r'"([^"]*)"')


def _declarations(source: str) -> tuple[list[re.Match], int]:
    """The `_DECLARATION` matches that read the `_blanked` `source` from
    its start, one per declaration, and the offset where they stop: at a
    malformed declaration, or at the length of `source`."""
    matches: list[re.Match] = []
    pos = 0
    # the end of the source, after the last declaration, matches no group
    while (m := _DECLARATION.match(source, pos)) is not None and m.lastindex:
        matches.append(m)
        pos = m.end()
    return matches, len(source) if m is not None else pos


def _read_matches(source: str, file: str, goals: Collection[str] | None,
                  texts: Sequence[str], matches: list[re.Match],
                  end: int) -> Theory:
    """The theory of `source`, whose declarations before `end` are
    `matches`, each read by its groups, less what a request skips: an
    unread lemma or unreached definition is only declared.  A datatype's
    span is read with the keyword or quote after it, which an error may
    name, and must be read to its end.  A cursor reads on from `end`: in
    a file that is not well-formed, its first declaration raises."""
    r = _Reader(source, file)
    reach = None
    groups = [m.groups() for m in matches]
    if goals is not None:
        # a definition's equations are one text here, with their quotes and
        # bars, which hold no identifier
        equations: dict[str, list[str]] = {}
        named = list(texts)
        for kw, fname, _, eqs, lemma, lname, stmt, _, _ in groups:
            if kw:
                equations.setdefault(fname, []).append(eqs)
            elif lemma and lname in goals:
                named.append(stmt)
        reach = _closure(equations, named)
    for m, (kw, fname, ty_text, _, lemma, lname, stmt, _, _) in zip(
            matches, groups):
        if kw:
            ty = r.signature(fname, m.start("fname"), ty_text, m.start("type"))
            if reach is None or fname in reach:
                r.definition(kw, fname, ty, [
                    _new(Token, ("quoted", q[1], q.start()))
                    for q in _QUOTED.finditer(source, *m.span("eqs"))])
            else:
                r.unread.add(fname)
        elif lemma:
            r.declare(lname, m.start("lname"))
            if goals is None or lname in goals:
                r.lemma(m.start("lemma"), lname,
                        _new(Token, ("quoted", stmt, m.start("stmt") - 1)))
        else:
            start, stop = m.span("datatype")
            p = Cursor(source, file, start, max(stop, m.end("next")))
            r.datatype(_parse_datatype(p, r))
            if p.peek().offset < stop:
                raise p.fail(f"found {p.peek().text!r}", expected=_TOP_LEVEL)
    p = Cursor(source, file, end)
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "ident" or tok.text not in _TOP_LEVEL:
            raise p.fail(f"found {tok.text!r}", expected=_TOP_LEVEL)
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


# the identifiers of a quoted text, as `scan` reads them
_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_']*")


def _closure(equations: dict[str, list[str]], named: list[str]) -> set[str]:
    """The definitions, among the keys of `equations`, that the `named`
    texts reach: a definition is reached if its name occurs as an
    identifier in a named text or in the equation texts of a reached
    definition.  An identifier that is a variable only adds a definition
    of that name."""
    reach: set[str] = set()
    while named:
        for ident in _IDENT_RE.findall(named.pop()):
            if ident in equations and ident not in reach:
                reach.add(ident)
                named += equations[ident]
    return reach


def _parse_datatype(p: Cursor, r: _Reader) -> DatatypeDef:
    p.next()  # 'datatype'
    name_tok = p.expect_ident("datatype name")
    r.declare(name_tok.text, name_tok.offset)
    params: list[str] = []
    while p.peek().kind == "tyvar":
        tv = p.next()
        if tv.text in params:
            raise p.fail(f"duplicate type parameter {tv.text}", tv)
        params.append(tv.text)
    p.expect_sym("=")
    # the datatype may appear recursively in its own constructors
    local_types = dict(r.known_types)
    local_types[name_tok.text] = len(params)
    ctors: list[Constructor] = []
    while True:
        ctor_tok = p.expect_ident("constructor name")
        r.declare(ctor_tok.text, ctor_tok.offset)
        args: list[SimpleType] = []
        while ((p.peek().kind == "ident" and p.peek().text not in _KEYWORDS)
               or p.peek().kind == "tyvar" or p.at_sym("(")):
            args.append(_parse_ctor_arg(p, local_types, params, r.tables))
        ctors.append(Constructor(ctor_tok.text, tuple(args)))
        if p.at_sym("|"):
            p.next()
            continue
        break
    return DatatypeDef(name_tok.text, tuple(params), tuple(ctors))


def _parse_ctor_arg(p: Cursor, known: dict[str, int], params: list[str],
                    tables: _Tables) -> SimpleType:
    tok = p.peek()
    if tok.kind == "tyvar":
        p.next()
        if tok.text not in params:
            raise p.fail(f"type variable {tok.text} is not a parameter", tok)
        return tables.type(tok.text)
    if tok.kind == "ident":
        p.next()
        if known.get(tok.text) != 0:
            raise p.fail(
                f"unknown type {tok.text}" if tok.text not in known
                else f"type {tok.text} needs arguments (use parentheses)",
                tok)
        return tables.type(tok.text)
    # a parenthesised compound type: the tokens before the matching `)`,
    # `t`, and the `eof` at `t` with which a scan of their text would end;
    # a top-level keyword or a quote ends it unterminated
    p.expect_sym("(")
    start, depth = p.pos, 1
    while depth > 0:
        t = p.next()
        if t.kind in ("eof", "quoted") or t.text in _TOP_LEVEL:
            raise p.fail("unterminated type", tok)
        if t.kind == "sym" and t.text == "(":
            depth += 1
        elif t.kind == "sym" and t.text == ")":
            depth -= 1
    ts = Cursor(p.source, p.file, tokens=p.tokens[start:p.pos - 1]
                + [Token("eof", "", t.offset)])
    ty = _parse_type(ts, known, tables)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in type")
    for tv in type_vars(ty):
        if tv not in params:
            raise p.fail(f"type variable {tv} is not a parameter", tok)
    return ty


def _parse_fundef(p: Cursor, r: _Reader
                  ) -> tuple[str, str, SimpleType, Iterator[Token]]:
    """The arguments of `_Reader.definition` for the definition at `p`,
    which is declared with its type."""
    kw = p.next()  # 'fun' | 'primrec'
    name_tok = p.expect_ident("function name")
    p.expect_sym("::")
    ty_tok = p.peek()
    if ty_tok.kind != "quoted":
        raise p.fail("found unquoted type", ty_tok, expected=('"<type>"',))
    p.next()
    ty = r.signature(name_tok.text, name_tok.offset, ty_tok.text,
                     ty_tok.offset + 1)
    if p.peek().kind != "ident" or p.peek().text != "where":
        raise p.unexpected("'where'")
    p.next()
    return kw.text, name_tok.text, ty, _equation_tokens(p)


def _equation_tokens(p: Cursor) -> Iterator[Token]:
    """The quoted equations at `p`, separated by ``|``, each checked to be
    quoted when it is reached."""
    while True:
        eq_tok = p.peek()
        if eq_tok.kind != "quoted":
            raise p.fail("found unquoted equation", eq_tok,
                         expected=('"<equation>"',))
        p.next()
        yield eq_tok
        if not p.at_sym("|"):
            return
        p.next()


def _parse_equation(r: _Reader, quoted: Token,
                    fn_name: str) -> tuple[Equation, int]:
    """An equation of `fn_name` and the number of its arguments."""
    sig, tables = r.sig, r.tables
    ts = _TermParser(sig, tables, *r.quoted(quoted))
    # left-hand side: unknown identifiers become pattern variables
    lhs, lhs_ty = ts.parse(2)
    ts.expect_sym("=")
    ts.bind_unknown = False
    rhs, rhs_ty = ts.parse(2)
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in equation")

    head, args = _spine(lhs)
    if not (head[0] is Const and head[1] == fn_name):
        raise r.fail(f"equation must define {fn_name}", quoted.offset)
    error = _pattern_error(args, sig)
    if error:
        raise r.fail(error, quoted.offset)
    try:
        ts.unify(lhs_ty, rhs_ty)
    except _Mismatch:
        raise r.fail("ill-typed equation: left and right sides disagree",
                     quoted.offset)
    # both sides share one variable pool, named in the order of the goal
    # ``lhs = rhs``, whose `=` constant's type comes first
    canon = _Renamer(ts, tables)
    canon(lhs_ty)
    return Equation(_canonicalise(lhs, canon, tables.terms),
                    _canonicalise(rhs, canon, tables.terms)), len(args)


def _pattern_error(args: list[Raw], sig: _Signature) -> str | None:
    """What is wrong with the argument patterns `args`, if anything."""
    seen_vars: set[str] = set()
    stack = args[::-1]
    while stack:
        r = stack.pop()
        if r[0] is FreeVar:
            if r[1] in seen_vars:
                return f"duplicate pattern variable {r[1]}"
            seen_vars.add(r[1])
            continue
        head, sub = _spine(r)
        if not (head[0] is Const and head[1] in sig.constructors):
            return "patterns must be constructor patterns or variables"
        stack += sub[::-1]
    return None


def _parse_lemma(p: Cursor, r: _Reader) -> tuple[int, str, Token]:
    """The arguments of `_Reader.lemma` for the lemma at `p`, which is
    declared."""
    lemma_tok = p.next()  # 'lemma'
    name_tok = p.expect_ident("lemma name")
    r.declare(name_tok.text, name_tok.offset)
    p.expect_sym(":")
    prop_tok = p.peek()
    if prop_tok.kind != "quoted":
        raise p.fail("found unquoted proposition", prop_tok,
                     expected=('"<prop>"',))
    p.next()
    return lemma_tok.offset, name_tok.text, prop_tok


def _parse_prop(ts: _TermParser) -> Term:
    start = ts.peek()
    term, ty = ts.parse()
    if ts.peek().kind != "eof":
        raise ts.fail("trailing tokens in proposition")
    try:
        ts.unify(ty, ts.bool)
    except _Mismatch:
        raise ts.fail("goal must be propositional", start)
    return _canonicalise(term, _Renamer(ts, ts.tables), ts.tables.terms)


def parse_goal_expr(source: str, ctx: Theory,
                    file: str = "<expr>") -> Term:
    """Parse a standalone boolean proposition over `ctx`'s signature.  An
    identifier that names a definition `ctx` left out (its `unread`) is
    an error: read as a variable, it would make a different goal."""
    ts = _TermParser(ctx, _Tables(), source.replace("\r\n", "\n"), file)
    for tok in ts.tokens:
        if tok.kind == "ident" and tok.text in ctx.unread:
            raise ts.fail(f"definition {tok.text} was left out of the "
                          "theory; pass this text in parse_theory's texts",
                          tok)
    return _parse_prop(ts)


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
