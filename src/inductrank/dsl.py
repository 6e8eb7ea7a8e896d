"""A quantified heuristic language over goals and induct arguments.

Formulas quantify over four sorts: natural numbers, induction rule names,
terms, and term occurrences.  Quantification over occurrences can be
restricted to the occurrences of a term variable's value, and
quantification over terms to the candidate's induction terms.  Atomic
assertions inspect the goal's application structure and the candidate's
argument fields; connectives are classical.

Concrete syntax (ASCII forms; the Unicode connective and quantifier
symbols are accepted as aliases)::

    EX x : sort [in <restriction>]. <formula>
    ALL x : sort [in <restriction>]. <formula>
    <f> --> <f>     <f> & <f>     <f> | <f>     ! <f>     ( <f> )
    True
    name (arg, ...)            prefix atom
    arg name arg               infix binary atom

Sorts are ``number``, ``rule``, ``term``, ``term_occurrence``.
Restrictions: ``in t : term`` on occurrence quantifiers (occurrences of
the term bound to ``t``), ``in induction_term`` on term quantifiers.
Quantifier bodies extend as far right as possible; parenthesise the
antecedent of an implication when it is quantified.

A heuristic suite file is a sequence of named blocks::

    heuristic <name>:
    <formula>

Comments are ``(* ... *)``.
"""

from __future__ import annotations

import enum
import re
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, Union

from .parser import Cursor, Token
from .schemes import RULE_SUFFIX, rule_fundef
from .tactic import Candidate
from .terms import (
    Const, FreeVar, Goal, Occurrence, SimpleType, Term, Theory, Tree,
    all_occurrences, goal_free_variables, spine, term_type,
)


class Sort(enum.Enum):
    NUMBER = "number"
    RULE = "rule"
    TERM = "term"
    OCCURRENCE = "term_occurrence"


class Unrestricted(Tree):
    __slots__ = ()


class OccurrencesOf(Tree):
    __slots__ = _fields = ("term_var",)


class InductionTerms(Tree):
    __slots__ = ()


Restriction = Union[Unrestricted, OccurrencesOf, InductionTerms]

UNRESTRICTED = Unrestricted()
INDUCTION_TERMS = InductionTerms()


class TrueF(Tree):
    __slots__ = ()


class Not(Tree):
    __slots__ = _fields = ("body",)


class And(Tree):
    __slots__ = _fields = ("left", "right")


class Or(Tree):
    __slots__ = _fields = ("left", "right")


class Implies(Tree):
    __slots__ = _fields = ("left", "right")


class Exists(Tree):
    __slots__ = _fields = ("var", "sort", "restriction", "body")


class Forall(Tree):
    __slots__ = _fields = ("var", "sort", "restriction", "body")


class Atom(Tree):
    __slots__ = _fields = ("name", "args")


Formula = Union[TrueF, Not, And, Or, Implies, Exists, Forall, Atom]

TRUE = TrueF()

# assertion name -> argument sorts
ATOM_SIGNATURES: dict[str, tuple[Sort, ...]] = {
    "is_rule_of": (Sort.RULE, Sort.OCCURRENCE),
    "is_nth_argument_of": (Sort.OCCURRENCE, Sort.NUMBER, Sort.OCCURRENCE),
    "is_nth_induction_term": (Sort.TERM, Sort.NUMBER),
    "is_free_variable": (Sort.TERM,),
    "is_constant": (Sort.TERM,),
    "is_in_arbitrary": (Sort.TERM,),
    "is_of_datatype": (Sort.TERM,),
    "occurs_in_conclusion": (Sort.OCCURRENCE,),
    "is_recursive_constant": (Sort.TERM,),
    "same_term": (Sort.OCCURRENCE, Sort.TERM),
}


# ---------------------------------------------------------------------------
# Evaluation context


class GoalIndex:
    """Goal-level quantifier domains and lookups, built once per goal.

    Every candidate of a goal shares one index: the goal's distinct
    sub-terms (the term domain), its occurrences (the occurrence domain),
    the occurrences grouped by term (the ``in t : term`` restriction), the
    widest application (the number domain's floor), the goal's free
    variables by name, and the recursive constants looked up so far.  It
    keeps no induction schemes: a rule is a name here.

    `memo` keeps the verdicts of the candidate-independent quantifiers
    that `compile_formula` memoises, for every candidate evaluated with
    this index.  It lives and dies with the index: nothing in it outlives
    the goal.
    """

    def __init__(self, goal: Goal, thy: Theory):
        self.goal = goal
        self.thy = thy
        self.occurrences = tuple(all_occurrences(goal))
        by_term: dict[Term, list[Occurrence]] = {}
        for occ in self.occurrences:
            by_term.setdefault(occ.term, []).append(occ)
        self.terms = tuple(by_term)
        self.occurrences_by_term = {t: tuple(os) for t, os in by_term.items()}
        self.arity_bound = max(len(spine(t)[1]) for t in self.terms)
        self.variables = {v.name: v for v in goal_free_variables(goal)}
        self._recursive: dict[str, bool] = {}
        self.memo: dict[tuple, bool] = {}

    def is_recursive(self, name: str) -> bool:
        """Whether `name` is a recursively defined constant."""
        if name not in self._recursive:
            f = self.thy.fundef(name)
            self._recursive[name] = f is not None and f.is_recursive()
        return self._recursive[name]


class EvalContext(NamedTuple):
    """Finite quantifier domains for one (goal, candidate) pair.

    The goal-level domains live in the shared `index`; the context adds
    what depends on the candidate: its induction terms (resolved to the
    goal's variables), its ``arbitrary`` set (read through `candidate`),
    its rule name, if it resolves (`schemes.rule_fundef`), and the number
    bound, which grows with the number of induction terms.  A verdict
    depends on the candidate through those three fields only.
    """

    index: GoalIndex
    candidate: Candidate
    number_bound: int
    rules: tuple[str, ...]
    induction_terms: tuple[Term, ...]


def make_context(goal: Goal, candidate: Candidate, thy: Theory,
                 index: GoalIndex | None = None) -> EvalContext:
    """The context of one candidate.  Pass the goal's `index` when scoring
    many candidates of one goal; without it one is built for this call."""
    if index is None:
        index = GoalIndex(goal, thy)
    rule = candidate.rule
    resolves = rule is not None and rule_fundef(rule, index.thy) is not None
    variables = index.variables
    ind_terms = tuple(
        variables[n] if n in variables else FreeVar(n, SimpleType("'a"))
        for n in candidate.induction_terms)
    return EvalContext(
        index=index,
        candidate=candidate,
        number_bound=max(index.arity_bound, len(candidate.induction_terms), 1),
        rules=(rule,) if resolves else (),
        induction_terms=ind_terms,
    )


def _term_sets(candidates: Sequence[Candidate]) -> list[frozenset]:
    # one set per distinct tuple of terms, shared by the candidates with it
    terms = [c.induction_terms for c in candidates]
    sets = {t: frozenset(t) for t in set(terms)}
    return list(map(sets.__getitem__, terms))


# what a verdict can depend on in the candidate, by name, each read as a
# column of values, one per candidate; everything else an assertion reads
# is fixed by the goal.  The ordered terms are read by
# ``is_nth_induction_term`` alone; ``ALL``/``EX t : term in induction_term``
# read the set, since their verdict is blind to the terms' order.
CANDIDATE_READS: dict[str, Callable[[Sequence[Candidate]], list]] = {
    "induction_terms": lambda cs: [c.induction_terms for c in cs],
    "induction_term_set": _term_sets,
    "induction_term_count": lambda cs: [len(c.induction_terms) for c in cs],
    "arbitrary": lambda cs: [c.arbitrary for c in cs],
    "rule": lambda cs: [c.rule for c in cs],
}


# ---------------------------------------------------------------------------
# Evaluator

Value = Union[int, str, Term, Occurrence]
Check = Callable[[EvalContext], bool]
# A compiled sub-formula: a test of the context and the slots of the
# variables bound so far.
_Node = Callable[[EvalContext, list], bool]
# The quantifiers to memoise where they are outermost, by id: the names of
# their free variables, and whether they read the number of induction terms.
_Memoisable = dict[int, tuple[tuple[str, ...], bool]]


def compile_formula(f: Formula) -> tuple[Check, tuple[str, ...]]:
    """Compile a closed, well-sorted formula into a test of a context, and
    say what the test reads of the candidate: names of `CANDIDATE_READS`,
    in that order.  Two candidates of one goal that agree on those get the
    same verdict.  A quantifier ``in induction_term`` reads the set of
    induction terms: ``ALL`` and ``EX`` give the same verdict in any order.
    Only ``is_nth_induction_term`` reads the ordered terms, and that read
    covers the set and the count.  A number quantifier's domain grows with
    the number of induction terms, so it reads that count.

    Connectives, quantifier domains and assertions are chosen here, once,
    so a verdict only walks domains and calls tests.  Every quantifier and
    every numeral gets a slot of its own in one list of values, so binding
    a variable copies nothing, and a nested quantifier that rebinds a name
    leaves the outer binding's slot as it was.

    The outermost quantifiers that read of the candidate at most its
    number of induction terms, that have a free variable, and whose body
    holds another quantifier are memoised: the verdict is kept in the
    context's `GoalIndex.memo`, keyed on the compiled quantifier, its free
    variables' values and, if it holds a number quantifier, the number
    bound.  Every candidate of a goal that shares the index
    then evaluates such a quantifier once per key.  In the shipped suite
    most are the bodies of ``ALL t2 : term in induction_term. ...``."""
    memoisable: _Memoisable = {}
    reads = _analyse(f, memoisable)[0]
    if "induction_terms" in reads:
        reads -= {"induction_term_set", "induction_term_count"}
    template: list[Value | None] = []
    node = _compile(f, {}, template, memoisable)

    def check(ctx: EvalContext) -> bool:
        return node(ctx, template.copy())
    return check, tuple(n for n in CANDIDATE_READS if n in reads)


def evaluate(f: Formula, ctx: EvalContext,
             check: Check | None = None) -> bool:
    """Evaluate a closed, well-sorted formula by exhaustive enumeration.
    `check` is `f` compiled by `compile_formula`; without it `f` is
    compiled for this call."""
    if check is None:
        check = compile_formula(f)[0]
    return check(ctx)


# atom name -> what it reads of the candidate, if anything
_ATOM_READS = {"is_nth_induction_term": "induction_terms",
               "is_in_arbitrary": "arbitrary"}


def _analyse(f: Formula,
             memoisable: _Memoisable) -> tuple[set[str], set[str], bool]:
    """What `f` reads of the candidate, as names of `CANDIDATE_READS`; the
    variables it reads that no quantifier inside it binds; and whether it
    holds a quantifier.  Each sub-formula is visited once, and the sets
    returned are the caller's to change.

    Records in `memoisable`, by id, each quantifier whose verdicts are
    worth keeping for the goal, with its free variables and whether it
    reads the number of induction terms: it reads nothing else of the
    candidate; it has a free variable, so it is evaluated again for each
    value of that; and its body holds another quantifier, so it costs more
    than a lookup."""
    if isinstance(f, Atom):
        read = _ATOM_READS.get(f.name)
        return ({read} if read else set(),
                {a for a in f.args if isinstance(a, str)}, False)
    if isinstance(f, Not):
        return _analyse(f.body, memoisable)
    if isinstance(f, (And, Or, Implies)):
        reads, free, quantified = _analyse(f.left, memoisable)
        right_reads, right_free, right_quantified = _analyse(f.right,
                                                             memoisable)
        reads |= right_reads
        free |= right_free
        return reads, free, quantified or right_quantified
    if isinstance(f, (Exists, Forall)):
        reads, free, quantified = _analyse(f.body, memoisable)
        free.discard(f.var)
        if isinstance(f.restriction, OccurrencesOf):
            free.add(f.restriction.term_var)
        if f.sort is Sort.RULE:
            reads.add("rule")
        elif f.sort is Sort.NUMBER:
            reads.add("induction_term_count")
        elif isinstance(f.restriction, InductionTerms):
            reads.add("induction_term_set")
        if quantified and free and reads <= {"induction_term_count"}:
            memoisable[id(f)] = (tuple(free), bool(reads))
        return reads, free, True
    return set(), set(), False


def _slot(template: list, value: Value | None = None) -> int:
    template.append(value)
    return len(template) - 1


def _compile(f: Formula, scope: dict[str, int], template: list,
             memoisable: _Memoisable) -> _Node:
    if isinstance(f, TrueF):
        return lambda ctx, env: True
    if isinstance(f, Not):
        body = _compile(f.body, scope, template, memoisable)
        return lambda ctx, env: not body(ctx, env)
    if isinstance(f, (And, Or, Implies)):
        left = _compile(f.left, scope, template, memoisable)
        right = _compile(f.right, scope, template, memoisable)
        if isinstance(f, And):
            return lambda ctx, env: left(ctx, env) and right(ctx, env)
        if isinstance(f, Or):
            return lambda ctx, env: left(ctx, env) or right(ctx, env)
        return lambda ctx, env: (not left(ctx, env)) or right(ctx, env)
    if isinstance(f, (Exists, Forall)):
        return _compile_quantifier(f, scope, template, memoisable)
    assert isinstance(f, Atom)
    return _compile_atom(f, scope, template)


def _compile_quantifier(f: Exists | Forall, scope: dict[str, int],
                        template: list, memoisable: _Memoisable) -> _Node:
    memo = memoisable.get(id(f))
    domain = _domain(f.sort, f.restriction, scope)
    slot = _slot(template)
    # inside a memoised quantifier no key of the body recurs while the
    # outer key is new, so the body is not memoised again
    body = _compile(f.body, {**scope, f.var: slot}, template,
                    memoisable if memo is None else {})
    if isinstance(f, Exists):
        def quantifier(ctx: EvalContext, env: list) -> bool:
            for value in domain(ctx, env):
                env[slot] = value
                if body(ctx, env):
                    return True
            return False
    else:
        def quantifier(ctx: EvalContext, env: list) -> bool:
            for value in domain(ctx, env):
                env[slot] = value
                if not body(ctx, env):
                    return False
            return True
    if memo is None:
        return quantifier
    free, bounded = memo
    return _memoised(quantifier, tuple(scope[v] for v in free), bounded)


def _memoised(node: _Node, free: tuple[int, ...], bounded: bool) -> _Node:
    """`node` with its verdicts kept in the goal index's `memo`, keyed on
    `node`, the values in the slots `free` and, if `bounded`, the number
    bound."""
    slots = itemgetter(*free)

    def memoised(ctx: EvalContext, env: list) -> bool:
        key = (node, ctx.number_bound if bounded else 0, slots(env))
        memo = ctx.index.memo
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = node(ctx, env)
        return verdict
    return memoised


def _domain(sort: Sort, restriction: Restriction, scope: dict[str, int],
            ) -> Callable[[EvalContext, list], Iterable[Value]]:
    if sort is Sort.NUMBER:
        return lambda ctx, env: range(1, ctx.number_bound + 1)
    if sort is Sort.RULE:
        return lambda ctx, env: ctx.rules
    if sort is Sort.TERM:
        if isinstance(restriction, InductionTerms):
            return lambda ctx, env: ctx.induction_terms
        return lambda ctx, env: ctx.index.terms
    if isinstance(restriction, OccurrencesOf):
        target = scope[restriction.term_var]
        return lambda ctx, env: ctx.index.occurrences_by_term.get(
            env[target], ())
    return lambda ctx, env: ctx.index.occurrences


def _compile_atom(f: Atom, scope: dict[str, int], template: list) -> _Node:
    test = _ATOMS.get(f.name)
    if test is None:
        raise ValueError(f"unknown assertion {f.name}")
    slots = [_slot(template, a) if isinstance(a, int) else scope[a]
             for a in f.args]
    if len(slots) == 1:
        (a,) = slots
        return lambda ctx, env: test(ctx, env[a])
    if len(slots) == 2:
        a, b = slots
        return lambda ctx, env: test(ctx, env[a], env[b])
    a, b, c = slots
    return lambda ctx, env: test(ctx, env[a], env[b], env[c])


# -- atomic assertions -------------------------------------------------------


def _spine_base(occ: Occurrence) -> tuple[tuple[int, ...], int]:
    """Path of the largest application headed at `occ`, and its arity.

    Stripping the trailing run of function steps (0) from the path walks up
    the curried spine whose head is the occurrence."""
    path = occ.path
    k = 0
    while k < len(path) and path[len(path) - 1 - k] == 0:
        k += 1
    return path[: len(path) - k], k


def _is_rule_of(ctx: EvalContext, rule: str, occ: Occurrence) -> bool:
    return (isinstance(occ.term, Const)
            and rule == occ.term.name + RULE_SUFFIX)


def _is_nth_argument_of(ctx: EvalContext, to2: Occurrence, n: int,
                        to1: Occurrence) -> bool:
    if to2.premise_index != to1.premise_index:
        return False
    base, arity = _spine_base(to1)
    if not 1 <= n <= arity:
        return False
    return to2.path == base + (0,) * (arity - n) + (1,)


def _is_nth_induction_term(ctx: EvalContext, t: Term, n: int) -> bool:
    return 1 <= n <= len(ctx.induction_terms) \
        and ctx.induction_terms[n - 1] == t


def _is_in_arbitrary(ctx: EvalContext, t: Term) -> bool:
    return isinstance(t, FreeVar) and t.name in ctx.candidate.arbitrary


def _is_of_datatype(ctx: EvalContext, t: Term) -> bool:
    ty = term_type(t)
    return (not ty.is_var()) and ctx.index.thy.datatype(ty.name) is not None


def _is_recursive_constant(ctx: EvalContext, t: Term) -> bool:
    return isinstance(t, Const) and ctx.index.is_recursive(t.name)


# assertion name -> test of the context and the argument values
_ATOMS: dict[str, Callable[..., bool]] = {
    "is_rule_of": _is_rule_of,
    "is_nth_argument_of": _is_nth_argument_of,
    "is_nth_induction_term": _is_nth_induction_term,
    "is_free_variable": lambda ctx, t: isinstance(t, FreeVar),
    "is_constant": lambda ctx, t: isinstance(t, Const),
    "is_in_arbitrary": _is_in_arbitrary,
    "is_of_datatype": _is_of_datatype,
    "occurs_in_conclusion": lambda ctx, occ: occ.premise_index is None,
    "is_recursive_constant": _is_recursive_constant,
    "same_term": lambda ctx, occ, t: occ.term == t,
}


# ---------------------------------------------------------------------------
# Parsing

_ALIASES = {
    "∃": "EX", "∀": "ALL", "∧": "&", "∨": "|", "¬": "!",
    "→": "-->", "⟶": "-->", "∈": "in",
}

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\(\*)
  | (?P<sym>-->|[().,:&|!])
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<uni>[∃∀∧∨¬→⟶∈])
""", re.VERBOSE)

_SORTS = {s.value: s for s in Sort}


class _DslParser(Cursor):
    """The heuristic grammar over the theory parser's token cursor."""

    # formula := implies
    def parse_formula(self, env: dict[str, Sort]) -> Formula:
        left = self.parse_or(env)
        if self.at_sym("-->"):
            self.next()
            right = self.parse_formula(env)
            return Implies(left, right)
        return left

    def parse_or(self, env: dict[str, Sort]) -> Formula:
        left = self.parse_and(env)
        while self.at_sym("|"):
            self.next()
            left = Or(left, self.parse_and(env))
        return left

    def parse_and(self, env: dict[str, Sort]) -> Formula:
        left = self.parse_unary(env)
        while self.at_sym("&"):
            self.next()
            left = And(left, self.parse_unary(env))
        return left

    def parse_unary(self, env: dict[str, Sort]) -> Formula:
        tok = self.peek()
        if self.at_sym("!"):
            self.next()
            return Not(self.parse_unary(env))
        if tok.kind == "ident" and tok.text in ("EX", "ALL"):
            return self.parse_quantifier(env)
        return self.parse_primary(env)

    def parse_quantifier(self, env: dict[str, Sort]) -> Formula:
        quant = self.next()
        var_tok = self.next()
        if var_tok.kind != "ident":
            raise self.fail("found non-identifier", var_tok,
                            expected=("variable name",))
        self.expect_sym(":")
        sort_tok = self.next()
        sort = _SORTS.get(sort_tok.text)
        if sort is None:
            raise self.fail(f"unknown sort {sort_tok.text!r}", sort_tok,
                            expected=tuple(_SORTS))
        restriction: Restriction = UNRESTRICTED
        if self.peek().kind == "ident" and self.peek().text == "in":
            self.next()
            restriction = self.parse_restriction(sort, env)
        self.expect_sym(".")
        body_env = {**env, var_tok.text: sort}
        body = self.parse_formula(body_env)
        cls = Exists if quant.text == "EX" else Forall
        return cls(var_tok.text, sort, restriction, body)

    def parse_restriction(self, sort: Sort,
                          env: dict[str, Sort]) -> Restriction:
        tok = self.next()
        if tok.kind != "ident":
            raise self.fail("found non-identifier", tok,
                            expected=("restriction",))
        if tok.text == "induction_term":
            if sort is not Sort.TERM:
                raise self.fail(
                    "induction_term restricts term quantifiers only", tok)
            return INDUCTION_TERMS
        # "<var> : term" -- occurrences of the term bound to <var>
        if sort is not Sort.OCCURRENCE:
            raise self.fail(
                "occurrence restrictions apply to term_occurrence "
                "quantifiers only", tok)
        bound = env.get(tok.text)
        if bound is not Sort.TERM:
            raise self.fail(
                f"{tok.text} is not a term variable in scope", tok)
        self.expect_sym(":")
        sort_tok = self.next()
        if sort_tok.text != Sort.TERM.value:
            raise self.fail("occurrence restrictions name a term variable",
                            sort_tok, expected=("term",))
        return OccurrencesOf(tok.text)

    def parse_primary(self, env: dict[str, Sort]) -> Formula:
        tok = self.peek()
        if self.at_sym("("):
            self.next()
            inner = self.parse_formula(env)
            self.expect_sym(")")
            return inner
        if tok.kind == "ident" and tok.text == "True":
            self.next()
            return TRUE
        if tok.kind in ("ident", "num"):
            return self.parse_atom(env)
        raise self.fail(
            f"found {tok.text!r}" if tok.kind != "eof"
            else "unexpected end of formula",
            tok, expected=("formula",))

    def parse_atom(self, env: dict[str, Sort]) -> Formula:
        first = self.next()
        # prefix form: name ( arg, ... )
        if first.kind == "ident" and self.at_sym("("):
            self.next()
            args: list[Token] = []
            if not self.at_sym(")"):
                args.append(self._arg_token())
                while self.at_sym(","):
                    self.next()
                    args.append(self._arg_token())
            self.expect_sym(")")
            return self._typed_atom(first, args, env)
        # infix form: arg name arg
        name_tok = self.next()
        if name_tok.kind != "ident":
            raise self.fail("found non-assertion", name_tok,
                            expected=("assertion name",))
        second = self._arg_token()
        return self._typed_atom(name_tok, [first, second], env)

    def _arg_token(self) -> Token:
        tok = self.next()
        if tok.kind not in ("ident", "num"):
            raise self.fail("found non-argument", tok,
                            expected=("variable or number",))
        return tok

    def _typed_atom(self, name_tok: Token, arg_toks: list[Token],
                    env: dict[str, Sort]) -> Atom:
        sig = ATOM_SIGNATURES.get(name_tok.text)
        if sig is None:
            raise self.fail(f"unknown assertion {name_tok.text!r}", name_tok,
                            expected=tuple(sorted(ATOM_SIGNATURES)))
        if len(sig) != len(arg_toks):
            raise self.fail(
                f"{name_tok.text} takes {len(sig)} argument(s), "
                f"got {len(arg_toks)}", name_tok)
        args: list[str | int] = []
        for expected, tok in zip(sig, arg_toks):
            if tok.kind == "num":
                if expected is not Sort.NUMBER:
                    raise self.fail(
                        f"sort error: {name_tok.text} expects "
                        f"{expected.value} here, got a number", tok)
                args.append(int(tok.text))
                continue
            actual = env.get(tok.text)
            if actual is None:
                raise self.fail(f"unbound variable {tok.text}", tok)
            if actual is not expected:
                raise self.fail(
                    f"sort error: {tok.text} has sort {actual.value}, "
                    f"{name_tok.text} expects {expected.value}", tok)
            args.append(tok.text)
        return Atom(name_tok.text, tuple(args))


def _parser(source: str, file: str) -> _DslParser:
    """A parser at the start of `source`, with every Unicode alias read as
    the token it stands for."""
    parser = _DslParser(source.replace("\r\n", "\n"), file,
                        token_re=_TOKEN_RE)
    for i, tok in enumerate(parser.tokens):
        if tok.kind == "uni":
            alias = _ALIASES[tok.text]
            parser.tokens[i] = tok._replace(
                kind="ident" if alias.isalpha() else "sym", text=alias)
    return parser


def parse_formula(source: str, file: str = "<formula>") -> Formula:
    """Parse and sort-check a closed formula."""
    parser = _parser(source, file)
    formula = parser.parse_formula({})
    if parser.peek().kind != "eof":
        raise parser.fail("trailing tokens after formula")
    return formula


def parse_heuristics(source: str,
                     file: str = "<heuristics>") -> list[tuple[str, Formula]]:
    """Parse a suite file: named blocks ``heuristic <name>: <formula>``."""
    parser = _parser(source, file)
    out: list[tuple[str, Formula]] = []
    names: set[str] = set()
    while parser.peek().kind != "eof":
        head = parser.next()
        if head.kind != "ident" or head.text != "heuristic":
            raise parser.fail(f"found {head.text!r}", head,
                              expected=("'heuristic'",))
        name_tok = parser.next()
        if name_tok.kind != "ident":
            raise parser.fail("found non-identifier", name_tok,
                              expected=("heuristic name",))
        if name_tok.text in names:
            raise parser.fail(f"duplicate heuristic {name_tok.text}",
                              name_tok)
        names.add(name_tok.text)
        parser.expect_sym(":")
        formula = parser.parse_formula({})
        out.append((name_tok.text, formula))
    return out
