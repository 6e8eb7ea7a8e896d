"""Syntax trees for a small total functional language.

A term is a curried application tree over free variables, schematic
variables, and constants.  Goals are boolean terms split into premises and
a conclusion.  A theory bundles datatype declarations, recursive function
definitions, and goals on top of a fixed builtin prelude (nat, 'a list,
bool, equality, implication, and list append).

Every value here is immutable after construction, so one value is shared
wherever it recurs instead of being copied: within a parse, and between
goals, such as a goal and the subgoals that induction builds from it.
Nothing enforces this for trees; see `Tree`.

Types, terms, goals, theories and the heuristic language's formulas are
`Tree`s: `__slots__` classes that compute their hash once, at
construction, from their fields' hashes, so no hash walks a value however
deep it is.  Two trees are equal when they are of one class and their
fields are equal.  Flat records, such as `FunDef`, are named tuples.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, NamedTuple, Union


class Tree:
    """An immutable value whose hash is computed once.  A subclass names
    its fields in `_fields`, in constructor order; `Tree.__init__` sets
    them and `_hash`, and a subclass that needs a default or an extra slot
    calls it from its own constructor.  The trees built most often write
    it out, three times faster: `SimpleType`, the leaves and `Goal` hash
    as it does, `App` its fields' cached hashes.  Extra slots take no part
    in equality, hashing or `repr`.  Equality checks the class and returns
    at once for one object or for two hashes that differ.

    Assigning a field after construction is unsupported: nothing refuses
    it, but the cached hash goes stale, and dict and set lookups then
    disagree with `==`.  Refusing it in `__setattr__` would make each
    constructor set its slots through `object.__setattr__`, which makes
    parsing a large theory about 3 % slower."""

    __slots__ = ("_hash", "__weakref__")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # a class without fields compares its hash, which its name decides
        cls._values = attrgetter(*cls._fields or ("_hash",))

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            setattr(self, name, value)
        self._hash = hash((type(self).__name__, *values))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            type(other) is type(self) and other._hash == self._hash
            and self._values(self) == self._values(other))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Types

FUN = "=>"


class SimpleType(Tree):
    """A first-order type: a constructor applied to argument types.

    Type variables are leaves whose name starts with a prime (e.g. ``'a``).
    The function arrow is the binary constructor named ``=>``.
    """

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[SimpleType, ...] = ()):
        self.name, self.args = name, args
        self._hash = hash(("SimpleType", name, args))

    def is_var(self) -> bool:
        return self.name.startswith("'")

    def __str__(self) -> str:
        return format_type(self)


def fun_type(*types: SimpleType) -> SimpleType:
    """Right-fold ``a => b => ... => r`` from the given types."""
    if not types:
        raise ValueError("fun_type needs at least one type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = SimpleType(FUN, (t, result))
    return result


def type_vars(t: SimpleType) -> list[str]:
    """The type variables of `t`, each once, in order of first occurrence."""
    out: list[str] = []
    stack = [t]
    while stack:
        u = stack.pop()
        if u.is_var():
            if u.name not in out:
                out.append(u.name)
        stack += reversed(u.args)
    return out


def subst_type(t: SimpleType, mapping: dict[str, SimpleType]) -> SimpleType:
    if t.is_var():
        return mapping.get(t.name, t)
    if not t.args:
        return t
    return SimpleType(t.name, tuple(subst_type(a, mapping) for a in t.args))


def match_type(pattern: SimpleType, target: SimpleType,
               bindings: dict[str, SimpleType]) -> bool:
    """One-way matching: bind `pattern`'s type variables against `target`."""
    if pattern.is_var():
        bound = bindings.get(pattern.name)
        if bound is None:
            bindings[pattern.name] = target
            return True
        return bound == target
    if pattern.name != target.name or len(pattern.args) != len(target.args):
        return False
    return all(match_type(p, g, bindings)
               for p, g in zip(pattern.args, target.args))


def format_type(t: SimpleType, nested: bool = False) -> str:
    if t.name == FUN:
        left, right = t.args
        s = f"{format_type(left, nested=True)} => {format_type(right)}"
        return f"({s})" if nested else s
    if not t.args:
        return t.name
    if len(t.args) == 1:
        arg = t.args[0]
        inner = format_type(arg, nested=bool(arg.args))
        return f"{inner} {t.name}"
    inner = ", ".join(format_type(a) for a in t.args)
    return f"({inner}) {t.name}"


# ---------------------------------------------------------------------------
# Terms


class _Leaf(Tree):
    """A named term of a type: the fields of the three leaf classes."""

    __slots__ = _fields = ("name", "type")

    def __init__(self, name: str, ty: SimpleType):
        self.name, self.type = name, ty
        self._hash = hash((type(self).__name__, name, ty))

    def __str__(self) -> str:
        return format_term(self)


class FreeVar(_Leaf):
    __slots__ = ()


class SchematicVar(_Leaf):
    __slots__ = ()


class Const(_Leaf):
    __slots__ = ()


class App(Tree):
    __slots__ = _fields = ("fun", "arg")

    def __init__(self, fun: Term, arg: Term):
        self.fun, self.arg = fun, arg
        self._hash = hash(("App", fun._hash, arg._hash))

    def __str__(self) -> str:
        return format_term(self)


Term = Union[FreeVar, SchematicVar, Const, App]


class TypeError_(Exception):
    """An application whose argument type does not fit the function type."""


def term_type(t: Term) -> SimpleType:
    if isinstance(t, App):
        fun_ty = term_type(t.fun)
        if fun_ty.name != FUN:
            raise TypeError_(f"applying non-function value {t.fun}")
        return fun_ty.args[1]
    return t.type


def mk_app(head: Term, *args: Term) -> Term:
    t: Term = head
    for a in args:
        t = App(t, a)
    return t


def spine(t: Term) -> tuple[Term, tuple[Term, ...]]:
    """Decompose a curried application into its head and argument list."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.arg)
        t = t.fun
    args.reverse()
    return t, tuple(args)


def subterms_with_paths(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """All positions of `t` in pre-order, which is path-lexicographic order.

    Path steps: 0 descends into the function of an application, 1 into the
    argument.
    """
    stack: list[tuple[tuple[int, ...], Term]] = [((), t)]
    while stack:
        path, node = stack.pop()
        yield path, node
        if isinstance(node, App):
            stack.append((path + (1,), node.arg))
            stack.append((path + (0,), node.fun))


def subterm_at(t: Term, path: tuple[int, ...]) -> Term:
    for step in path:
        if not isinstance(t, App):
            raise ValueError(f"path {path} leaves the term")
        t = t.fun if step == 0 else t.arg
    return t


def free_variables(t: Term) -> list[FreeVar]:
    """Distinct free variables in first-occurrence (leftmost-outermost)
    order.  Schematic variables are excluded."""
    out: list[FreeVar] = []
    seen: set[tuple[str, SimpleType]] = set()
    for _, node in subterms_with_paths(t):
        if isinstance(node, FreeVar):
            key = (node.name, node.type)
            if key not in seen:
                seen.add(key)
                out.append(node)
    return out


def contains_subterm(haystack: Term, needle: Term) -> bool:
    """True iff some occurrence of `needle` exists in `haystack`
    (syntactic equality; schematic names compared literally)."""
    stack = [haystack]
    while stack:
        node = stack.pop()
        if node == needle:
            return True
        if isinstance(node, App):
            stack += (node.arg, node.fun)
    return False


def has_schematic(t: Term) -> bool:
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            stack += (node.arg, node.fun)
        elif isinstance(node, SchematicVar):
            return True
    return False


def subst_frees(t: Term, mapping: dict[str, Term]) -> Term:
    """Simultaneously replace free variables by name.  The language is
    binder-free, so no capture can occur.  Sub-terms the mapping does not
    touch are shared with `t`, not copied."""
    if isinstance(t, App):
        fun = subst_frees(t.fun, mapping)
        arg = subst_frees(t.arg, mapping)
        return t if fun is t.fun and arg is t.arg else App(fun, arg)
    if isinstance(t, FreeVar):
        return mapping.get(t.name, t)
    return t


def instantiate_term_types(t: Term, mapping: dict[str, SimpleType]) -> Term:
    if isinstance(t, App):
        return App(instantiate_term_types(t.fun, mapping),
                   instantiate_term_types(t.arg, mapping))
    new_ty = subst_type(t.type, mapping)
    return type(t)(t.name, new_ty)


def fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name += "'"
    return name


# ---------------------------------------------------------------------------
# Occurrences and goals


class Occurrence(NamedTuple):
    """A position of a sub-term inside a goal.

    `path` is walked from the root of one goal region; `premise_index` says
    which region that is (None means the conclusion).  The root occurrence
    of a region has an empty path.
    """

    path: tuple[int, ...]
    term: Term
    premise_index: int | None = None


class Goal(Tree):
    """A named goal; its source `line` takes no part in equality."""

    __slots__ = ("name", "premises", "conclusion", "line")
    _fields = __slots__[:3]

    def __init__(self, name: str, premises: tuple[Term, ...],
                 conclusion: Term, line: int = 0):
        self.name, self.premises, self.conclusion = name, premises, conclusion
        self.line = line
        self._hash = hash(("Goal", name, premises, conclusion))

    def __repr__(self) -> str:
        return f"{Tree.__repr__(self)[:-1]}, line={self.line!r})"

    def regions(self) -> Iterator[tuple[int | None, Term]]:
        for i, p in enumerate(self.premises):
            yield i, p
        yield None, self.conclusion

    def __str__(self) -> str:
        return format_goal(self)


def all_occurrences(goal: Goal) -> list[Occurrence]:
    """Every sub-term position of the goal, premises first, then conclusion,
    path-lexicographic within each region."""
    out: list[Occurrence] = []
    for idx, root in goal.regions():
        for path, node in subterms_with_paths(root):
            out.append(Occurrence(path, node, idx))
    return out


def occurrences_of(t: Term, goal: Goal) -> list[Occurrence]:
    """All positions in the goal whose sub-term equals `t`."""
    return [o for o in all_occurrences(goal) if o.term == t]


def resolve_occurrence(goal: Goal, occ: Occurrence) -> Term:
    root = goal.conclusion if occ.premise_index is None \
        else goal.premises[occ.premise_index]
    return subterm_at(root, occ.path)


def goal_subterms(goal: Goal) -> list[Term]:
    """Deduplicated sub-terms of the goal in first-occurrence order."""
    out: list[Term] = []
    seen: set[Term] = set()
    for occ in all_occurrences(goal):
        if occ.term not in seen:
            seen.add(occ.term)
            out.append(occ.term)
    return out


def goal_free_variables(goal: Goal) -> list[FreeVar]:
    out: list[FreeVar] = []
    seen: set[tuple[str, SimpleType]] = set()
    for _, root in goal.regions():
        for v in free_variables(root):
            key = (v.name, v.type)
            if key not in seen:
                seen.add(key)
                out.append(v)
    return out


def contains_schematic(goal: Goal) -> bool:
    """True iff any premise or the conclusion contains a schematic
    variable node."""
    return any(has_schematic(root) for _, root in goal.regions())


# ---------------------------------------------------------------------------
# Declarations


class Constructor(NamedTuple):
    name: str
    arg_types: tuple[SimpleType, ...]


class DatatypeDef(NamedTuple):
    name: str
    params: tuple[str, ...]
    constructors: tuple[Constructor, ...]

    def generic_type(self) -> SimpleType:
        return SimpleType(self.name, tuple(SimpleType(p) for p in self.params))

    def constructor_type(self, ctor: Constructor) -> SimpleType:
        return fun_type(*ctor.arg_types, self.generic_type())


class Equation(NamedTuple):
    lhs: Term
    rhs: Term

    def lhs_args(self) -> tuple[Term, ...]:
        return spine(self.lhs)[1]


class FunDef(NamedTuple):
    name: str
    type: SimpleType
    equations: tuple[Equation, ...]
    has_induction_rule: bool

    def arity(self) -> int:
        return len(self.equations[0].lhs_args()) if self.equations else 0

    def is_recursive(self) -> bool:
        return any(
            isinstance(node, Const) and node.name == self.name
            for eq in self.equations
            for _, node in subterms_with_paths(eq.rhs)
        )


class Theory(Tree):
    """Declarations on top of the prelude.  Names are looked up through
    indexes built on first use: the first declaration of a name wins, and
    the theory's declarations shadow the prelude's.  `unread` names the
    definitions its source declared but its parse left out; it takes no
    part in equality."""

    __slots__ = ("datatypes", "fundefs", "goals", "unread", "_by_name")
    _fields = __slots__[:3]

    def __init__(self, datatypes: tuple[DatatypeDef, ...] = (),
                 fundefs: tuple[FunDef, ...] = (),
                 goals: tuple[Goal, ...] = (),
                 unread: frozenset[str] = frozenset()):
        Tree.__init__(self, datatypes, fundefs, goals)
        self.unread = unread
        self._by_name = None

    def _indexes(self) -> tuple[dict, dict, dict, dict]:
        """Datatypes, functions, goals and constructors by name."""
        constructors: dict[str, tuple[DatatypeDef, Constructor]] = {}
        for d in (*self.datatypes, *PRELUDE_DATATYPES.values()):
            for c in d.constructors:
                constructors.setdefault(c.name, (d, c))
        self._by_name = (
            _first_by_name(self.datatypes, PRELUDE_DATATYPES.values()),
            _first_by_name(self.fundefs, PRELUDE_FUNDEFS.values()),
            _first_by_name(self.goals), constructors)
        return self._by_name

    def datatype(self, name: str) -> DatatypeDef | None:
        return (self._by_name or self._indexes())[0].get(name)

    def fundef(self, name: str) -> FunDef | None:
        return (self._by_name or self._indexes())[1].get(name)

    def goal_named(self, name: str) -> Goal | None:
        return (self._by_name or self._indexes())[2].get(name)

    def constructor_owner(self, name: str) -> tuple[DatatypeDef, Constructor] | None:
        return (self._by_name or self._indexes())[3].get(name)

    def const_scheme(self, name: str) -> SimpleType | None:
        """Most general type of a declared constant, or None."""
        owner = self.constructor_owner(name)
        if owner is not None:
            d, c = owner
            return d.constructor_type(c)
        f = self.fundef(name)
        if f is not None:
            return f.type
        return EXTRA_CONST_SCHEMES.get(name)


def _first_by_name(*groups):
    """Items by name, the first of each name winning."""
    index = {}
    for group in groups:
        for item in group:
            index.setdefault(item.name, item)
    return index


def check_term(t: Term, thy: Theory) -> None:
    """Kernel well-formedness: nonempty names, exact argument/function type
    agreement at every application, constants declared (at an instance of
    their declared type)."""
    for _, node in subterms_with_paths(t):
        if isinstance(node, App):
            fun_ty = term_type(node.fun)
            if fun_ty.name != FUN:
                raise TypeError_(f"head of {node} is not a function")
            if fun_ty.args[0] != term_type(node.arg):
                raise TypeError_(
                    f"argument type mismatch in {node}: expected "
                    f"{fun_ty.args[0]}, got {term_type(node.arg)}")
        elif isinstance(node, Const):
            scheme = thy.const_scheme(node.name)
            if scheme is None:
                raise TypeError_(f"undeclared constant {node.name}")
            if not match_type(scheme, node.type, {}):
                raise TypeError_(
                    f"constant {node.name} used at {node.type}, which is "
                    f"not an instance of {scheme}")
        else:
            if not node.name:
                raise TypeError_("empty variable name")


# ---------------------------------------------------------------------------
# Printing

IMPLIES = "==>"
# precedence levels; application binds tightest
_INFIX_PREC = {IMPLIES: 1, "eq": 2, "#": 3, "@": 3}
_INFIX_TEXT = {IMPLIES: "==>", "eq": "=", "#": "#", "@": "@"}


def _as_numeral(t: Term) -> int | None:
    n = 0
    while True:
        if isinstance(t, Const) and t.name == "0":
            return n
        head, args = spine(t)
        if isinstance(head, Const) and head.name == "Suc" and len(args) == 1:
            n += 1
            t = args[0]
        else:
            return None


def _as_list_literal(t: Term) -> list[Term] | None:
    items: list[Term] = []
    while True:
        if isinstance(t, Const) and t.name == "[]":
            return items
        head, args = spine(t)
        if isinstance(head, Const) and head.name == "#" and len(args) == 2:
            items.append(args[0])
            t = args[1]
        else:
            return None


def format_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, SchematicVar):
        return f"?{t.name}"
    if isinstance(t, (FreeVar, Const)):
        return t.name
    num = _as_numeral(t)
    if num is not None:
        return str(num)
    items = _as_list_literal(t)
    if items is not None:
        return "[" + ", ".join(format_term(i) for i in items) + "]"
    head, args = spine(t)
    if isinstance(head, Const) and head.name in _INFIX_PREC and len(args) == 2:
        p = _INFIX_PREC[head.name]
        # all infix operators are printed right-associatively
        s = (f"{format_term(args[0], p + 1)} {_INFIX_TEXT[head.name]} "
             f"{format_term(args[1], p)}")
        return f"({s})" if prec > p else s
    parts = [format_term(head, 10)] + [format_term(a, 10) for a in args]
    s = " ".join(parts)
    return f"({s})" if prec >= 10 else s


def format_goal(goal: Goal) -> str:
    if not goal.premises:
        return format_term(goal.conclusion)
    parts = [format_term(p, 2) for p in goal.premises]
    return " ==> ".join(parts + [format_term(goal.conclusion, 2)])


# ---------------------------------------------------------------------------
# Builtin prelude

TYPE_BOOL = SimpleType("bool")
TYPE_NAT = SimpleType("nat")
_A = SimpleType("'a")


def list_of(t: SimpleType) -> SimpleType:
    return SimpleType("list", (t,))


NAT_DT = DatatypeDef("nat", (), (
    Constructor("0", ()),
    Constructor("Suc", (TYPE_NAT,)),
))
LIST_DT = DatatypeDef("list", ("'a",), (
    Constructor("[]", ()),
    Constructor("#", (_A, list_of(_A))),
))
BOOL_DT = DatatypeDef("bool", (), (
    Constructor("True", ()),
    Constructor("False", ()),
))

PRELUDE_DATATYPES = {d.name: d for d in (NAT_DT, LIST_DT, BOOL_DT)}


def _append_fundef() -> FunDef:
    app_ty = fun_type(list_of(_A), list_of(_A), list_of(_A))
    at = Const("@", app_ty)
    nil = Const("[]", list_of(_A))
    cons = Const("#", fun_type(_A, list_of(_A), list_of(_A)))
    x = FreeVar("x", _A)
    xs = FreeVar("xs", list_of(_A))
    ys = FreeVar("ys", list_of(_A))
    return FunDef("@", app_ty, (
        Equation(mk_app(at, nil, ys), ys),
        Equation(mk_app(at, mk_app(cons, x, xs), ys),
                 mk_app(cons, x, mk_app(at, xs, ys))),
    ), has_induction_rule=False)


PRELUDE_FUNDEFS = {"@": _append_fundef()}

EXTRA_CONST_SCHEMES = {
    "eq": fun_type(_A, _A, TYPE_BOOL),
    IMPLIES: fun_type(TYPE_BOOL, TYPE_BOOL, TYPE_BOOL),
}

PRELUDE_NAMES = (
    set(PRELUDE_DATATYPES)
    | {c.name for d in PRELUDE_DATATYPES.values() for c in d.constructors}
    | set(PRELUDE_FUNDEFS)
    | set(EXTRA_CONST_SCHEMES)
)


def mk_eq(lhs: Term, rhs: Term) -> Term:
    ty = term_type(lhs)
    return mk_app(Const("eq", fun_type(ty, ty, TYPE_BOOL)), lhs, rhs)


def mk_implies(antecedent: Term, consequent: Term) -> Term:
    return mk_app(Const(IMPLIES, EXTRA_CONST_SCHEMES[IMPLIES]),
                  antecedent, consequent)


def split_implications(t: Term) -> tuple[tuple[Term, ...], Term]:
    """Unfold the right spine of top-level implications into premises and a
    final conclusion."""
    premises: list[Term] = []
    while True:
        head, args = spine(t)
        if isinstance(head, Const) and head.name == IMPLIES and len(args) == 2:
            premises.append(args[0])
            t = args[1]
        else:
            return tuple(premises), t
