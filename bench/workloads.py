"""Seeded inputs for the three benchmark workloads.

Every generator takes the workload seed and returns theory text plus the
requests to make against it; the program under test only ever sees the
generated `.thy` text.  Nothing is downloaded: the definitions are clones
of the bundled corpus templates.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

DEFAULT_SEED = 1

# One sentence per workload on why it is in the benchmark.
WHY = {
    "corpus-eval":
        "eval over the bundled 15-goal annotated corpus: many small goals, "
        "so per-goal fixed costs (parse, suite, stage 1) dominate.",
    "scaled-recommend":
        "recommend on seeded g4/g5-shaped goals with 5-6 variables at the "
        "10,000-candidate cap: heuristic evaluation dominates.",
    "large-theory-recommend":
        "recommend on 2-3-variable goals of a seeded ~400-definition theory: "
        "parsing dominates, the pipeline is small.",
}


@dataclass(frozen=True)
class GoalSpec:
    """One request target: a lemma of the generated theory.

    `variables` and `rules` are in first-occurrence order, as the
    generator wrote them, so checks need not ask the program for them."""

    name: str
    variables: tuple[str, ...]
    rules: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    theory_text: str
    goals: tuple[GoalSpec, ...]


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


def _first_occurrences(text: str, names) -> tuple[str, ...]:
    seen: list[str] = []
    for tok in _IDENT.findall(text):
        if tok in names and tok not in seen:
            seen.append(tok)
    return tuple(seen)


def _suffix(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


# ---------------------------------------------------------------------------
# scaled-recommend


_SCALED_DEFS = '''\
primrec rev{s} :: "'a list => 'a list" where
  "rev{s} [] = []"
| "rev{s} (x # xs) = rev{s} xs @ [x]"

fun itrev{s} :: "'a list => 'a list => 'a list" where
  "itrev{s} [] ys = ys"
| "itrev{s} (x # xs) ys = itrev{s} xs (x # ys)"

primrec len{s} :: "'a list => nat" where
  "len{s} [] = 0"
| "len{s} (x # xs) = Suc (len{s} xs)"

fun itadd{s} :: "nat => nat => nat" where
  "itadd{s} 0 n = n"
| "itadd{s} (Suc m) n = itadd{s} m (Suc n)"
'''

_LIST_VARS = ("xs", "ys", "zs", "ws", "us", "vs", "as", "bs", "cs", "ds")
_NAT_VARS = ("m", "n", "k", "i", "j", "p", "q")

# The three goal shapes, the same for every seed: g4 (itrev on the left,
# rev on the right), g4 mirrored (sides and itadd arguments swapped) and
# g5 (itrev on both sides).  {a}-{d} are list variables, {m} and {n}
# natural numbers.  The seed picks only the names: side and argument
# order move the cost of a goal by up to 30 %, so they stay fixed and the
# work per run stays comparable across seeds.
SCALED_GOALS = (
    "{itadd} ({len} ({itrev} {a} {b})) {m} = {itadd} ({len} ({rev} {c})) {n}",
    "{itadd} {m} ({len} ({rev} {c})) = {itadd} {n} ({len} ({itrev} {a} {b}))",
    "{itadd} ({len} ({itrev} {a} {b})) {m} "
    "= {itadd} ({len} ({itrev} {c} {d})) {n}",
)


def scaled_recommend(seed: int) -> Workload:
    rng = random.Random(f"scaled-recommend/{seed}")
    s = "_" + _suffix(rng)
    funs = {f: f"{f}{s}" for f in ("itrev", "rev", "len", "itadd")}
    lemmas: list[str] = []
    goals: list[GoalSpec] = []
    for i, shape in enumerate(SCALED_GOALS, start=1):
        lists = rng.sample(_LIST_VARS, 4)
        nats = rng.sample(_NAT_VARS, 2)
        prop = shape.format(**funs, a=lists[0], b=lists[1], c=lists[2],
                            d=lists[3], m=nats[0], n=nats[1])
        name = f"scaled_{i}_{_suffix(rng)}"
        lemmas.append(f'lemma {name}: "{prop}"\n')
        goals.append(GoalSpec(
            name, _first_occurrences(prop, set(lists) | set(nats)),
            tuple(f"{f}.induct" for f in _first_occurrences(
                prop, {funs["itrev"], funs["itadd"]}))))
    text = (f"(* scaled-recommend, seed {seed} *)\n\n"
            + _SCALED_DEFS.format(s=s) + "\n" + "\n".join(lemmas))
    return Workload(text, tuple(goals))


# ---------------------------------------------------------------------------
# large-theory-recommend

# One block clones the corpus definitions once: a tree datatype and twelve
# fun/primrec definitions, each followed by one lemma about it.  `{s}` is
# the block's name suffix.  Every block has the same size, so the theory
# size (and with it the parse cost) does not depend on the seed.
_BLOCK = [
    ('datatype tree{s} \'a = Leaf{s} | Node{s} (\'a tree{s}) \'a '
     '(\'a tree{s})\n', None),
    ('primrec add{s} :: "nat => nat => nat" where\n'
     '  "add{s} 0 n = n"\n'
     '| "add{s} (Suc m) n = Suc (add{s} m n)"\n',
     ('add_assoc{s}', 'add{s} (add{s} m n) k = add{s} m (add{s} n k)')),
    ('fun itadd{s} :: "nat => nat => nat" where\n'
     '  "itadd{s} 0 n = n"\n'
     '| "itadd{s} (Suc m) n = itadd{s} m (Suc n)"\n',
     ('itadd_add{s}', 'itadd{s} m n = add{s} m n')),
    ('primrec double{s} :: "nat => nat" where\n'
     '  "double{s} 0 = 0"\n'
     '| "double{s} (Suc n) = Suc (Suc (double{s} n))"\n',
     ('double_add{s}', 'double{s} n = add{s} n n')),
    ('primrec rev{s} :: "\'a list => \'a list" where\n'
     '  "rev{s} [] = []"\n'
     '| "rev{s} (x # xs) = rev{s} xs @ [x]"\n',
     ('rev_append{s}', 'rev{s} (xs @ ys) = rev{s} ys @ rev{s} xs')),
    ('fun itrev{s} :: "\'a list => \'a list => \'a list" where\n'
     '  "itrev{s} [] ys = ys"\n'
     '| "itrev{s} (x # xs) ys = itrev{s} xs (x # ys)"\n',
     ('itrev_rev{s}', 'itrev{s} xs ys = rev{s} xs @ ys')),
    ('primrec len{s} :: "\'a list => nat" where\n'
     '  "len{s} [] = 0"\n'
     '| "len{s} (x # xs) = Suc (len{s} xs)"\n',
     ('len_append{s}', 'len{s} (xs @ ys) = add{s} (len{s} xs) (len{s} ys)')),
    ('primrec map{s} :: "(\'a => \'b) => \'a list => \'b list" where\n'
     '  "map{s} f [] = []"\n'
     '| "map{s} f (x # xs) = f x # map{s} f xs"\n',
     ('map_append{s}', 'map{s} f (xs @ ys) = map{s} f xs @ map{s} f ys')),
    ('fun snoc{s} :: "\'a list => \'a => \'a list" where\n'
     '  "snoc{s} [] y = [y]"\n'
     '| "snoc{s} (x # xs) y = x # snoc{s} xs y"\n',
     ('snoc_append{s}', 'snoc{s} xs y = xs @ [y]')),
    ('primrec mirror{s} :: "\'a tree{s} => \'a tree{s}" where\n'
     '  "mirror{s} Leaf{s} = Leaf{s}"\n'
     '| "mirror{s} (Node{s} l x r) = Node{s} (mirror{s} r) x (mirror{s} l)"\n',
     ('mirror_mirror{s}', 'mirror{s} (mirror{s} t) = t')),
    ('primrec tsize{s} :: "\'a tree{s} => nat" where\n'
     '  "tsize{s} Leaf{s} = 0"\n'
     '| "tsize{s} (Node{s} l x r) = Suc (add{s} (tsize{s} l) (tsize{s} r))"\n',
     ('tsize_mirror{s}', 'tsize{s} (mirror{s} t) = tsize{s} t')),
    ('primrec tinsert{s} :: "\'a => \'a tree{s} => \'a tree{s}" where\n'
     '  "tinsert{s} x Leaf{s} = Node{s} Leaf{s} x Leaf{s}"\n'
     '| "tinsert{s} x (Node{s} l y r) = Node{s} (tinsert{s} x l) y r"\n',
     ('tsize_tinsert{s}', 'tsize{s} (tinsert{s} x t) = Suc (tsize{s} t)')),
    ('primrec flat{s} :: "\'a tree{s} => \'a list" where\n'
     '  "flat{s} Leaf{s} = []"\n'
     '| "flat{s} (Node{s} l x r) = flat{s} l @ (x # flat{s} r)"\n',
     ('flat_mirror{s}', 'flat{s} (mirror{s} t) = rev{s} (flat{s} t)')),
]
LARGE_BLOCKS = 34   # 34 x 12 = 408 fun/primrec definitions

# The requested lemmas: the same three lemma kinds for every seed (2 and 3
# variables, 40-128 candidates), each from a seeded block.
LARGE_GOAL_KINDS = ("itrev_rev", "add_assoc", "map_append")
_LARGE_FUN_DEFS = ("itadd", "itrev", "snoc")   # `fun`, so they carry rules
_LARGE_VARS = ("m", "n", "k", "xs", "ys", "x", "y", "t", "f")


def large_theory_recommend(seed: int) -> Workload:
    rng = random.Random(f"large-theory-recommend/{seed}")
    suffixes: list[str] = []
    while len(suffixes) < LARGE_BLOCKS:
        s = "_" + _suffix(rng)
        if s not in suffixes:
            suffixes.append(s)
    parts = [f"(* large-theory-recommend, seed {seed} *)\n"]
    for s in suffixes:
        for decl, lemma in _BLOCK:
            parts.append(decl.format(s=s))
            if lemma is not None:
                name, prop = lemma
                parts.append(f'lemma {name.format(s=s)}: '
                             f'"{prop.format(s=s)}"\n')
    goals = []
    for kind in LARGE_GOAL_KINDS:
        s = rng.choice(suffixes)
        name, prop = next(lem for _, lem in _BLOCK
                          if lem is not None and lem[0] == kind + "{s}")
        prop = prop.format(s=s)
        goals.append(GoalSpec(
            name.format(s=s), _first_occurrences(prop, _LARGE_VARS),
            tuple(f"{f}.induct" for f in _first_occurrences(
                prop, {f + s for f in _LARGE_FUN_DEFS}))))
    return Workload("\n".join(parts), tuple(goals))


GENERATORS = {
    "scaled-recommend": scaled_recommend,
    "large-theory-recommend": large_theory_recommend,
}
