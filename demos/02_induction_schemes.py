"""Derive structural and functional induction schemes.

A structural scheme follows a datatype's constructors; a functional
scheme follows a `fun` definition's equations, with one hypothesis per
recursive call site.
"""

from inductrank import (
    corpus_dir, format_scheme, functional_scheme, parse_theory, rules_for,
    structural_scheme,
)
from inductrank.terms import LIST_DT, NAT_DT

print(format_scheme(structural_scheme(NAT_DT)))
print()
print(format_scheme(structural_scheme(LIST_DT)))
print()

thy = parse_theory((corpus_dir() / "running.thy").read_text(),
                   "running.thy")
print(format_scheme(functional_scheme(thy.fundef("itrev"))))
print()

trees = parse_theory((corpus_dir() / "trees.thy").read_text(), "trees.thy")
print(format_scheme(structural_scheme(trees.datatype("tree"))))
print()

goal = thy.goal_named("itrev_rev")
print("rules collected from the goal:", rules_for(goal, thy))
print("(rev is primrec-defined, so it contributes no rule;",
      "itrev is fun-defined, so it does)")
