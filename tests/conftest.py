from __future__ import annotations

import pytest

import inductrank
from inductrank import parse_theory


@pytest.fixture(scope="session")
def corpus_dir():
    return inductrank.corpus_dir()


@pytest.fixture(scope="session")
def running_theory(corpus_dir):
    path = corpus_dir / "running.thy"
    return parse_theory(path.read_text(encoding="utf-8"), "running.thy")


@pytest.fixture(scope="session")
def running_goal(running_theory):
    return running_theory.goal_named("itrev_rev")


# The definitions of the scaled benchmark's goals.
SCALED_DEFINITIONS = """\
primrec rev :: "'a list => 'a list" where
  "rev [] = []"
| "rev (x # xs) = rev xs @ [x]"
fun itrev :: "'a list => 'a list => 'a list" where
  "itrev [] ys = ys"
| "itrev (x # xs) ys = itrev xs (x # ys)"
primrec len :: "'a list => nat" where
  "len [] = 0"
| "len (x # xs) = Suc (len xs)"
fun itadd :: "nat => nat => nat" where
  "itadd 0 n = n"
| "itadd (Suc m) n = itadd m (Suc n)"
"""

# A goal of the scaled benchmark's g4 shape: five variables, two rules.
G4_THEORY = SCALED_DEFINITIONS + \
    'lemma g4: "itadd (len (itrev xs ys)) m = itadd (len (rev zs)) n"\n'


@pytest.fixture(scope="session")
def scaled_definitions():
    return SCALED_DEFINITIONS


@pytest.fixture(scope="session")
def g4_theory():
    return parse_theory(G4_THEORY)
