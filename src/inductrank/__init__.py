"""inductrank: rank induct-tactic argument combinations for a goal.

The pipeline enumerates combinations of (induction terms, generalised
variables, optional functional-induction rule), screens them by actually
applying the induction and inspecting the subgoals, scores the survivors
against a suite of domain-independent heuristics written in a small
quantified language, and short-lists the best.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .dsl import (
    EvalContext, GoalIndex, evaluate, make_context, parse_formula,
)
from .parser import ParseError, SourceSpan, parse_goal_expr, parse_theory, \
    print_theory
from .pipeline import (
    CandidateStream, Disposition, ScreenReport, ScreeningResult,
    enumerate_candidates, screen, stage1, stage2, stage2_condition,
)
from .schemes import (
    InductionScheme, SchemeCase, SchemeError, format_scheme,
    functional_scheme, rules_for, scheme_for_rule_name, structural_scheme,
)
from .scoring import (
    Heuristic, ScoredCandidate, default_suite, load_suite, score_all,
    shortlist,
)
from .tactic import (
    Candidate, Failure, InductTactic, SubgoalSet, TacticError,
    TacticErrorKind, apply_induct, parse_candidate,
)
from .terms import (
    App, Const, Constructor, DatatypeDef, Equation, FreeVar, FunDef, Goal,
    Occurrence, SchematicVar, SimpleType, Term, Theory,
    all_occurrences, contains_schematic, contains_subterm, format_goal,
    format_term, format_type, free_variables, goal_free_variables,
    goal_subterms, occurrences_of,
)

__all__ = [name for name in dir() if not name.startswith("_")]


def corpus_dir() -> Path:
    """Directory holding the bundled annotated theory files."""
    return Path(str(resources.files("inductrank") / "corpus"))
