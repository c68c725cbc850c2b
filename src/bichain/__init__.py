"""Bidirectional-chaining inference over restricted-English fact/rule bases.

The engine alternates forward and backward chaining, switching direction
whenever one step produces multiple deductions or goal decompositions, so
each side's intermediate results guide the other.  Forward-only and
backward-only baselines, an exhaustive saturation oracle, a seeded instance
generator, a remote chat-completion backend, and a benchmark harness round
out the package.
"""

from .engine import (
    ENGINES,
    Direction,
    EngineConfig,
    ProofTrace,
    Verdict,
    evaluate_options,
    make_backend,
    prove_backward,
    prove_bidirectional,
    prove_forward,
    replay_validate,
)
from .generate import PROFILES, GenerationExhausted, InstanceSpec, generate_balanced, generate_corpus, generate_instance
from .language import (
    Hypothesis,
    Label,
    ParseError,
    Problem,
    ProblemFormatError,
    load_problems,
    parse_literal,
    parse_problem,
    parse_statement,
    problem_record,
    render_literal,
    render_rule,
)
from .modules import (
    DeductionStep,
    Derivation,
    FactCheckResult,
    Goal,
    GoalSet,
    GoalStatus,
    ModuleBackend,
    RuleSelection,
    SymbolicBackend,
)
from .oracle import ReferenceProof, oracle_label, premise_prf, saturate
from .terms import (
    Atom,
    Entity,
    Fact,
    KnowledgeBase,
    Literal,
    Rule,
    attr,
    contradicts,
    rel,
    substitute,
    unify,
)

__version__ = "0.1.0"
