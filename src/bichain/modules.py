"""The reasoning-module contracts and their deterministic symbolic backend.

Engines program against ModuleBackend: seven module calls (fact
identification, forward and backward rule selection, deduction, abduction,
fact check, and confusion check) plus three hooks through which a backend
sees the problem and reports back.  The symbolic backend resolves every
contract by exact unification against the knowledge base, forward selection
and deduction through its join (``KnowledgeBase.instances``); the remote
backend (bichain.remote) answers the same contracts over the wire.

Every operation is pure.  Call accounting lives in the engine: one module
invocation is one inference call, whichever backend serves it.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from typing import Protocol

from .language import Hypothesis, Label, Problem
from .terms import (
    Binding,
    Entity,
    KnowledgeBase,
    Literal,
    Rule,
    substitute,
    substitute_partial,
    unify,
)


@dataclass(frozen=True)
class RuleSelection:
    """Selected rule ids; ``bridge`` marks a rule that both fires from the
    known facts and concludes the goal.  Backward selections group rule ids
    per goal literal."""

    rule_ids: tuple[int, ...]
    bridge: int | None = None
    by_goal: tuple[tuple[Literal, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.bridge is not None and self.bridge not in self.rule_ids:
            raise ValueError("bridge must be part of the selection")

    def __bool__(self) -> bool:
        return bool(self.rule_ids)


@dataclass(frozen=True)
class Derivation:
    """One new ground fact: rule id, premise fact ids, and the binding used."""

    literal: Literal
    rule_id: int
    premises: tuple[int, ...]
    binding: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DeductionStep:
    derived: tuple[Derivation, ...] = ()

    def literals(self) -> tuple[Literal, ...]:
        return tuple(d.literal for d in self.derived)

    def __bool__(self) -> bool:
        return bool(self.derived)


class GoalStatus(enum.Enum):
    OPEN = "Open"
    PROVEN = "Proven"
    CONTRADICTED = "Contradicted"


@dataclass(frozen=True)
class Goal:
    """A pending sub-goal; template goals record the constant that proved them."""

    literal: Literal
    status: GoalStatus = GoalStatus.OPEN
    fact_id: int | None = None
    binding: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class GoalSet:
    """A conjunction of sub-goals explaining ``target`` via ``origin_rule``.

    ``unifier`` maps the rule's variable, ``commitments`` pin down target
    variables forced by constants in the rule consequent.  Both are kept for
    trace replay.
    """

    goals: tuple[Goal, ...]
    origin_rule: int | None = None
    target: Literal | None = None
    unifier: tuple[tuple[str, str], ...] = ()
    commitments: tuple[tuple[str, str], ...] = ()

    @property
    def satisfied(self) -> bool:
        return all(g.status is GoalStatus.PROVEN for g in self.goals)

    @property
    def failed(self) -> bool:
        return any(g.status is GoalStatus.CONTRADICTED for g in self.goals)

    def open_goals(self) -> tuple[Goal, ...]:
        return tuple(g for g in self.goals if g.status is GoalStatus.OPEN)

    def signature(self) -> tuple[str, ...]:
        """Content key with variables renamed by first appearance (for dedup)."""
        names: dict[Entity, Entity] = {}
        return tuple(sorted(variant_key(g.literal, names) for g in self.goals))


def variant_key(literal: Literal, names: dict[Entity, Entity] | None = None) -> str:
    """The literal with variables renamed by first appearance, continuing
    ``names``; two literals are variants when their keys are equal."""
    names = {} if names is None else names
    for e in literal.atom.entities():
        if e.variable and e not in names:
            names[e] = Entity(f"v{len(names)}", variable=True)
    return str(substitute_partial(literal, names))


@dataclass(frozen=True)
class FactCheckResult:
    """Outcome of a fact check over a hypothesis or a goal-set frontier."""

    label: Label
    evidence: int | None = None
    goalsets: tuple[GoalSet, ...] | None = None
    satisfied: int | None = None  # index of the satisfied goal set, if any


@dataclass(frozen=True)
class ConsequentMatch:
    """How a rule consequent lines up with a (possibly template) goal."""

    rule_binding: Binding
    commitments: Binding


def serialize_binding(binding: Binding) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((v.name, str(e)) for v, e in binding.items()))


def deserialize_binding(pairs: Iterable[Sequence[str]]) -> Binding:
    """Inverse of serialize_binding; takes trace payload pair lists as they are."""
    out: Binding = {}
    for name, value in pairs:
        entity = Entity(value[1:], variable=True) if value.startswith("?") else Entity(value)
        out[Entity(name, variable=True)] = entity
    return out


def match_consequent(rule: Rule, goal: Literal) -> ConsequentMatch | None:
    """Unify a rule consequent with a goal that may itself hold variables.

    Rule-variable slots bind to whatever the goal holds (constant or goal
    variable); constant slots against a goal variable commit that variable.
    """
    cons = rule.consequent
    if cons.positive != goal.positive:
        return None
    c, g = cons.atom, goal.atom
    if c.predicate != g.predicate or c.is_relation != g.is_relation:
        return None
    rule_binding: Binding = {}
    commitments: Binding = {}

    def commit(goal_var: Entity, constant: Entity) -> bool:
        committed = commitments.get(goal_var)
        if committed is None:
            commitments[goal_var] = constant
            return True
        return committed == constant

    for ce, ge in zip(c.entities(), g.entities()):
        if ce.variable:
            bound = rule_binding.get(ce)
            if bound is None or bound == ge:
                rule_binding[ce] = ge
            elif bound.variable and not ge.variable:
                # repeated rule variable: the constant wins and pins the goal var
                if not commit(bound, ge):
                    return None
                rule_binding[ce] = ge
            elif not bound.variable and ge.variable:
                if not commit(ge, bound):
                    return None
            else:
                return None
        elif ge.variable:
            if not commit(ge, ce):
                return None
        elif ce != ge:
            return None
    # A rule variable facing two goal slots, one already committed, must agree.
    for v, target in list(rule_binding.items()):
        if target.variable and target in commitments:
            rule_binding[v] = commitments[target]
    return ConsequentMatch(rule_binding, commitments)


def abduce_goal_set(rule: Rule, goal: Literal) -> GoalSet | None:
    """The goal set proving ``goal`` through ``rule``: its conditions under the
    consequent's match, or None when the consequent does not match the goal.

    Conditions whose variable the unifier leaves free stay templates; the
    caller scopes them.  Commitments capture goal variables forced by
    constants in the consequent.
    """
    match = match_consequent(rule, goal)
    if match is None:
        return None
    return GoalSet(tuple(Goal(substitute_partial(c, match.rule_binding))
                         for c in rule.conditions),
                   origin_rule=rule.id, target=goal,
                   unifier=serialize_binding(match.rule_binding),
                   commitments=serialize_binding(match.commitments))


def check_hypothesis(consequent: Literal, kb: KnowledgeBase) -> FactCheckResult:
    """The knowledge base's own answer to a hypothesis fact check."""
    fact = kb.decide(consequent)
    if fact is None:
        return FactCheckResult(Label.UNKNOWN)
    return FactCheckResult(Label.PROVED if fact.literal == consequent else Label.DISPROVED,
                           evidence=fact.id)


def select_by_goal(goals: tuple[Literal, ...], rules: Sequence[Rule]) -> RuleSelection:
    """Backward selection: the given rules grouped per goal by whether their
    consequent matches it; the selection keeps the matched ones in order."""
    by_goal = []
    ordered: dict[int, None] = {}
    for goal in goals:
        ids = tuple(r.id for r in rules if match_consequent(r, goal) is not None)
        by_goal.append((goal, ids))
        ordered.update(dict.fromkeys(ids))
    return RuleSelection(tuple(ordered), by_goal=tuple(by_goal))


class TransportError(Exception):
    """The backend could not answer a module call (for the remote backend,
    the endpoint stayed unreachable after every retry)."""


class ModuleBackend(Protocol):
    """What an engine needs from a backend.

    One module method call is one inference call.  ``bind_problem`` is
    called once per evaluation before any module call and raises ValueError
    for a problem the backend cannot read (the symbolic backend refuses
    free-form statements); ``drain_responses`` hands over raw response
    records for the trace step just answered, and ``drain_warnings`` the
    warnings gathered so far.  Fact identification hands back fact ids, and
    forward selection takes them.  A method may raise ``TransportError``: the
    engine then ends the evaluation as Unknown with a warning.
    """

    def bind_problem(self, problem: Problem) -> None: ...

    def drain_warnings(self) -> list[str]: ...

    def drain_responses(self) -> list[dict]: ...

    def fact_identify(self, hypothesis: Hypothesis, kb: KnowledgeBase) -> tuple[int, ...]: ...

    def rule_select_forward(self, relevant: tuple[int, ...], kb: KnowledgeBase,
                            goals: tuple[Literal, ...]) -> RuleSelection: ...

    def rule_select_backward(self, goals: tuple[Literal, ...],
                             kb: KnowledgeBase) -> RuleSelection: ...

    def logic_deduce(self, selection: RuleSelection, kb: KnowledgeBase) -> DeductionStep: ...

    def logic_abduce(self, goal: Literal, selection: RuleSelection,
                     kb: KnowledgeBase) -> tuple[GoalSet, ...]: ...

    def fact_check(self, target: Hypothesis | tuple[GoalSet, ...],
                   kb: KnowledgeBase) -> FactCheckResult: ...

    def confusion_check(self, step: DeductionStep | tuple[GoalSet, ...]) -> bool: ...


class SymbolicBackend:
    """Exact-match ModuleBackend.

    Stateless; enumeration orders are fixed (rules by id, candidate constants
    by fact-insertion order) so every trace is reproducible.
    """

    def bind_problem(self, problem: Problem) -> None:
        """Refuse free-form statements: every answer comes from the knowledge base."""
        if problem.remote_only:
            raise ValueError("problem contains free-form statements; use the remote backend")

    def drain_warnings(self) -> list[str]:
        return []

    def drain_responses(self) -> list[dict]:
        return []

    # -- fact identification ------------------------------------------------

    def fact_identify(self, hypothesis: Hypothesis, kb: KnowledgeBase) -> tuple[int, ...]:
        if not kb.facts:
            raise ValueError("fact identification needs a non-empty knowledge base")
        wanted: set[str] = set(hypothesis.consequent.constants())
        for lit in hypothesis.condition:
            wanted |= lit.constants()
        ids = tuple(f.id for f in kb.facts if f.literal.constants() & wanted)
        return ids or tuple(f.id for f in kb.facts)

    # -- rule selection -----------------------------------------------------

    def rule_select_forward(self, relevant: tuple[int, ...], kb: KnowledgeBase,
                            goals: tuple[Literal, ...]) -> RuleSelection:
        """Applicable rules, or the single bridging rule when one exists.

        A bridge both fires from the relevant facts and concludes one of the
        goal literals (whatever the backward side currently needs, none for
        goal-blind forward chaining); selection then collapses to it, lowest
        rule id first.  Goal literals may be templates.
        """
        applicable: dict[int, None] = {}
        for rule, consequent, _, _ in kb.instances(kb.rules, among=relevant):
            applicable[rule.id] = None
            if kb.lookup(consequent) is not None:
                continue  # a bridge must still have something to derive
            for target in goals:
                if target.is_ground:
                    if consequent == target:
                        return RuleSelection((rule.id,), bridge=rule.id)
                elif unify(target, consequent) is not None:
                    return RuleSelection((rule.id,), bridge=rule.id)
        return RuleSelection(tuple(applicable))

    def rule_select_backward(self, goals: tuple[Literal, ...], kb: KnowledgeBase) -> RuleSelection:
        """Rules whose consequent unifies with any of the open goals."""
        return select_by_goal(goals, kb.rules)

    # -- deduction / abduction ----------------------------------------------

    def logic_deduce(self, selection: RuleSelection, kb: KnowledgeBase) -> DeductionStep:
        """Instantiate every selected rule against the current fact set.

        Novel consequents only, deduplicated by literal; each derivation
        records its rule, premises, and binding for later replay.
        """
        if not selection.rule_ids:
            raise ValueError("deduction needs a non-empty rule selection")
        derived: list[Derivation] = []
        emitted: set[Literal] = set()
        for rule, literal, binding, premises in kb.instances(
                kb.rule(i) for i in selection.rule_ids):
            if kb.lookup(literal) is not None or literal in emitted:
                continue
            emitted.add(literal)
            derived.append(Derivation(literal, rule.id, premises, serialize_binding(binding)))
        return DeductionStep(tuple(derived))

    def logic_abduce(self, goal: Literal, selection: RuleSelection,
                     kb: KnowledgeBase) -> tuple[GoalSet, ...]:
        """One goal set per selected rule (see abduce_goal_set)."""
        out = []
        for rule_id in selection.rule_ids:
            gs = abduce_goal_set(kb.rule(rule_id), goal)
            if gs is None:
                raise ValueError(f"rule {rule_id} does not unify with {goal}")
            out.append(gs)
        return tuple(out)

    # -- fact check ----------------------------------------------------------

    def _check_goalset(self, gs: GoalSet, kb: KnowledgeBase) -> GoalSet:
        goals = list(gs.goals)
        scopes: dict[Entity, list[int]] = {}
        for i, g in enumerate(goals):
            lit = g.literal
            if lit.is_ground:
                fact = kb.decide(lit)
                if fact is None:
                    goals[i] = replace(g, status=GoalStatus.OPEN, fact_id=None)
                elif fact.literal == lit:
                    goals[i] = replace(g, status=GoalStatus.PROVEN, fact_id=fact.id)
                else:
                    goals[i] = replace(g, status=GoalStatus.CONTRADICTED, fact_id=fact.id)
            else:
                for v in lit.variables():
                    scopes.setdefault(v, []).append(i)
        # Template goals sharing a variable must hold under one constant; the
        # first satisfying constant in fact-insertion order is bound.
        for var, indices in scopes.items():
            chosen: Binding | None = None
            first = goals[indices[0]].literal
            for fact in kb.facts:
                binding = unify(first, fact.literal)
                if binding is None:
                    continue
                if all(kb.holds(substitute(goals[i].literal, binding)) for i in indices):
                    chosen = binding
                    break
            for i in indices:
                if chosen is None:
                    goals[i] = replace(goals[i], status=GoalStatus.OPEN,
                                       fact_id=None, binding=())
                else:
                    ground = substitute(goals[i].literal, chosen)
                    goals[i] = replace(goals[i], status=GoalStatus.PROVEN,
                                       fact_id=kb.lookup(ground).id,
                                       binding=serialize_binding(chosen))
        return replace(gs, goals=tuple(goals))

    def fact_check(self, target: Hypothesis | tuple[GoalSet, ...],
                   kb: KnowledgeBase) -> FactCheckResult:
        """Proved/Disproved/Unknown for a hypothesis, or goal-set statuses.

        For a goal-set frontier the label is Proved as soon as one set is
        fully proven; failed alternatives never disprove the hypothesis
        (open-world reading).
        """
        if isinstance(target, Hypothesis):
            return check_hypothesis(target.consequent, kb)
        updated = tuple(self._check_goalset(gs, kb) for gs in target)
        satisfied = next((i for i, gs in enumerate(updated) if gs.satisfied), None)
        label = Label.PROVED if satisfied is not None else Label.UNKNOWN
        return FactCheckResult(label, goalsets=updated, satisfied=satisfied)

    # -- confusion check ------------------------------------------------------

    def confusion_check(self, step: DeductionStep | tuple[GoalSet, ...]) -> bool:
        """True iff one step yielded two or more distinct conclusions or
        candidate goal sets for the same goal."""
        if isinstance(step, DeductionStep):
            return len(set(step.literals())) >= 2
        per_target: dict[str, set[tuple[str, ...]]] = {}
        for gs in step:
            key = str(gs.target)
            per_target.setdefault(key, set()).add(gs.signature())
        return any(len(sigs) >= 2 for sigs in per_target.values())
