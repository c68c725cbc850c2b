"""Ground and template literals, unification, and the knowledge base.

The term language is deliberately small: an entity is a lowercase constant or
the single rule-local variable; an atom is either an attribute of one entity
or a binary relation between two; a literal is a signed atom.  Rules carry at
most one distinct variable, so unification never needs an occurs check or
binding chains.  The knowledge base owns the one join of rules against its
facts (``KnowledgeBase.instances``), shared by saturation, the symbolic
modules and remote reconstruction, and the one rule that settles a literal
(``KnowledgeBase.decide``), shared by fact checks, engines and the oracle.

The join is driven by facts: each joined fact newer than ``since`` is
matched against the given rules' conditions, indexed by predicate, sign and
arity, and only the bindings those matches name are looked up in full.
``since=0`` is the whole join; saturation passes the previous store length,
so each layer joins only the facts the last layer added (semi-naive
evaluation).  Stores are append-only: a child store copies its parent's
literal index and extends it with the appended facts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


class UnboundVariableError(Exception):
    """Raised when substitution meets a variable with no binding entry."""


_RESERVED = frozenset(
    {"the", "if", "then", "and", "is", "are", "not", "does", "do",
     "someone", "they", "them"}
)


@dataclass(frozen=True, slots=True)
class Entity:
    """A constant (lowercase token) or a named variable."""

    name: str
    variable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("entity name must be non-empty")
        if not self.variable:
            if self.name != self.name.lower() or any(c.isspace() for c in self.name):
                raise ValueError(f"constant {self.name!r} must be lowercase, no whitespace")
            if self.name in _RESERVED:
                raise ValueError(f"{self.name!r} is a reserved word")

    def __str__(self) -> str:
        return f"?{self.name}" if self.variable else self.name


#: The canonical variable bound by "someone"/"they" inside a rule.
VAR = Entity("x", variable=True)


@dataclass(frozen=True, slots=True)
class Atom:
    """Attribute atom (obj is None) or binary relation atom.

    ``predicate`` holds the adjective, or the verb in third-person singular
    form; comparison is exact token equality, normalization is the parser's
    job.
    """

    subject: Entity
    predicate: str
    obj: Entity | None = None

    @property
    def is_relation(self) -> bool:
        return self.obj is not None

    def entities(self) -> tuple[Entity, ...]:
        return (self.subject,) if self.obj is None else (self.subject, self.obj)

    def constants(self) -> frozenset[str]:
        return frozenset(e.name for e in self.entities() if not e.variable)

    def variables(self) -> frozenset[Entity]:
        return frozenset(e for e in self.entities() if e.variable)

    def __str__(self) -> str:
        if self.obj is None:
            return f"{self.predicate}({self.subject})"
        return f"{self.predicate}({self.subject}, {self.obj})"


@dataclass(frozen=True, slots=True)
class Literal:
    """A signed atom.  Negation of a negation is not representable."""

    atom: Atom
    positive: bool = True

    @property
    def is_ground(self) -> bool:
        a = self.atom
        return not a.subject.variable and (a.obj is None or not a.obj.variable)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def constants(self) -> frozenset[str]:
        return self.atom.constants()

    def variables(self) -> frozenset[Entity]:
        return self.atom.variables()

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"~{self.atom}"


def attr(subject: Entity | str, adjective: str, positive: bool = True) -> Literal:
    """Build an attribute literal; a plain string subject means a constant."""
    if isinstance(subject, str):
        subject = Entity(subject)
    return Literal(Atom(subject, adjective), positive)


def rel(verb: str, subject: Entity | str, obj: Entity | str, positive: bool = True) -> Literal:
    """Build a relation literal; plain string entities mean constants."""
    if isinstance(subject, str):
        subject = Entity(subject)
    if isinstance(obj, str):
        obj = Entity(obj)
    return Literal(Atom(subject, verb, obj), positive)


#: A variable-to-entity mapping.  Rule-level unification produces at most one
#: entry; goal-decomposition machinery may carry several named scopes.
Binding = dict[Entity, Entity]


def unify(template: Literal, ground: Literal) -> Binding | None:
    """Match a template literal against a ground one.

    Returns the binding ({} when the template is itself ground and equal),
    or None when polarity, shape, or any constant position disagrees, or the
    variable would need two different constants.
    """
    if not ground.is_ground:
        raise ValueError("second argument to unify must be ground")
    if template.positive != ground.positive:
        return None
    t, g = template.atom, ground.atom
    if t.predicate != g.predicate or t.is_relation != g.is_relation:
        return None
    binding: Binding = {}
    for te, ge in zip(t.entities(), g.entities()):
        if te.variable:
            bound = binding.get(te)
            if bound is None:
                binding[te] = ge
            elif bound != ge:
                return None
        elif te != ge:
            return None
    return binding


def substitute(template: Literal, binding: Binding) -> Literal:
    """Apply a binding to every variable occurrence in the template.

    Raises UnboundVariableError if a variable has no entry.  Bindings may map
    variables to other variables (used when goals are renamed across scopes).
    """

    def resolve(e: Entity) -> Entity:
        if not e.variable:
            return e
        if e not in binding:
            raise UnboundVariableError(f"no binding for {e}")
        return binding[e]

    a = template.atom
    subject = resolve(a.subject)
    obj = resolve(a.obj) if a.obj is not None else None
    if subject == a.subject and obj == a.obj:
        return template
    return Literal(Atom(subject, a.predicate, obj), template.positive)


def substitute_partial(template: Literal, mapping: Binding) -> Literal:
    """Apply a binding to the variables it covers, leaving the rest in place."""

    def resolve(e: Entity) -> Entity:
        return mapping.get(e, e) if e.variable else e

    a = template.atom
    subject = resolve(a.subject)
    obj = resolve(a.obj) if a.obj is not None else None
    if subject == a.subject and obj == a.obj:
        return template
    return Literal(Atom(subject, a.predicate, obj), template.positive)


def constants_in_order(literals: Iterable[Literal]) -> tuple[str, ...]:
    """Constant names in first-appearance order over the literals."""
    out: dict[str, None] = {}
    for lit in literals:
        for e in lit.atom.entities():
            if not e.variable:
                out.setdefault(e.name)
    return tuple(out)


def instance_binding(rule: Rule, grounds: Sequence[Literal]) -> Binding | None:
    """The binding under which the rule's conditions are exactly the given
    ground literals, in order; None when there is none."""
    if len(grounds) != len(rule.conditions):
        return None
    binding: Binding = {}
    for template, ground in zip(rule.conditions, grounds):
        b = unify(template, ground)
        if b is None:
            return None
        for v, e in b.items():
            if binding.setdefault(v, e) != e:
                return None
    return binding


def contradicts(a: Literal, b: Literal) -> bool:
    """True iff the two ground literals share an atom with opposite signs."""
    return a.atom == b.atom and a.positive != b.positive


def term_string(lit: Literal) -> str:
    """Unambiguous structural form, e.g. ``~chases(?x, cow)``; see literal_from_term."""
    return str(lit)


def literal_from_term(text: str) -> Literal:
    """Inverse of term_string, used when traces are re-loaded from disk."""
    text = text.strip()
    positive = True
    if text.startswith("~"):
        positive = False
        text = text[1:]
    head, _, rest = text.partition("(")
    args = rest.rstrip(")").split(",")
    entities = []
    for raw in args:
        raw = raw.strip()
        if raw.startswith("?"):
            entities.append(Entity(raw[1:], variable=True))
        else:
            entities.append(Entity(raw))
    if len(entities) == 1:
        return Literal(Atom(entities[0], head), positive)
    if len(entities) == 2:
        return Literal(Atom(entities[0], head, entities[1]), positive)
    raise ValueError(f"bad term: {text!r}")


@dataclass(frozen=True, slots=True)
class Fact:
    """A ground literal with provenance.

    Given facts have rule_id None and depth 0; derived facts cite exactly one
    rule and at least one premise fact, with depth one past their deepest
    premise.
    """

    id: int
    literal: Literal
    rule_id: int | None = None
    premises: tuple[int, ...] = ()
    depth: int = 0

    def __post_init__(self) -> None:
        if not self.literal.is_ground:
            raise ValueError("facts must be ground")
        if self.rule_id is None:
            if self.premises or self.depth != 0:
                raise ValueError("given facts have no premises and depth 0")
        elif not self.premises:
            raise ValueError("derived facts must cite at least one premise")

    @property
    def given(self) -> bool:
        return self.rule_id is None


@dataclass(frozen=True, slots=True)
class Rule:
    """conditions (a conjunction of literal templates) -> consequent."""

    id: int
    conditions: tuple[Literal, ...]
    consequent: Literal

    def __post_init__(self) -> None:
        if not self.conditions:
            raise ValueError("rules need at least one condition")
        used = set().union(*(c.variables() for c in self.conditions), self.consequent.variables())
        if len(used) > 1:
            raise ValueError("a rule may bind at most one variable")
        if self.consequent.variables() and not any(c.variables() for c in self.conditions):
            raise ValueError("a variable in the consequent must appear in a condition")

    def variable(self) -> Entity | None:
        for lit in self.conditions:  # a consequent's variable is also a condition's
            for e in lit.atom.entities():
                if e.variable:
                    return e
        return None


class KnowledgeBase:
    """Immutable fact/rule store, deduplicated and indexed by literal.

    Fact ids are 1-based insertion positions (the numbering used when
    premises are rendered for prompts and reports).  ``add_given`` and
    ``add_derived`` return a new store built on a copy of this one's literal
    index, so stores can be shared freely across evaluations and two
    children of one store never see each other's facts.  ``instances`` is
    the one join of rules against stored facts, ``decide`` the one rule that
    settles a literal.
    """

    __slots__ = ("facts", "rules", "_by_literal", "_rule_by_id", "consistent")

    def __init__(self, facts: tuple[Fact, ...] = (), rules: tuple[Rule, ...] = ()):
        self.facts = facts
        self.rules = rules
        self._by_literal: dict[Literal, int] = {}
        self.consistent = True
        for position, f in enumerate(facts, start=1):
            if f.literal in self._by_literal:
                raise ValueError(f"duplicate fact literal: {f.literal}")
            self._by_literal[f.literal] = position
        for f in facts:
            if f.literal.negated() in self._by_literal:
                self.consistent = False
                break
        self._rule_by_id = {r.id: r for r in rules}

    def _extend(self, facts: list[Fact], by_literal: dict[Literal, int]) -> "KnowledgeBase":
        """The child store holding ``facts`` (this store's, then new ones) and
        their index; only the new facts are checked for consistency."""
        child = object.__new__(KnowledgeBase)
        child.facts = tuple(facts)
        child.rules = self.rules
        child._by_literal = by_literal
        child._rule_by_id = self._rule_by_id
        child.consistent = self.consistent and not any(
            f.literal.negated() in by_literal for f in facts[len(self.facts):])
        return child

    @classmethod
    def from_literals(cls, literals: list[Literal] | tuple[Literal, ...],
                      rules: tuple[Rule, ...] = ()) -> "KnowledgeBase":
        """Build a store of given facts, keeping the first of any duplicate literal."""
        facts: list[Fact] = []
        seen: set[Literal] = set()
        for lit in literals:
            if lit in seen:
                continue
            seen.add(lit)
            facts.append(Fact(id=len(facts) + 1, literal=lit))
        return cls(tuple(facts), rules)

    def fact(self, fact_id: int) -> Fact:
        if not 1 <= fact_id <= len(self.facts):
            raise IndexError(f"fact id {fact_id} outside 1..{len(self.facts)}")
        return self.facts[fact_id - 1]

    def has_fact(self, fact_id: int | None, literal: Literal) -> bool:
        """Is ``fact_id`` a stored fact whose literal is ``literal``?"""
        return fact_id is not None and self._by_literal.get(literal) == fact_id

    def rule(self, rule_id: int) -> Rule:
        return self._rule_by_id[rule_id]

    def lookup(self, literal: Literal) -> Fact | None:
        fact_id = self._by_literal.get(literal)
        return None if fact_id is None else self.facts[fact_id - 1]

    def instances(self, rules: Iterable[Rule], among: Iterable[int] | None = None,
                  since: int = 0,
                  ) -> Iterator[tuple[Rule, Literal, Binding, tuple[int, ...]]]:
        """The join: every instance of each rule whose conditions are all
        stored facts and which cites a fact with id above ``since``, as
        (rule, conclusion, binding, premise ids).

        The joined facts are the whole store or, with ``among``, only the
        facts with those ids.  Rules go in the order given; a rule's variable
        tries the constants by first appearance over the joined facts.  The
        output is the full join (``since=0``) filtered to the instances with
        ``max(premises) > since``, in the same order.  Only the bindings that
        put a condition on a joined fact newer than ``since`` are tried: every
        constant when a ground condition matched one, none for a rule that
        matched none.
        """
        known = self._by_literal
        if among is not None:
            ids = set(among)
            known = {lit: i for lit, i in known.items() if i in ids}
        rules = list(rules)
        by_shape: dict[tuple[str, bool, bool], list[tuple[int, Literal]]] = {}
        for position, rule in enumerate(rules):
            for cond in rule.conditions:
                a = cond.atom
                by_shape.setdefault((a.predicate, cond.positive, a.obj is None),
                                    []).append((position, cond))
        # rule position -> constants worth trying; None means every constant
        tries: dict[int, set[Entity] | None] = {}
        new = (f.literal for f in self.facts[since:]) if among is None else (
            lit for lit, i in known.items() if i > since)
        for lit in new:
            a = lit.atom
            for position, cond in by_shape.get((a.predicate, lit.positive, a.obj is None), ()):
                binding = unify(cond, lit)
                if binding is None:
                    continue
                if not binding:
                    tries[position] = None
                elif tries.setdefault(position, set()) is not None:
                    tries[position].update(binding.values())
        if not tries:
            return
        order: dict[Entity, None] = {}
        for lit in known:
            for e in lit.atom.entities():
                order[e] = None
        for position, rule in enumerate(rules):
            if position not in tries:
                continue
            var = rule.variable()
            if var is None:
                bindings: Iterable[Binding] = [{}]
            else:
                wanted = tries[position]
                bindings = ({var: c} for c in order if wanted is None or c in wanted)
            for binding in bindings:
                premises = []
                for cond in rule.conditions:
                    fact_id = known.get(substitute_partial(cond, binding))
                    if fact_id is None:
                        break
                    premises.append(fact_id)
                else:  # every binding tried puts a condition on a fact newer than since
                    yield (rule, substitute_partial(rule.consequent, binding), binding,
                           tuple(premises))

    def decide(self, goal: Literal) -> Fact | None:
        """The stored fact that settles a goal: its negation's when there is
        one (a stored negation wins), else its own, else None."""
        fact_id = self._by_literal.get(goal.negated()) or self._by_literal.get(goal)
        return None if fact_id is None else self.facts[fact_id - 1]

    def holds(self, goal: Literal) -> bool:
        """Does the goal's own fact settle it?"""
        return goal in self._by_literal and goal.negated() not in self._by_literal

    def add_given(self, literal: Literal) -> "KnowledgeBase":
        """Insert one given fact; a duplicate literal leaves the store unchanged."""
        if literal in self._by_literal:
            return self
        facts = [*self.facts, Fact(id=len(self.facts) + 1, literal=literal)]
        return self._extend(facts, {**self._by_literal, literal: len(facts)})

    def add_derived(self, entries: list[tuple[Literal, int, tuple[int, ...]]]) -> "KnowledgeBase":
        """Insert derived facts (literal, rule_id, premise ids), skipping duplicates;
        each premise id must name a stored fact or an earlier entry of the batch."""
        facts = list(self.facts)
        by_literal = dict(self._by_literal)
        for literal, rule_id, premises in entries:
            if min(premises, default=0) < 1 or max(premises) > len(facts):
                raise ValueError(f"premises {list(premises)} of {literal} outside 1..{len(facts)}")
            if literal in by_literal:
                continue
            depth = 1 + max(facts[p - 1].depth for p in premises)
            facts.append(Fact(id=len(facts) + 1, literal=literal,
                              rule_id=rule_id, premises=premises, depth=depth))
            by_literal[literal] = len(facts)
        if len(facts) == len(self.facts):
            return self
        return self._extend(facts, by_literal)

    def constants(self) -> tuple[str, ...]:
        """Constant names in first-appearance order over facts, then rules."""
        return constants_in_order([*(f.literal for f in self.facts),
                                   *(lit for r in self.rules
                                     for lit in (*r.conditions, r.consequent))])

    def __len__(self) -> int:
        return len(self.facts)
