"""Ground truth by exhaustive forward saturation.

The closure holds every derivable fact at its minimal depth together with
all minimal-depth derivation alternatives, which is enough to label any
hypothesis and to extract a canonical reference proof.  Premise precision
and recall against that reference use exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .engine import Direction, ProofTrace, TraceStep
from .language import Hypothesis, Label, Problem, render_literal
from .terms import (
    Binding,
    KnowledgeBase,
    Literal,
    constants_in_order,
    rule_bindings,
    substitute_partial,
    term_string,
)


@dataclass(frozen=True)
class ClosureFact:
    """One derivable literal: minimal depth plus every derivation reaching it
    at that depth (rule id, premise closure-fact ids)."""

    id: int
    literal: Literal
    depth: int
    derivations: tuple[tuple[int, tuple[int, ...]], ...] = ()

    @property
    def given(self) -> bool:
        return not self.derivations


@dataclass
class Closure:
    """Saturation fixpoint: applying any rule yields nothing new."""

    facts: tuple[ClosureFact, ...]
    consistent: bool
    _by_literal: dict[Literal, ClosureFact] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_literal = {f.literal: f for f in self.facts}

    def lookup(self, literal: Literal) -> ClosureFact | None:
        return self._by_literal.get(literal)

    def fact(self, fact_id: int) -> ClosureFact:
        return self.facts[fact_id - 1]

    def __len__(self) -> int:
        return len(self.facts)


def saturate(kb: KnowledgeBase) -> Closure:
    """Breadth-layered fixpoint: layer k holds exactly the facts of minimal
    depth k, each with all of its depth-k derivations.

    Terminates because the ground literal space is finite (constants times
    adjectives plus constant pairs times verbs, both signs).
    """
    facts: list[ClosureFact] = [
        ClosureFact(f.id, f.literal, 0) for f in kb.facts
    ]
    known: dict[Literal, int] = {f.literal: f.id for f in facts}
    consistent = all(f.literal.negated() not in known for f in facts)

    while True:
        candidates = constants_in_order(known)
        found: dict[Literal, list[tuple[int, tuple[int, ...]]]] = {}
        for rule in kb.rules:
            for binding, premises in rule_bindings(rule, known, candidates):
                conclusion = substitute_partial(rule.consequent, binding)
                if conclusion in known:
                    continue
                derivations = found.setdefault(conclusion, [])
                if (rule.id, premises) not in derivations:
                    derivations.append((rule.id, premises))
        if not found:
            break
        for literal, derivations in found.items():
            derivations = tuple(sorted(derivations))
            depth = 1 + max(max(facts[p - 1].depth for p in premises)
                            for _, premises in derivations)
            entry = ClosureFact(len(facts) + 1, literal, depth, derivations)
            facts.append(entry)
            known[literal] = entry.id
            if literal.negated() in known:
                consistent = False
    return Closure(tuple(facts), consistent)


@dataclass(frozen=True)
class ProofNode:
    """Reference-proof node: a given-fact leaf or one rule application."""

    literal: Literal
    fact_id: int
    rule_id: int | None = None
    children: tuple["ProofNode", ...] = ()
    binding: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class ReferenceProof:
    """Minimal-depth derivation of the hypothesis (or of its negation)."""

    root: ProofNode
    given_count: int

    def premises(self) -> frozenset[tuple[str, int]]:
        """Unique given facts and rules used, as ("fact"/"rule", id) pairs."""
        out: set[tuple[str, int]] = set()

        def walk(node: ProofNode) -> None:
            if node.rule_id is None:
                out.add(("fact", node.fact_id))
                return
            out.add(("rule", node.rule_id))
            for child in node.children:
                walk(child)

        walk(self.root)
        return frozenset(out)

    def to_trace(self, label: Label, meta: str = "") -> ProofTrace:
        """Render the proof as a forward trace that replay validation accepts."""
        nodes: list[ProofNode] = []
        seen: set[Literal] = set()

        def collect(node: ProofNode) -> None:
            for child in node.children:
                collect(child)
            if node.rule_id is not None and node.literal not in seen:
                seen.add(node.literal)
                nodes.append(node)

        collect(self.root)
        replay_id: dict[int, int] = {}
        next_id = self.given_count + 1
        trace = ProofTrace(engine="reference", problem=meta)
        for i, node in enumerate(nodes, start=1):
            premises = tuple(replay_id.get(c.fact_id, c.fact_id) for c in node.children)
            replay_id[node.fact_id] = next_id
            derived = [{"term": term_string(node.literal),
                        "text": render_literal(node.literal),
                        "rule": node.rule_id, "premises": list(premises),
                        "binding": [list(p) for p in node.binding]}]
            trace.steps.append(TraceStep(i, Direction.FORWARD.value, "logic_deduce",
                                         {"rules": [node.rule_id], "derived": derived}))
            next_id += 1
        evidence = replay_id.get(self.root.fact_id, self.root.fact_id)
        trace.steps.append(TraceStep(len(trace.steps) + 1, Direction.FORWARD.value,
                                     "fact_check",
                                     {"kind": "hypothesis",
                                      "target": term_string(self.root.literal),
                                      "label": Label.PROVED.value,
                                      "evidence": evidence}))
        trace.label = label
        trace.resolution = {"kind": "fact", "fact": evidence}
        return trace


def oracle_label(problem: Problem, hypothesis: Hypothesis | None = None,
                 ) -> tuple[Label, ReferenceProof | None]:
    """Gold label by saturation, with a canonical reference proof.

    A hypothesis condition is asserted before saturating.  When both the
    consequent and its negation are derivable (inconsistent base) the
    negation wins, mirroring fact-level entailment.
    """
    hypothesis = hypothesis or problem.hypothesis
    if hypothesis is None:
        raise ValueError("oracle_label needs a single hypothesis")
    kb = problem.kb
    for lit in hypothesis.condition:
        kb = kb.add_given(lit)
    closure = saturate(kb)
    q = hypothesis.consequent
    negative = closure.lookup(q.negated())
    positive = closure.lookup(q)
    if negative is not None:
        return Label.DISPROVED, extract_reference(closure, negative, kb)
    if positive is not None:
        return Label.PROVED, extract_reference(closure, positive, kb)
    return Label.UNKNOWN, None


def extract_reference(closure: Closure, target: ClosureFact,
                      kb: KnowledgeBase) -> ReferenceProof:
    """Minimal-depth proof tree; alternatives break ties by lowest rule id,
    then lexicographically smallest premise ids."""
    from .terms import unify

    memo: dict[int, ProofNode] = {}

    def build(entry: ClosureFact) -> ProofNode:
        cached = memo.get(entry.id)
        if cached is not None:
            return cached
        if entry.given:
            node = ProofNode(entry.literal, entry.id)
        else:
            rule_id, premises = min(entry.derivations)
            children = tuple(build(closure.fact(p)) for p in premises)
            binding: Binding = {}
            for template, child in zip(kb.rule(rule_id).conditions, children):
                b = unify(template, child.literal)
                if b:
                    binding.update(b)
            node = ProofNode(entry.literal, entry.id, rule_id, children,
                             tuple(sorted((v.name, e.name) for v, e in binding.items())))
        memo[entry.id] = node
        return node

    return ReferenceProof(build(target), given_count=len(kb.facts))


def trace_premises(trace: ProofTrace, given_count: int) -> frozenset[tuple[str, int]]:
    """Unique given facts and rules cited across a trace's steps."""
    out: set[tuple[str, int]] = set()
    for step in trace.steps:
        p = step.payload
        if step.module == "logic_deduce":
            for d in p.get("derived", []):
                out.add(("rule", d["rule"]))
                for pid in d.get("premises", []):
                    if pid <= given_count:
                        out.add(("fact", pid))
        elif step.module == "logic_abduce":
            for s in p.get("sets", []):
                if s.get("origin_rule") is not None:
                    out.add(("rule", s["origin_rule"]))
        elif step.module == "fact_check":
            if p.get("kind") == "hypothesis":
                evidence = p.get("evidence")
                if evidence is not None and evidence <= given_count:
                    out.add(("fact", evidence))
            else:
                for rendered in p.get("nodes", []):
                    for g in rendered.get("goals", []):
                        fid = g.get("fact")
                        if fid is not None and fid <= given_count:
                            out.add(("fact", fid))
    return frozenset(out)


def premise_prf(trace: ProofTrace, ref: ReferenceProof) -> tuple[Fraction, Fraction]:
    """Precision and recall of unique cited premises against the reference.

    Exact rationals; an empty prediction scores precision 0 against a
    non-empty reference.
    """
    predicted = trace_premises(trace, ref.given_count)
    reference = ref.premises()
    hits = len(predicted & reference)
    precision = Fraction(hits, len(predicted)) if predicted else (
        Fraction(0) if reference else Fraction(1))
    recall = Fraction(hits, len(reference)) if reference else Fraction(1)
    return precision, recall
