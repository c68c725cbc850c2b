"""Ground truth by exhaustive forward saturation.

The closure is a knowledge base holding every derivable fact at its minimal
depth, each citing one canonical derivation (lowest rule id, then smallest
premise ids), which is enough to label any hypothesis and to extract a
reference proof.  Premise precision and recall against that reference use
exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import Direction, ProofTrace, TraceStep, _check_payload, _deduction_payload
from .language import Hypothesis, Label, Problem
from .modules import Derivation, FactCheckResult
from .terms import (
    Fact,
    KnowledgeBase,
    Literal,
    constants_in_order,
    instance_binding,
    rule_bindings,
    substitute_partial,
)


def saturate(kb: KnowledgeBase) -> KnowledgeBase:
    """Breadth-layered fixpoint: layer k holds exactly the facts of minimal
    depth k, each citing its canonical depth-k derivation (lowest rule id,
    then smallest premise ids).  Applying any rule to the result yields
    nothing new.

    Terminates because the ground literal space is finite (constants times
    adjectives plus constant pairs times verbs, both signs).
    """
    facts = list(kb.facts)
    known: dict[Literal, int] = {f.literal: f.id for f in facts}

    while True:
        candidates = constants_in_order(known)
        found: dict[Literal, tuple[int, tuple[int, ...]]] = {}
        for rule in kb.rules:
            for binding, premises in rule_bindings(rule, known, candidates):
                conclusion = substitute_partial(rule.consequent, binding)
                if conclusion in known:
                    continue
                best = found.get(conclusion)
                if best is None or (rule.id, premises) < best:
                    found[conclusion] = (rule.id, premises)
        if not found:
            break
        for literal, (rule_id, premises) in found.items():
            depth = 1 + max(facts[p - 1].depth for p in premises)
            facts.append(Fact(len(facts) + 1, literal, rule_id, premises, depth))
            known[literal] = len(facts)
    return KnowledgeBase(tuple(facts), kb.rules)


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
        """Render the proof as a trace of one deduction per derived node, then
        the check of the proved literal; replay re-runs it as the
        ``reference`` engine."""
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
        trace = ProofTrace(engine="reference", problem=meta)
        for i, node in enumerate(nodes, start=1):
            premises = tuple(replay_id.get(c.fact_id, c.fact_id) for c in node.children)
            replay_id[node.fact_id] = self.given_count + i
            derived = Derivation(node.literal, node.rule_id, premises, node.binding)
            trace.steps.append(TraceStep(i, Direction.FORWARD.value, "logic_deduce",
                                         _deduction_payload((node.rule_id,), (derived,))))
        evidence = replay_id.get(self.root.fact_id, self.root.fact_id)
        trace.steps.append(TraceStep(
            len(trace.steps) + 1, Direction.FORWARD.value, "fact_check",
            _check_payload(Hypothesis(self.root.literal),
                           FactCheckResult(Label.PROVED, evidence=evidence))))
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


def extract_reference(closure: KnowledgeBase, target: Fact,
                      kb: KnowledgeBase) -> ReferenceProof:
    """Minimal-depth proof tree following each fact's canonical derivation."""
    memo: dict[int, ProofNode] = {}

    def build(entry: Fact) -> ProofNode:
        cached = memo.get(entry.id)
        if cached is not None:
            return cached
        if entry.given:
            node = ProofNode(entry.literal, entry.id)
        else:
            children = tuple(build(closure.fact(p)) for p in entry.premises)
            binding = instance_binding(kb.rule(entry.rule_id),
                                       [c.literal for c in children])
            node = ProofNode(entry.literal, entry.id, entry.rule_id, children,
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
