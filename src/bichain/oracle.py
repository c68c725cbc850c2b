"""Ground truth by exhaustive forward saturation.

The closure is a knowledge base holding every derivable fact at its minimal
depth, each citing one canonical derivation (lowest rule id, then smallest
premise ids), which is enough to label any hypothesis.  The reference proof
is the proved fact's canonical derivation in the closure, read in place.
Premise precision and recall against that reference use exact rational
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .engine import Direction, ProofTrace, TraceStep, _check_payload, _deduction_payload
from .language import Hypothesis, Label, Problem
from .modules import Derivation, FactCheckResult, serialize_binding
from .terms import Fact, KnowledgeBase, Literal, instance_binding


def saturate(kb: KnowledgeBase) -> KnowledgeBase:
    """Breadth-layered fixpoint: layer k holds exactly the facts of minimal
    depth k, each citing its canonical depth-k derivation (lowest rule id,
    then smallest premise ids).  Each layer is one ``kb.instances`` join over
    every rule, stored with ``add_derived``.  Applying any rule to the result
    yields nothing new.

    After the first layer the join is semi-naive: it is given the previous
    store length as ``since``, so it yields only the instances that cite a
    fact the last layer added.  This is exact, and closure ids do not move:
    every depth-k derivation of a literal not yet stored cites a depth-(k-1)
    fact, so each new conclusion's first occurrence in the full join, and its
    canonical (rule id, premises) minimum, are both in the delta join, in the
    same relative order.

    Terminates because the ground literal space is finite (constants times
    adjectives plus constant pairs times verbs, both signs).
    """
    since = 0
    while True:
        found: dict[Literal, tuple[int, tuple[int, ...]]] = {}
        for rule, conclusion, _, premises in kb.instances(kb.rules, since=since):
            if kb.lookup(conclusion) is not None:
                continue
            best = found.get(conclusion)
            if best is None or (rule.id, premises) < best:
                found[conclusion] = (rule.id, premises)
        if not found:
            return kb
        since = len(kb)
        kb = kb.add_derived([(literal, rule_id, premises)
                             for literal, (rule_id, premises) in found.items()])


@dataclass(frozen=True)
class ReferenceProof:
    """Minimal-depth proof of the hypothesis (or of its negation): the
    target fact's canonical derivation, read from the closure."""

    closure: KnowledgeBase
    target: Fact
    given_count: int

    def _facts(self) -> list[Fact]:
        """The proof's facts, each once and after its premises."""
        out: list[Fact] = []
        seen: set[int] = set()

        def visit(fact: Fact) -> None:
            if fact.id in seen:
                return
            seen.add(fact.id)
            for p in fact.premises:
                visit(self.closure.fact(p))
            out.append(fact)

        visit(self.target)
        return out

    def premises(self) -> frozenset[tuple[str, int]]:
        """Unique given facts and rules used, as ("fact"/"rule", id) pairs."""
        return frozenset(("fact", f.id) if f.given else ("rule", f.rule_id)
                         for f in self._facts())

    def to_trace(self, label: Label, meta: str = "") -> ProofTrace:
        """Render the proof as a trace of one deduction per derived fact, then
        the check of the proved literal; replay re-runs it as the
        ``reference`` engine."""
        replay_id: dict[int, int] = {}
        trace = ProofTrace(engine="reference", problem=meta)
        derived = [f for f in self._facts() if not f.given]
        for i, fact in enumerate(derived, start=1):
            binding = instance_binding(self.closure.rule(fact.rule_id),
                                       [self.closure.fact(p).literal for p in fact.premises])
            premises = tuple(replay_id.get(p, p) for p in fact.premises)
            replay_id[fact.id] = self.given_count + i
            step = Derivation(fact.literal, fact.rule_id, premises, serialize_binding(binding))
            trace.steps.append(TraceStep(i, Direction.FORWARD.value, "logic_deduce",
                                         _deduction_payload((fact.rule_id,), (step,))))
        evidence = replay_id.get(self.target.id, self.target.id)
        trace.steps.append(TraceStep(
            len(trace.steps) + 1, Direction.FORWARD.value, "fact_check",
            _check_payload(Hypothesis(self.target.literal),
                           FactCheckResult(Label.PROVED, evidence=evidence))))
        trace.label = label
        trace.resolution = {"kind": "fact", "fact": evidence}
        return trace


def oracle_label(problem: Problem, hypothesis: Hypothesis | None = None,
                 ) -> tuple[Label, ReferenceProof | None]:
    """Gold label by saturation, with a canonical reference proof.

    A hypothesis condition is asserted before saturating.  The closure
    settles the consequent by ``KnowledgeBase.decide``, so when both it and
    its negation are derivable (inconsistent base) the negation wins.
    """
    hypothesis = hypothesis or problem.hypothesis
    if hypothesis is None:
        raise ValueError("oracle_label needs a single hypothesis")
    kb = problem.kb
    for lit in hypothesis.condition:
        kb = kb.add_given(lit)
    closure = saturate(kb)
    fact = closure.decide(hypothesis.consequent)
    if fact is None:
        return Label.UNKNOWN, None
    label = Label.PROVED if fact.literal == hypothesis.consequent else Label.DISPROVED
    return label, ReferenceProof(closure, fact, len(kb.facts))


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
