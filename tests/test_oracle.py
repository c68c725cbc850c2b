"""Saturation closure, reference proofs, and premise precision/recall."""

from dataclasses import replace
from fractions import Fraction

import pytest

from bichain.engine import Direction, ProofTrace, TraceStep, prove_bidirectional, replay_validate
from bichain.generate import InstanceSpec, PROFILES, generate_instance
from bichain.language import Hypothesis, Label, parse_problem
from bichain.modules import Goal, GoalSet, GoalStatus, SymbolicBackend, check_hypothesis
from bichain.oracle import oracle_label, premise_prf, saturate, trace_premises
from bichain.terms import (
    VAR,
    Entity,
    KnowledgeBase,
    Rule,
    attr,
    rel,
    substitute_partial,
    term_string,
)


class TestSaturate:
    def test_layered_depths_on_the_squirrel_base(self, squirrel_problem):
        closure = saturate(squirrel_problem.kb)
        expectations = [
            (attr("tiger", "blue"), 1),
            (rel("eats", "tiger", "squirrel"), 2),
            (attr("squirrel", "green"), 3),
            (attr("squirrel", "blue"), 4),
        ]
        for literal, depth in expectations:
            entry = closure.lookup(literal)
            assert entry is not None and entry.depth == depth

    def test_rule_free_closure_is_the_given_facts(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("bear", "big")])
        closure = saturate(kb)
        assert len(closure) == 2
        assert all(f.depth == 0 for f in closure.facts)

    def test_ungroundable_rule_contributes_nothing(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (attr(VAR, "red"),), attr(VAR, "big")),))
        assert len(saturate(kb)) == 1

    def test_fixpoint_is_stable(self, squirrel_problem, cowbear_problem):
        from bichain.modules import RuleSelection, SymbolicBackend
        backend = SymbolicBackend()
        for problem in (squirrel_problem, cowbear_problem):
            closure = saturate(problem.kb)
            kb = problem.kb
            for fact in closure.facts:
                if not fact.given:
                    kb = kb.add_derived([(fact.literal, fact.rule_id, fact.premises)])
            step = backend.logic_deduce(RuleSelection(tuple(r.id for r in kb.rules)), kb)
            assert not step  # one more pass derives nothing new

    def test_depth_minimality_exhaustively(self):
        # no derivation of a depth-k fact can use only premises of depth < k-1
        for seed in range(6):
            problem = generate_instance(
                InstanceSpec(Label.PROVED, 2, seed=7000 + seed))
            closure = saturate(problem.kb)
            by_literal = {f.literal: f for f in closure.facts}
            constants = [f.literal.constants() for f in closure.facts]
            names = sorted(set().union(*constants)) if constants else []
            for fact in closure.facts:
                if fact.given:
                    continue
                for rule in problem.kb.rules:
                    var = rule.variable()
                    bindings = [{}] if var is None else [
                        {var: Entity(n)} for n in names]
                    for binding in bindings:
                        conclusion = substitute_partial(rule.consequent, binding)
                        if conclusion != fact.literal:
                            continue
                        premises = [by_literal.get(substitute_partial(c, binding))
                                    for c in rule.conditions]
                        if any(p is None for p in premises):
                            continue
                        max_depth = max(p.depth for p in premises)
                        assert max_depth >= fact.depth - 1

    def test_inconsistent_closure_is_flagged_not_fatal(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue"), attr("cow", "cold")],
            (Rule(1, (attr("cow", "cold"),), attr("cow", "blue", False)),))
        closure = saturate(kb)
        assert not closure.consistent


class TestOracleLabel:
    def test_cowbear_reference(self, cowbear_problem):
        label, reference = oracle_label(cowbear_problem)
        assert label is Label.PROVED
        assert reference.premises() == frozenset(
            {("fact", 4), ("fact", 10), ("rule", 2), ("rule", 6),
             ("rule", 7), ("rule", 9)})

    def test_unconnected_goal_is_unknown(self, cowbear_problem):
        label, reference = oracle_label(
            cowbear_problem, Hypothesis(rel("likes", "cow", "tiger")))
        assert label is Label.UNKNOWN and reference is None

    def test_given_fact_yields_single_leaf_proof(self, cowbear_problem):
        label, reference = oracle_label(
            cowbear_problem, Hypothesis(attr("cow", "blue")))
        assert label is Label.PROVED
        assert reference.target.rule_id is None
        assert reference.premises() == frozenset({("fact", 4)})

    def test_disproved_references_the_negation(self):
        problem = parse_problem(
            "fact: The cow is blue.\n"
            "rule: If someone is blue then they do not chase the bear.\n"
            "hypothesis: The cow chases the bear.\n")
        label, reference = oracle_label(problem)
        assert label is Label.DISPROVED
        assert reference.target.literal == rel("chases", "cow", "bear", False)

    def test_negation_wins_on_an_inconsistent_closure(self):
        problem = parse_problem(
            "fact: The cow is blue.\n"
            "fact: The cow is cold.\n"
            "rule: If the cow is cold then the cow is not blue.\n"
            "hypothesis: The cow is blue.\n")
        label, reference = oracle_label(problem)
        assert label is Label.DISPROVED
        assert reference.target == reference.closure.lookup(attr("cow", "blue", False))
        # the symbolic fact checks settle it by the same fact
        refuted = reference.target.id
        check = check_hypothesis(attr("cow", "blue"), reference.closure)
        assert (check.label, check.evidence) == (Label.DISPROVED, refuted)
        res = SymbolicBackend().fact_check((GoalSet((Goal(attr("cow", "blue")),)),),
                                           reference.closure)
        goal = res.goalsets[0].goals[0]
        assert (goal.status, goal.fact_id) == (GoalStatus.CONTRADICTED, refuted)

    def test_condition_asserted_before_saturation(self):
        problem = parse_problem(
            "fact: The tiger sees the bear.\n"
            "rule: If the cow is blue and the tiger sees the bear then the cow chases the lion.\n"
            "hypothesis: If the cow is blue then the cow chases the lion.\n")
        label, _ = oracle_label(problem)
        assert label is Label.PROVED

    def test_reference_trace_replays(self, cowbear_problem, squirrel_problem):
        for problem in (cowbear_problem, squirrel_problem):
            label, reference = oracle_label(problem)
            trace = reference.to_trace(label, meta=problem.meta)
            assert bool(replay_validate(trace, problem))

    def test_generated_references_replay(self):
        for seed in range(4):
            problem = generate_instance(
                InstanceSpec(Label.PROVED, 3, seed=8800 + seed, **PROFILES["deep"]))
            label, reference = oracle_label(problem)
            assert bool(replay_validate(reference.to_trace(label, problem.meta), problem))


class TestPremisePRF:
    def test_exact_match_scores_one_one(self, cowbear_problem):
        label, reference = oracle_label(cowbear_problem)
        trace = reference.to_trace(label, meta="ref")
        precision, recall = premise_prf(trace, reference)
        assert (precision, recall) == (Fraction(1), Fraction(1))

    def test_two_extra_citations(self):
        # reference of size four: two facts, a two-rule chain
        problem = parse_problem({
            "facts": ["The cow is blue.", "The cow sees the bear.",
                      "The bear is round."],
            "rules": ["If the cow is blue then the cow is big.",
                      "If the cow is big and the cow sees the bear then the cow is rough.",
                      "If the bear is round then the bear is cold."],
            "hypothesis": "The cow is rough."})
        label, reference = oracle_label(problem)
        assert len(reference.premises()) == 4
        trace = reference.to_trace(label, meta="extras")
        extra = TraceStep(len(trace.steps) + 1, Direction.FORWARD.value,
                          "logic_deduce",
                          {"rules": [3],
                           "derived": [{"term": term_string(attr("bear", "cold")),
                                        "rule": 3, "premises": [3],
                                        "binding": []}]})
        trace.steps.append(extra)
        precision, recall = premise_prf(trace, reference)
        assert precision == Fraction(4, 6)
        assert recall == Fraction(1)

    def test_empty_prediction_scores_zero_precision(self, cowbear_problem):
        label, reference = oracle_label(cowbear_problem)
        empty = ProofTrace(engine="bi", problem="empty")
        precision, recall = premise_prf(empty, reference)
        assert precision == Fraction(0) and recall == Fraction(0)

    def test_trace_premises_ignores_derived_citations(self, cowbear_problem):
        verdict = prove_bidirectional(cowbear_problem)
        cited = trace_premises(verdict.trace, len(cowbear_problem.kb.facts))
        for kind, pid in cited:
            if kind == "fact":
                assert 1 <= pid <= len(cowbear_problem.kb.facts)
