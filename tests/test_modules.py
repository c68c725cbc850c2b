"""The six module contracts under the symbolic backend."""

import random

import pytest

from bichain.language import Hypothesis, Label, parse_statement
from bichain.modules import (
    DeductionStep,
    Derivation,
    Goal,
    GoalSet,
    GoalStatus,
    RuleSelection,
    SymbolicBackend,
    match_consequent,
)
from bichain.terms import VAR, Entity, KnowledgeBase, Rule, attr, rel

backend = SymbolicBackend()


def fact_texts(problem):
    return {i: str(problem.kb.fact(i).literal) for i in range(1, len(problem.kb.facts) + 1)}


class TestFactIdentify:
    def test_constant_overlap(self, cowbear_problem):
        h = Hypothesis(consequent=rel("chases", "cow", "cow"))
        relevant = backend.fact_identify(h, cowbear_problem.kb)
        assert 4 in relevant   # The cow is blue.
        assert 11 in relevant  # The tiger sees the cow.
        assert 5 not in relevant  # The lion is rough: no shared constant

    def test_fallback_to_all_when_nothing_overlaps(self):
        kb = KnowledgeBase.from_literals([attr("bear", "round")])
        h = Hypothesis(consequent=attr("cow", "blue"))
        assert backend.fact_identify(h, kb) == (1,)

    def test_empty_store_violates_precondition(self):
        kb = KnowledgeBase.from_literals([])
        with pytest.raises(ValueError):
            backend.fact_identify(Hypothesis(consequent=attr("cow", "blue")), kb)

    def test_condition_constants_count(self):
        kb = KnowledgeBase.from_literals([attr("bear", "round"), attr("cow", "blue")])
        h = Hypothesis(consequent=attr("dog", "big"), condition=(attr("bear", "cold"),))
        assert backend.fact_identify(h, kb) == (1,)


class TestRuleSelectForward:
    def test_initial_cowbear_selection(self, cowbear_problem):
        h = Hypothesis(consequent=rel("chases", "cow", "bear"))
        relevant = backend.fact_identify(h, cowbear_problem.kb)
        selection = backend.rule_select_forward(relevant, cowbear_problem.kb,
                                                (h.consequent,))
        assert 2 in selection.rule_ids       # conditions are facts 4 and 10
        assert selection.bridge is None

    def test_bridge_collapses_selection(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (attr(VAR, "blue"),), attr(VAR, "big")),
             Rule(2, (attr("cow", "blue"),), attr("cow", "rough"))))
        selection = backend.rule_select_forward(
            (1,), kb, (attr("cow", "rough"),))
        assert selection.rule_ids == (2,)
        assert selection.bridge == 2

    def test_no_applicable_rules_is_a_stall_signal(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (attr("cow", "red"),), attr("cow", "big")),))
        selection = backend.rule_select_forward((1,), kb, ())
        assert not selection

    def test_spent_rule_is_not_a_bridge(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue"), attr("cow", "rough")],
            (Rule(1, (attr("cow", "blue"),), attr("cow", "rough")),))
        selection = backend.rule_select_forward(
            (1, 2), kb, (attr("cow", "rough"),))
        assert selection.bridge is None

    def test_rule_on_an_irrelevant_fact_is_not_selected(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue"), attr("bear", "red")],
            (Rule(1, (attr("bear", "red"),), attr("bear", "big")),
             Rule(2, (attr("cow", "blue"),), attr("cow", "rough"))))
        assert backend.rule_select_forward((1,), kb, ()).rule_ids == (2,)
        assert backend.rule_select_forward((1, 2), kb, ()).rule_ids == (1, 2)


class TestRuleSelectBackward:
    def test_two_candidates_for_chases_lion(self, cowbear_problem):
        selection = backend.rule_select_backward(
            (rel("chases", "cow", "lion"),), cowbear_problem.kb)
        assert selection.rule_ids == (2, 3)
        assert selection.bridge is None

    def test_no_match_is_empty(self, cowbear_problem):
        selection = backend.rule_select_backward(
            (attr("cow", "happy"),), cowbear_problem.kb)
        assert selection.rule_ids == ()

    def test_polarity_must_match(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (attr("cow", "blue"),), attr("cow", "big")),))
        selection = backend.rule_select_backward((attr("cow", "big", False),), kb)
        assert selection.rule_ids == ()

    def test_grouping_per_goal(self, cowbear_problem):
        selection = backend.rule_select_backward(
            (rel("chases", "cow", "lion"), attr("cow", "happy")), cowbear_problem.kb)
        groups = dict((str(g), ids) for g, ids in selection.by_goal)
        assert groups[str(rel("chases", "cow", "lion"))] == (2, 3)
        assert groups[str(attr("cow", "happy"))] == ()


class TestLogicDeduce:
    def test_single_step(self):
        kb = KnowledgeBase.from_literals(
            [rel("visits", "mouse", "tiger")],
            (Rule(1, (rel("visits", VAR, "tiger"),), attr("tiger", "blue")),))
        step = backend.logic_deduce(RuleSelection((1,)), kb)
        assert step.literals() == (attr("tiger", "blue"),)
        assert step.derived[0].premises == (1,)

    def test_chained_step(self):
        kb = KnowledgeBase.from_literals(
            [attr("tiger", "blue")],
            (Rule(1, (attr(VAR, "blue"),), rel("eats", VAR, "squirrel")),))
        step = backend.logic_deduce(RuleSelection((1,)), kb)
        assert step.literals() == (rel("eats", "tiger", "squirrel"),)

    def test_novelty_required(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue"), attr("cow", "big")],
            (Rule(1, (attr("cow", "blue"),), attr("cow", "big")),))
        step = backend.logic_deduce(RuleSelection((1,)), kb)
        assert not step

    def test_deduplicates_by_literal(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue"), attr("cow", "cold")],
            (Rule(1, (attr("cow", "blue"),), attr("cow", "big")),
             Rule(2, (attr("cow", "cold"),), attr("cow", "big"))))
        step = backend.logic_deduce(RuleSelection((1, 2)), kb)
        assert step.literals() == (attr("cow", "big"),)
        assert step.derived[0].rule_id == 1  # lowest rule id wins

    def test_empty_selection_violates_precondition(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        with pytest.raises(ValueError):
            backend.logic_deduce(RuleSelection(()), kb)


class TestLogicAbduce:
    def test_ground_rule_conditions(self, cowbear_problem):
        selection = RuleSelection((2,))
        (gs,) = backend.logic_abduce(rel("chases", "cow", "lion"), selection,
                                     cowbear_problem.kb)
        assert tuple(g.literal for g in gs.goals) == \
            (attr("cow", "blue"), rel("sees", "tiger", "bear"))
        assert gs.origin_rule == 2

    def test_unifier_instantiates_conditions(self, cowbear_problem):
        (gs,) = backend.logic_abduce(rel("chases", "cow", "lion"),
                                     RuleSelection((3,)), cowbear_problem.kb)
        assert tuple(g.literal for g in gs.goals) == (rel("likes", "cow", "tiger"),)

    def test_single_condition_rule(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (attr(VAR, "rough"),), attr(VAR, "blue")),))
        (gs,) = backend.logic_abduce(attr("cow", "blue"), RuleSelection((1,)), kb)
        assert tuple(g.literal for g in gs.goals) == (attr("cow", "rough"),)

    def test_unbound_variable_stays_template(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")],
            (Rule(1, (rel("visits", VAR, "tiger"),), attr("tiger", "blue")),))
        (gs,) = backend.logic_abduce(attr("tiger", "blue"), RuleSelection((1,)), kb)
        assert gs.goals[0].literal == rel("visits", VAR, "tiger")

    def test_abduction_deduction_duality(self):
        rng = random.Random(5)
        constants = ["bear", "cow", "dog", "fox"]
        adjectives = ["blue", "big", "cold", "red"]
        for _ in range(200):
            use_var = rng.random() < 0.5
            subject = VAR if use_var else Entity(rng.choice(constants))
            conditions = tuple(
                attr(subject, adj) for adj in rng.sample(adjectives, rng.randint(1, 2)))
            consequent = attr(subject, rng.choice([a for a in adjectives
                                                   if all(a != c.atom.predicate
                                                          for c in conditions)]))
            rule = Rule(1, conditions, consequent)
            constant = rng.choice(constants)
            binding = {VAR: Entity(constant)} if use_var else {}
            from bichain.terms import substitute_partial
            ground_goal = substitute_partial(consequent, binding)
            kb = KnowledgeBase.from_literals(
                [substitute_partial(c, binding) for c in conditions], (rule,))
            (gs,) = backend.logic_abduce(ground_goal, RuleSelection((1,)), kb)
            checked = backend.fact_check((gs,), kb)
            assert checked.label is Label.PROVED
            step = backend.logic_deduce(RuleSelection((1,)), kb)
            assert ground_goal in step.literals()


class TestFactCheck:
    def test_hypothesis_three_way(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        check = backend.fact_check(Hypothesis(consequent=attr("cow", "blue")), kb)
        assert check.label is Label.PROVED and check.evidence == 1
        check = backend.fact_check(Hypothesis(consequent=attr("cow", "blue", False)), kb)
        assert check.label is Label.DISPROVED
        check = backend.fact_check(Hypothesis(consequent=attr("cow", "red")), kb)
        assert check.label is Label.UNKNOWN

    def test_empty_store_is_unknown(self):
        kb = KnowledgeBase.from_literals([])
        check = backend.fact_check(Hypothesis(consequent=attr("cow", "blue")), kb)
        assert check.label is Label.UNKNOWN

    def test_goalset_proved_when_every_goal_holds(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), rel("sees", "tiger", "bear")])
        gs = GoalSet((Goal(attr("cow", "blue")), Goal(rel("sees", "tiger", "bear"))))
        result = backend.fact_check((gs,), kb)
        assert result.label is Label.PROVED and result.satisfied == 0
        assert all(g.status is GoalStatus.PROVEN for g in result.goalsets[0].goals)

    def test_goalset_fails_on_contradicted_goal(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue", False)])
        gs = GoalSet((Goal(attr("cow", "blue")),))
        result = backend.fact_check((gs,), kb)
        assert result.label is Label.UNKNOWN  # a failed alternative is not a disproof
        assert result.goalsets[0].failed

    def test_template_goals_need_one_shared_constant(self):
        kb = KnowledgeBase.from_literals(
            [attr("bear", "blue"), attr("dog", "rough"), attr("dog", "blue")])
        gs = GoalSet((Goal(attr(VAR, "blue")), Goal(attr(VAR, "rough"))))
        result = backend.fact_check((gs,), kb)
        # bear is blue but not rough; the dog satisfies both jointly
        assert result.label is Label.PROVED
        bindings = {g.binding for g in result.goalsets[0].goals}
        assert bindings == {(("x", "dog"),)}

    def test_template_goal_takes_first_satisfying_constant(self):
        kb = KnowledgeBase.from_literals([attr("bear", "blue"), attr("dog", "blue")])
        gs = GoalSet((Goal(attr(VAR, "blue")),))
        result = backend.fact_check((gs,), kb)
        assert result.goalsets[0].goals[0].binding == (("x", "bear"),)

    def test_jointly_unsatisfiable_template_group_stays_open(self):
        kb = KnowledgeBase.from_literals([attr("bear", "blue"), attr("dog", "rough")])
        gs = GoalSet((Goal(attr(VAR, "blue")), Goal(attr(VAR, "rough"))))
        result = backend.fact_check((gs,), kb)
        assert all(g.status is GoalStatus.OPEN for g in result.goalsets[0].goals)


class TestConfusionCheck:
    def test_exact_threshold_on_deductions(self):
        one = Derivation(attr("cow", "blue"), 1, (1,))
        two = Derivation(rel("eats", "tiger", "squirrel"), 2, (1,))
        assert not backend.confusion_check(DeductionStep(()))
        assert not backend.confusion_check(DeductionStep((one,)))
        assert backend.confusion_check(DeductionStep((one, two)))
        # duplicates of one literal are one conclusion
        dup = Derivation(attr("cow", "blue"), 2, (1,))
        assert not backend.confusion_check(DeductionStep((one, dup)))

    def test_intro_figure_pair(self):
        eats = Derivation(rel("eats", "tiger", "squirrel"), 1, (1,))
        likes = Derivation(rel("likes", "mouse", "squirrel"), 2, (2,))
        assert backend.confusion_check(DeductionStep((eats, likes)))

    def test_goalset_threshold_is_per_target(self):
        target = rel("chases", "cow", "lion")
        gs1 = GoalSet((Goal(attr("cow", "blue")),), origin_rule=2, target=target)
        gs2 = GoalSet((Goal(rel("likes", "cow", "tiger")),), origin_rule=3, target=target)
        assert backend.confusion_check((gs1, gs2))
        assert not backend.confusion_check((gs1,))
        assert not backend.confusion_check(())
        other = GoalSet((Goal(attr("cow", "red")),), origin_rule=4,
                        target=attr("cow", "big"))
        # one candidate per goal each: no confusion
        assert not backend.confusion_check((gs1, other))

    def test_identical_goalsets_are_one_candidate(self):
        target = rel("chases", "cow", "lion")
        gs1 = GoalSet((Goal(attr("cow", "blue")),), origin_rule=2, target=target)
        gs2 = GoalSet((Goal(attr("cow", "blue")),), origin_rule=5, target=target)
        assert not backend.confusion_check((gs1, gs2))


class TestMatchConsequent:
    def test_bridging_definitions(self):
        rule = parse_statement("If someone is rough then they chase the cow.")
        m = match_consequent(rule, rel("chases", "cow", "cow"))
        assert m is not None and m.rule_binding == {VAR: Entity("cow")}

    def test_goal_variable_commitment(self):
        rule = parse_statement("If someone visits the tiger then the tiger is blue.")
        m = match_consequent(rule, attr(VAR, "blue"))
        assert m is not None
        assert m.commitments == {VAR: Entity("tiger")}

    def test_mismatch(self):
        rule = parse_statement("If someone is rough then they chase the cow.")
        assert match_consequent(rule, rel("chases", "cow", "lion")) is None

    def test_bridge_selection_invariant(self, cowbear_problem, squirrel_problem):
        # whenever a bridge exists the selection is a singleton
        for problem in (cowbear_problem, squirrel_problem):
            relevant = tuple(f.id for f in problem.kb.facts)
            for rule in problem.kb.rules:
                selection = backend.rule_select_forward(
                    relevant, problem.kb, (rule.consequent,))
                if selection.bridge is not None:
                    assert len(selection.rule_ids) == 1
