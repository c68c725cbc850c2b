"""Unification, substitution, contradiction, knowledge-base bookkeeping and the join."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from bichain.generate import ADJECTIVES, NOUNS, VERBS, InstanceSpec, _draw_facts, _draw_rule, _Vocab
from bichain.language import Label
from bichain.oracle import saturate
from bichain.terms import (
    VAR,
    Atom,
    Entity,
    Fact,
    KnowledgeBase,
    Literal,
    Rule,
    UnboundVariableError,
    attr,
    contradicts,
    literal_from_term,
    rel,
    substitute,
    term_string,
    unify,
)


class TestUnify:
    def test_variable_binds_to_constant(self):
        assert unify(attr(VAR, "blue"), attr("cow", "blue")) == {VAR: Entity("cow")}

    def test_ground_identity_gives_empty_binding(self):
        assert unify(attr("cow", "blue"), attr("cow", "blue")) == {}

    def test_polarity_mismatch(self):
        assert unify(attr(VAR, "blue"), attr("cow", "blue", False)) is None

    def test_constant_mismatch(self):
        assert unify(rel("sees", VAR, "tiger"), rel("sees", "cow", "bear")) is None

    def test_shape_mismatch(self):
        assert unify(attr(VAR, "sees"), rel("sees", "cow", "bear")) is None

    def test_repeated_variable_must_agree(self):
        template = rel("chases", VAR, VAR)
        assert unify(template, rel("chases", "cow", "cow")) == {VAR: Entity("cow")}
        assert unify(template, rel("chases", "cow", "bear")) is None

    def test_ground_second_argument_required(self):
        with pytest.raises(ValueError):
            unify(attr("cow", "blue"), attr(VAR, "blue"))


class TestSubstitute:
    def test_instantiates_template(self):
        out = substitute(rel("chases", VAR, "tiger"), {VAR: Entity("cow")})
        assert out == rel("chases", "cow", "tiger")

    def test_ground_literal_noop(self):
        lit = attr("cow", "blue")
        assert substitute(lit, {}) is lit

    def test_unbound_variable_raises(self):
        with pytest.raises(UnboundVariableError):
            substitute(attr(VAR, "rough"), {})

    def test_unify_then_substitute_round_trip(self):
        rng = random.Random(7)
        constants = ["bear", "cow", "dog", "lion"]
        predicates = ["blue", "rough", "sees", "chases"]
        for _ in range(500):
            pred = rng.choice(predicates)
            if pred in ("blue", "rough"):
                ground = attr(rng.choice(constants), pred, rng.random() < 0.8)
                template = Literal(ground.atom, ground.positive)
                if rng.random() < 0.6:
                    template = attr(VAR, pred, ground.positive)
            else:
                ground = rel(pred, rng.choice(constants), rng.choice(constants),
                             rng.random() < 0.8)
                subj = VAR if rng.random() < 0.5 else ground.atom.subject
                obj = VAR if rng.random() < 0.5 else ground.atom.obj
                if subj is VAR and obj is VAR and ground.atom.subject != ground.atom.obj:
                    obj = ground.atom.obj  # one variable cannot name two constants
                template = Literal(Atom(subj, pred, obj), ground.positive)
            binding = unify(template, ground)
            assert binding is not None
            assert substitute(template, binding) == ground


class TestContradicts:
    def test_definitional(self):
        assert contradicts(attr("cow", "blue"), attr("cow", "blue", False))
        assert not contradicts(attr("cow", "blue"), attr("cow", "blue"))
        assert not contradicts(attr("cow", "blue"), attr("bear", "blue", False))

    def test_symmetric_and_irreflexive(self):
        rng = random.Random(13)
        constants = ["bear", "cow", "dog"]
        for _ in range(300):
            a = attr(rng.choice(constants), rng.choice(["blue", "big"]),
                     rng.random() < 0.5)
            b = attr(rng.choice(constants), rng.choice(["blue", "big"]),
                     rng.random() < 0.5)
            assert contradicts(a, b) == contradicts(b, a)
            assert not contradicts(a, a)


class TestKnowledgeBase:
    def test_entailment_three_way(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        assert kb.decide(attr("cow", "blue")) == kb.fact(1)
        assert kb.holds(attr("cow", "blue"))
        assert kb.decide(attr("cow", "blue", False)) == kb.fact(1)
        assert not kb.holds(attr("cow", "blue", False))
        assert kb.decide(attr("cow", "red")) is None
        assert not kb.holds(attr("cow", "red"))

    def test_empty_store_is_undetermined(self):
        kb = KnowledgeBase.from_literals([])
        assert kb.decide(attr("cow", "blue")) is None
        assert not kb.holds(attr("cow", "blue"))

    def test_negation_holds_precedence_on_inconsistent_store(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        kb = kb.add_given(attr("cow", "blue", False))
        assert not kb.consistent
        assert kb.decide(attr("cow", "blue")) == kb.fact(2)
        assert not kb.holds(attr("cow", "blue"))

    def test_add_duplicate_literal_keeps_count_and_provenance(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        again = kb.add_given(attr("cow", "blue"))
        assert len(again) == 1
        assert again.fact(1).given

    def test_add_fresh_literal_increments(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        bigger = kb.add_given(attr("bear", "round"))
        assert len(bigger) == 2 and len(kb) == 1  # original untouched

    def test_contradiction_flips_consistency_flag(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        assert kb.consistent
        assert not kb.add_given(attr("cow", "blue", False)).consistent

    def test_derived_depth_is_one_past_deepest_premise(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
        kb = kb.add_derived([(attr("cow", "rough"), 1, (1,))])
        kb = kb.add_derived([(attr("cow", "red"), 2, (2, 3))])
        assert kb.fact(3).depth == 1
        assert kb.fact(4).depth == 2
        for fact in kb.facts:
            if not fact.given:
                assert all(kb.fact(p).depth < fact.depth for p in fact.premises)

    @pytest.mark.parametrize("premise", [0, 3])
    def test_derived_premise_must_name_a_stored_fact(self, premise):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
        with pytest.raises(ValueError):
            kb.add_derived([(attr("cow", "rough"), 1, (1, premise))])  # 0 is not the last fact

    def test_derived_premise_may_cite_its_own_batch(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        kb = kb.add_derived([(attr("cow", "rough"), 1, (1,)), (attr("cow", "red"), 2, (2,))])
        assert kb.fact(3).premises == (2,) and kb.fact(3).depth == 2

    @pytest.mark.parametrize("fact_id", [0, -1, 3])
    def test_fact_id_out_of_range_raises(self, fact_id):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
        for store in (kb, saturate(kb)):
            with pytest.raises(IndexError):
                store.fact(fact_id)  # ids are 1-based; 0 is not the last fact

    def test_children_of_one_store_do_not_see_each_other(self):
        kb = KnowledgeBase.from_literals(
            [attr("cow", "blue")], (Rule(1, (attr(VAR, "blue"),), attr(VAR, "red")),))
        left = kb.add_given(attr("bear", "blue"))
        right = kb.add_derived([(attr("cow", "red"), 1, (1,))])
        assert left.lookup(attr("cow", "red")) is None
        assert right.lookup(attr("bear", "blue")) is None
        assert kb.lookup(attr("bear", "blue")) is None and kb.lookup(attr("cow", "red")) is None
        assert left.fact(2).literal == attr("bear", "blue")
        assert right.fact(2).literal == attr("cow", "red")
        assert [str(c) for _, c, _, _ in left.instances(left.rules)] == ["red(cow)", "red(bear)"]
        assert [str(c) for _, c, _, _ in right.instances(right.rules)] == ["red(cow)"]

    def test_batch_adding_a_stored_facts_negation_is_inconsistent(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
        kb = kb.add_derived([(attr("cow", "red"), 1, (1,))])
        assert kb.consistent
        worse = kb.add_derived([(attr("cow", "rough"), 2, (3,)), (attr("cow", "big", False), 3, (1,))])
        assert not worse.consistent
        assert kb.consistent  # the parent keeps its flag
        assert not worse.add_derived([(attr("cow", "cold"), 4, (1,))]).consistent

    def test_batch_adding_both_signs_is_inconsistent(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        both = kb.add_derived([(attr("cow", "red"), 1, (1,)), (attr("cow", "red", False), 2, (1,))])
        assert len(both) == 3 and not both.consistent

    def test_derived_duplicates_are_skipped(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        assert kb.add_derived([(attr("cow", "blue"), 1, (1,))]) is kb
        kb = kb.add_derived([(attr("cow", "red"), 1, (1,)), (attr("cow", "red"), 2, (1,))])
        assert len(kb) == 2 and kb.fact(2).rule_id == 1

    def test_premise_on_a_skipped_batch_entry_is_rejected(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue")])
        # the duplicate takes no id, so premise 2 names nothing
        with pytest.raises(ValueError):
            kb.add_derived([(attr("cow", "blue"), 1, (1,)), (attr("cow", "red"), 2, (2,))])

    def test_constants_in_first_appearance_order(self):
        kb = KnowledgeBase.from_literals(
            [rel("sees", "tiger", "cow"), attr("bear", "blue")])
        assert kb.constants() == ("tiger", "cow", "bear")


class TestInstances:
    def test_rule_order_then_constant_first_appearance(self):
        kb = KnowledgeBase.from_literals(
            [attr("tiger", "blue"), attr("cow", "blue"), attr("cow", "big")],
            (Rule(2, (attr(VAR, "blue"),), attr(VAR, "red")),
             Rule(1, (attr("cow", "big"),), attr("cow", "rough"))))
        found = [(rule.id, str(conclusion), premises)
                 for rule, conclusion, _, premises in kb.instances(reversed(kb.rules))]
        assert found == [(1, "rough(cow)", (3,)),
                         (2, "red(tiger)", (1,)), (2, "red(cow)", (2,))]
        _, _, binding, _ = next(kb.instances(kb.rules))
        assert binding == {VAR: Entity("tiger")}

    def test_among_excludes_outside_premises_and_constants(self):
        kb = KnowledgeBase.from_literals(
            [rel("sees", "cow", "bear"), attr("tiger", "blue"), attr("cow", "blue")],
            (Rule(1, (rel("sees", "cow", "bear"),), attr("bear", "big")),
             Rule(2, (attr(VAR, "blue"),), attr(VAR, "red"))))

        def conclusions(among):
            return [str(c) for _, c, _, _ in kb.instances(kb.rules, among=among)]

        assert conclusions(None) == ["big(bear)", "red(cow)", "red(tiger)"]
        # without fact 1, rule 1 loses its premise and "cow" is tried after "tiger"
        assert conclusions((2, 3)) == ["red(tiger)", "red(cow)"]


    def test_since_keeps_instances_citing_a_newer_fact(self):
        kb = KnowledgeBase.from_literals(
            [attr("tiger", "blue"), attr("cow", "big"), attr("cow", "blue")],
            (Rule(1, (attr(VAR, "blue"), attr("cow", "big")), attr(VAR, "red")),
             Rule(2, (attr(VAR, "blue"),), attr(VAR, "cold"))))

        def found(**kwargs):
            return [(rule.id, str(c), premises)
                    for rule, c, _, premises in kb.instances(kb.rules, **kwargs)]

        everything = found()
        assert everything == [(1, "red(tiger)", (1, 2)), (1, "red(cow)", (3, 2)),
                              (2, "cold(tiger)", (1,)), (2, "cold(cow)", (3,))]
        # a ground condition on a new fact makes every constant worth trying
        assert found(since=1) == [i for i in everything if max(i[2]) > 1]
        assert found(since=2) == [(1, "red(cow)", (3, 2)), (2, "cold(cow)", (3,))]
        assert found(since=3) == []
        assert found(among=(1, 3), since=1) == [(2, "cold(cow)", (3,))]


def brute_join(kb, rules, among=None):
    """Every rule, every constant of the joined facts, substitute, look up."""
    joined = [f for f in kb.facts if among is None or f.id in among]
    known = {f.literal: f.id for f in joined}
    constants = list(dict.fromkeys(e for f in joined for e in f.literal.atom.entities()))
    for rule in rules:
        var = rule.variable()
        for binding in [{}] if var is None else [{var: c} for c in constants]:
            grounds = [substitute(c, binding) for c in rule.conditions]
            if all(g in known for g in grounds):
                yield (rule.id, substitute(rule.consequent, binding), binding,
                       tuple(known[g] for g in grounds))


def naive_saturate(kb):
    """Layered fixpoint re-joining the whole store each layer with brute_join,
    each store built from scratch."""
    facts = list(kb.facts)
    while True:
        store = KnowledgeBase(tuple(facts), kb.rules)
        found = {}
        for rule_id, conclusion, _, premises in brute_join(store, store.rules):
            if store.lookup(conclusion) is None:
                found[conclusion] = min(found.get(conclusion, (rule_id, premises)),
                                        (rule_id, premises))
        if not found:
            return store
        for literal, (rule_id, premises) in found.items():
            depth = 1 + max(facts[p - 1].depth for p in premises)
            facts.append(Fact(len(facts) + 1, literal, rule_id, premises, depth))


small_kbs = st.builds(
    lambda seed, n_constants, n_facts, n_rules, negation_rate: _drawn_kb(
        seed, InstanceSpec(Label.PROVED, n_constants=n_constants, n_adjectives=2, n_verbs=1,
                           n_facts=n_facts, n_rules=n_rules, negation_rate=negation_rate,
                           variable_rate=0.7)),
    st.integers(0, 10**6), st.integers(1, 3), st.integers(2, 8), st.integers(2, 10),
    st.sampled_from([0.0, 0.1, 0.3]))


def _drawn_kb(seed, spec):
    rng = random.Random(seed)
    vocab = _Vocab(sorted(rng.sample(NOUNS, spec.n_constants)),
                   sorted(rng.sample(ADJECTIVES, spec.n_adjectives)),
                   sorted(rng.sample(VERBS, spec.n_verbs)))
    literals = _draw_facts(rng, vocab, spec)
    rules = tuple(_draw_rule(rng, vocab, spec, i + 1) for i in range(spec.n_rules))
    return KnowledgeBase.from_literals(literals, rules)


class TestJoinProperties:
    """The fact-driven join and semi-naive saturation against brute force."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kb=small_kbs, data=st.data())
    def test_instances_equal_the_brute_force_join_past_since(self, kb, data):
        closure = naive_saturate(kb)
        cut = data.draw(st.integers(len(kb), len(closure)), label="cut")
        store = KnowledgeBase(closure.facts[:cut], kb.rules)
        rules = data.draw(st.permutations(kb.rules), label="order") + data.draw(
            st.lists(st.sampled_from(kb.rules), max_size=3), label="repeats")
        among = data.draw(st.none() | st.frozensets(st.integers(1, cut), min_size=cut // 2),
                          label="among")
        since = data.draw(st.integers(0, cut), label="since")
        expected = [i for i in brute_join(store, rules, among) if max(i[3]) > since]
        assert [(rule.id, c, b, p) for rule, c, b, p in store.instances(rules, among, since)] \
            == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kb=small_kbs)
    def test_saturate_equals_the_naive_layered_fixpoint(self, kb):
        def rows(store):
            return [(f.id, f.literal, f.rule_id, f.premises, f.depth) for f in store.facts]

        closure, naive = saturate(kb), naive_saturate(kb)
        assert rows(closure) == rows(naive)
        assert closure.consistent == naive.consistent


class TestInvariants:
    def test_fact_requires_ground_literal(self):
        with pytest.raises(ValueError):
            Fact(1, attr(VAR, "blue"))

    def test_derived_fact_needs_premises(self):
        with pytest.raises(ValueError):
            Fact(2, attr("cow", "blue"), rule_id=1, premises=())

    def test_given_fact_has_depth_zero(self):
        with pytest.raises(ValueError):
            Fact(1, attr("cow", "blue"), depth=2)

    def test_rule_needs_conditions(self):
        with pytest.raises(ValueError):
            Rule(1, (), attr("cow", "blue"))

    def test_rule_variable_must_appear_in_a_condition(self):
        with pytest.raises(ValueError):
            Rule(1, (attr("cow", "blue"),), attr(VAR, "rough"))

    def test_entity_names_are_validated(self):
        with pytest.raises(ValueError):
            Entity("Cow")
        with pytest.raises(ValueError):
            Entity("someone")
        with pytest.raises(ValueError):
            Entity("")


class TestTermStrings:
    def test_round_trip(self):
        for lit in [attr("cow", "blue"), attr("mouse", "round", False),
                    rel("sees", "tiger", "cow"), rel("chases", VAR, "lion", False),
                    rel("chases", VAR, VAR)]:
            assert literal_from_term(term_string(lit)) == lit
