"""Engines, traces, option evaluation, and replay validation."""

import copy
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bichain.engine import (
    ENGINES,
    EngineConfig,
    ProofTrace,
    evaluate_options,
    prove_backward,
    prove_bidirectional,
    prove_forward,
    replay_validate,
)
from bichain.generate import InstanceSpec, PROFILES, generate_instance
from bichain.language import Hypothesis, Label, Problem, parse_problem, render_literal
from bichain.modules import SymbolicBackend
from bichain.oracle import oracle_label, premise_prf
from bichain.remote import TransportError
from bichain.terms import KnowledgeBase, Rule, VAR, attr, rel, term_string

ALL_ENGINES = (prove_bidirectional, prove_forward, prove_backward)


def small_problem(doc: str, meta: str = "t") -> Problem:
    return parse_problem(doc, meta=meta)


class TestFixtureProofs:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_squirrel_is_proved(self, squirrel_problem, engine):
        assert engine(squirrel_problem).label is Label.PROVED

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_cowbear_is_proved(self, cowbear_problem, engine):
        assert engine(cowbear_problem).label is Label.PROVED

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_likes_tiger_is_unknown(self, cowbear_problem, engine):
        standalone = replace(cowbear_problem,
                             hypothesis=Hypothesis(rel("likes", "cow", "tiger")),
                             gold_label=None)
        assert engine(standalone).label is Label.UNKNOWN

    def test_forward_needs_more_calls_than_bidirectional_here(self, cowbear_problem):
        assert prove_forward(cowbear_problem).calls >= \
            prove_bidirectional(cowbear_problem).calls


class TestBidirectional:
    def test_hypothesis_in_facts_needs_no_chaining(self):
        problem = small_problem("fact: The cow is blue.\nhypothesis: The cow is blue.\n")
        verdict = prove_bidirectional(problem)
        assert verdict.label is Label.PROVED
        assert [s.module for s in verdict.trace.steps] == \
            ["fact_identify", "fact_check"]

    def test_budget_exhaustion_returns_unknown(self):
        deep = generate_instance(InstanceSpec(Label.PROVED, 5, seed=90001,
                                              **PROFILES["deep"]))
        verdict = prove_bidirectional(deep, EngineConfig(max_steps=1))
        assert verdict.label is Label.UNKNOWN

    def test_conditional_hypothesis_asserts_condition(self):
        problem = small_problem(
            "fact: The tiger sees the bear.\n"
            "rule: If the cow is blue and the tiger sees the bear then the cow chases the lion.\n"
            "hypothesis: If the cow is blue then the cow chases the lion.\n")
        verdict = prove_bidirectional(problem)
        assert verdict.label is Label.PROVED
        assert verdict.derived_facts == ()  # condition-scoped facts never leak

    def test_inconsistent_base_warns_but_decides(self):
        problem = small_problem(
            "fact: The cow is blue.\n"
            "fact: The cow is not blue.\n"
            "hypothesis: The cow is blue.\n")
        verdict = prove_bidirectional(problem)
        assert any("InconsistentKB" in w for w in verdict.warnings)
        assert verdict.label is Label.DISPROVED  # negation takes precedence

    def test_double_stall_ends_early(self):
        problem = small_problem(
            "fact: The cow is blue.\n"
            "rule: If the cow is red then the cow is big.\n"
            "hypothesis: The cow is cold.\n")
        verdict = prove_bidirectional(problem, EngineConfig(max_steps=50))
        assert verdict.label is Label.UNKNOWN
        assert verdict.calls < 12

    @pytest.mark.parametrize("seed", [240088, 140058, 90840004])
    def test_cyclic_backward_chain_does_not_exhaust_the_budget(self, seed):
        # each of these depth-5 instances once drew the backward side down a
        # cyclic rule chain until the default budget ran out (240088:
        # quiet(lion) -> quiet(?x1) -> quiet(?x2) -> ...)
        problem = generate_instance(InstanceSpec(Label.PROVED, 5, seed=seed,
                                                 **PROFILES["rich"]))
        verdict = prove_bidirectional(problem, EngineConfig())
        assert verdict.label is oracle_label(problem)[0]
        assert replay_validate(verdict.trace, problem)

    def test_disproved_via_forward_negation(self):
        problem = small_problem(
            "fact: The cow is blue.\n"
            "rule: If someone is blue then they do not chase the bear.\n"
            "hypothesis: The cow chases the bear.\n")
        verdict = prove_bidirectional(problem)
        assert verdict.label is Label.DISPROVED


class TestForwardBaseline:
    def test_rule_free_store_is_unknown_after_one_iteration(self):
        problem = small_problem("fact: The cow is blue.\nhypothesis: The cow is red.\n")
        verdict = prove_forward(problem)
        assert verdict.label is Label.UNKNOWN
        assert [s.module for s in verdict.trace.steps] == \
            ["rule_select_forward", "fact_check"]

    def test_one_rule_fires_per_iteration(self, cowbear_problem):
        verdict = prove_forward(cowbear_problem)
        deduces = [s for s in verdict.trace.steps if s.module == "logic_deduce"]
        for step in deduces:
            rules = {d["rule"] for d in step.payload["derived"]}
            assert len(rules) <= 1

    def test_saturation_stops_on_no_new_facts(self, squirrel_problem):
        standalone = replace(squirrel_problem,
                             hypothesis=Hypothesis(attr("dog", "round")),
                             gold_label=None)
        verdict = prove_forward(standalone)
        assert verdict.label is Label.UNKNOWN
        assert verdict.calls < 150  # saturation, then one empty iteration


class TestBackwardBaseline:
    def test_fact_hypothesis_proved_at_depth_zero(self):
        problem = small_problem("fact: The cow is blue.\nhypothesis: The cow is blue.\n")
        verdict = prove_backward(problem)
        assert verdict.label is Label.PROVED
        assert verdict.calls == 1  # a single fact check

    def test_unconnected_goal_is_unknown(self, cowbear_problem):
        standalone = replace(cowbear_problem,
                             hypothesis=Hypothesis(rel("likes", "cow", "tiger")),
                             gold_label=None)
        verdict = prove_backward(standalone)
        assert verdict.label is Label.UNKNOWN

    def test_shorter_rule_tried_first_then_backtracks(self, cowbear_problem):
        verdict = prove_backward(cowbear_problem)
        assert verdict.label is Label.PROVED
        # the one-condition rule for "chases the lion" is attempted before the
        # two-condition rule that actually closes
        selects = [s for s in verdict.trace.steps
                   if s.module == "rule_select_backward"
                   and s.payload["goal"] == "chases(cow, lion)"]
        assert selects, "expected a selection for the chases-the-lion goal"
        abduces = [s for s in verdict.trace.steps
                   if s.module == "logic_abduce"
                   and s.payload["goal"] == "likes(cow, tiger)"]
        assert not abduces  # nothing concludes it, so no decomposition happens

    def test_disproved_via_negative_chain(self):
        problem = small_problem(
            "fact: The cow is blue.\n"
            "rule: If someone is blue then they do not chase the bear.\n"
            "hypothesis: The cow chases the bear.\n")
        verdict = prove_backward(problem)
        assert verdict.label is Label.DISPROVED
        assert verdict.trace.resolution["kind"] == "tree"

    def test_contradicted_subgoal_leaves_unknown(self):
        problem = small_problem(
            "fact: The cow is not blue.\n"
            "rule: If the cow is blue then the cow is big.\n"
            "hypothesis: The cow is big.\n")
        verdict = prove_backward(problem)
        assert verdict.label is Label.UNKNOWN  # contradicted sub-goal, open world


class TestEvaluateOptions:
    def options_problem(self):
        return parse_problem({
            "facts": ["The cow is blue.", "The tiger sees the bear."],
            "rules": [
                "If the cow is blue and the tiger sees the bear then the cow chases the lion.",
                "If someone chases the lion then they are rough.",
            ],
            "options": ["The cow is red.", "The cow is rough.", "The cow is blue."],
            "id": "opts",
        })

    def test_first_proved_option_is_chosen(self):
        chosen, verdicts = evaluate_options(self.options_problem())
        assert chosen == 2
        assert [v.label for v in verdicts] == \
            [Label.UNKNOWN, Label.PROVED, Label.PROVED]

    def test_all_unknown_leaves_choice_unset(self):
        problem = parse_problem({
            "facts": ["The cow is blue."],
            "options": ["The cow is red.", "The cow is cold."]})
        chosen, verdicts = evaluate_options(problem)
        assert chosen is None
        assert all(v.label is Label.UNKNOWN for v in verdicts)

    def test_derived_facts_reduce_later_option_cost(self):
        # option 1 drives forward chaining over cow facts; its derivations
        # let option 2 close at the initial fact check
        problem = parse_problem({
            "facts": ["The cow is blue.", "The cow sees the bear."],
            "rules": [
                "If the cow is blue and the cow sees the bear then the cow chases the lion.",
                "If someone chases the lion then they are rough.",
            ],
            "options": ["The cow is rough.", "The cow chases the lion."]})
        chosen, verdicts = evaluate_options(problem)
        isolated = prove_bidirectional(
            replace(problem, options=(), hypothesis=problem.options[1]))
        assert verdicts[0].derived_facts  # option 1 actually derived something
        assert verdicts[1].calls < isolated.calls
        assert chosen == 1

    def test_requires_options(self, cowbear_problem):
        with pytest.raises(ValueError):
            evaluate_options(cowbear_problem)


class TestTraceInvariants:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_calls_equal_steps(self, cowbear_problem, engine):
        verdict = engine(cowbear_problem)
        assert verdict.calls == len(verdict.trace.steps)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_step_indices_strictly_increase(self, cowbear_problem, engine):
        steps = engine(cowbear_problem).trace.steps
        assert [s.index for s in steps] == list(range(1, len(steps) + 1))

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_byte_identical_traces(self, cowbear_problem, engine):
        a = engine(cowbear_problem).trace.to_json()
        b = engine(cowbear_problem).trace.to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_monotone_fact_growth(self, cowbear_problem):
        verdict = prove_bidirectional(cowbear_problem)
        seen = {str(f.literal) for f in cowbear_problem.kb.facts}
        for step in verdict.trace.steps:
            if step.module != "logic_deduce":
                continue
            for derived in step.payload["derived"]:
                assert derived["term"] not in seen  # novelty
                seen.add(derived["term"])

    def test_direction_switch_discipline(self, cowbear_problem, squirrel_problem):
        for problem in (cowbear_problem, squirrel_problem):
            steps = prove_bidirectional(problem).trace.steps
            for previous, current in zip(steps, steps[1:]):
                if previous.direction == current.direction:
                    continue
                # a change of direction follows a confusion or a stall; the
                # preceding module run ends its direction's segment
                segment = [s for s in steps if s.index <= previous.index
                           and s.direction == previous.direction]
                confused = any(s.payload.get("confusion") for s in segment[-2:])
                deduces = [s for s in segment if s.module == "logic_deduce"]
                stalled = not deduces or not deduces[-1].payload["derived"] \
                    or previous.module == "fact_check"
                assert confused or stalled


class TestReplayValidate:
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_engine_traces_replay(self, cowbear_problem, squirrel_problem, engine):
        for problem in (cowbear_problem, squirrel_problem):
            verdict = engine(problem)
            assert bool(replay_validate(verdict.trace, problem))

    def test_tampered_premise_is_caught(self, cowbear_problem):
        verdict = prove_bidirectional(cowbear_problem)
        doc = verdict.trace.to_json()
        tampered = copy.deepcopy(doc)
        for step in tampered["steps"]:
            if step["module"] == "logic_deduce" and step["derived"]:
                step["derived"][0]["premises"] = step["derived"][0]["premises"][:-1]
                bad_index = step["index"]
                break
        trace = ProofTrace.from_json(tampered)
        report = replay_validate(trace, cowbear_problem)
        assert not report
        assert report.step == bad_index

    def test_tampered_label_is_caught(self, cowbear_problem):
        standalone = replace(cowbear_problem,
                             hypothesis=Hypothesis(rel("likes", "cow", "tiger")),
                             gold_label=None)
        verdict = prove_bidirectional(standalone)
        doc = verdict.trace.to_json()
        doc["label"] = "Proved"
        report = replay_validate(ProofTrace.from_json(doc), standalone)
        assert not report
        # a Proved trace relabelled Unknown: its last answer still proves
        for name, engine in ENGINES.items():
            doc = engine(cowbear_problem).trace.to_json()
            assert doc["label"] == "Proved"
            doc["label"], doc["resolution"] = "Unknown", None
            assert not replay_validate(ProofTrace.from_json(doc), cowbear_problem), name

    def test_replay_answers_only_from_the_trace(self, cowbear_problem, monkeypatch):
        traces = {name: engine(cowbear_problem).trace for name, engine in ENGINES.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("replay asked a backend module")

        for kind in ("fact_identify", "rule_select_forward", "rule_select_backward",
                     "logic_deduce", "logic_abduce", "fact_check", "confusion_check"):
            monkeypatch.setattr(SymbolicBackend, kind, refuse)
        for name, trace in traces.items():
            assert replay_validate(trace, cowbear_problem), name

    def test_unknown_trace_cut_at_its_end_still_replays(self, cowbear_problem):
        # a documented gap: traces do not record their budget, so running
        # out of recorded answers reads as a budget or transport stop
        standalone = replace(cowbear_problem,
                             hypothesis=Hypothesis(rel("likes", "cow", "tiger")),
                             gold_label=None)
        for name, engine in ENGINES.items():
            trace = engine(standalone).trace
            assert trace.label is Label.UNKNOWN
            trace.steps.pop()
            assert replay_validate(trace, standalone), name

    def test_flipped_confusion_flag_is_caught_at_the_next_step(self, cowbear_problem):
        doc = prove_bidirectional(cowbear_problem).trace.to_json()
        step = next(s for s in doc["steps"] if s["module"] == "confusion_check")
        step["confusion"] = not step["confusion"]
        report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
        assert not report
        assert (step["index"], report.step) == (6, 7)

    def test_emptied_fact_identification_is_caught(self, cowbear_problem):
        doc = prove_bidirectional(cowbear_problem).trace.to_json()
        step = doc["steps"][0]
        assert step["module"] == "fact_identify"
        step["facts"] = []
        report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
        assert not report
        assert report.step == 3  # the first forward selection over the facts

    @pytest.mark.parametrize("renumber", [False, True])
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_deleted_step_is_caught_after_the_gap(self, cowbear_problem, engine, renumber):
        doc = ENGINES[engine](cowbear_problem).trace.to_json()
        gap = len(doc["steps"]) // 2
        del doc["steps"][gap - 1]
        if renumber:
            for index, step in enumerate(doc["steps"], start=1):
                step["index"] = index
        report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
        assert not report
        assert report.step == (gap if renumber else gap + 1)

    @pytest.mark.parametrize("tamper", ["renumber_children", "unknown_node", "foreign_rule"])
    def test_tampered_abduction_is_caught(self, cowbear_problem, tamper):
        engines = ("bi", "backward") if tamper == "foreign_rule" else ("bi",)
        for name in engines:
            doc = ENGINES[name](cowbear_problem).trace.to_json()
            abductions = [s for s in doc["steps"] if s["module"] == "logic_abduce"]
            if tamper == "foreign_rule":
                # rule 2 concludes chases(cow, lion), not the step's goal
                step = abductions[0]
                conditions = cowbear_problem.kb.rule(2).conditions
                step["sets"][0] = {"origin_rule": 2, "target": step["goal"],
                                   "unifier": [], "commitments": [],
                                   "goals": [term_string(c) for c in conditions],
                                   "texts": [render_literal(c) for c in conditions]}
            else:
                step = next(s for s in abductions if s["children"])
                if tamper == "renumber_children":
                    step["children"] = [c + 1 for c in step["children"]]
                else:
                    step["node"] = 999
            report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
            assert not report, name
            assert report.step == step["index"], name

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_selection_of_unknown_rule_is_caught(self, cowbear_problem, engine):
        doc = ENGINES[engine](cowbear_problem).trace.to_json()
        step = next(s for s in doc["steps"]
                    if s["module"] in ("rule_select_forward", "rule_select_backward"))
        step["rules"].append(999)
        report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
        assert not report
        assert report.step == step["index"]

    @pytest.mark.parametrize("claim", ["open_node", "absent_node"])
    def test_unsatisfied_node_claim_is_caught(self, cowbear_problem, claim):
        doc = prove_bidirectional(cowbear_problem).trace.to_json()
        step = next(s for s in doc["steps"] if s["module"] == "fact_check"
                    and s["kind"] == "goals" and s["satisfied"] is None)
        # an Unknown goals check has no node whose goals are all proven
        step["satisfied"] = step["nodes"][0]["node"] if claim == "open_node" else 999
        report = replay_validate(ProofTrace.from_json(doc), cowbear_problem)
        assert not report
        assert report.step == step["index"]

    def test_round_trip_through_json(self, squirrel_problem):
        verdict = prove_backward(squirrel_problem)
        loaded = ProofTrace.from_json(json.loads(json.dumps(verdict.trace.to_json())))
        assert bool(replay_validate(loaded, squirrel_problem))

    def test_fabricated_deduction_is_caught(self):
        problem = small_problem(
            "fact: The cow is blue.\n"
            "rule: If the cow is red then the cow is big.\n"
            "hypothesis: The cow is big.\n")

        class LyingBackend(SymbolicBackend):
            def logic_deduce(self, selection, kb):
                from bichain.modules import DeductionStep, Derivation
                return DeductionStep((Derivation(attr("cow", "big"), 1, (1,)),))

            def rule_select_forward(self, relevant, kb, goals):
                from bichain.modules import RuleSelection
                return RuleSelection((1,))

        verdict = prove_forward(problem, backend=LyingBackend())
        assert verdict.label is Label.PROVED  # the engine believed the backend
        report = replay_validate(verdict.trace, problem)
        assert not report  # the validator does not


class TestTransportFailures:
    def test_engine_survives_transport_errors(self, cowbear_problem):
        class DeadBackend(SymbolicBackend):
            def logic_deduce(self, selection, kb):
                raise TransportError("wire down")

        verdict = prove_bidirectional(cowbear_problem, backend=DeadBackend())
        assert verdict.label is Label.UNKNOWN
        assert any("TransportError" in w for w in verdict.warnings)

    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_unreachable_backend_gives_unknown(self, cowbear_problem, engine):
        # the very first module call fails, before any engine loop starts
        def down(*args, **kwargs):
            raise TransportError("wire down")

        class UnreachableBackend(SymbolicBackend):
            fact_identify = rule_select_forward = rule_select_backward = \
                logic_deduce = logic_abduce = fact_check = confusion_check = \
                staticmethod(down)

        verdict = engine(cowbear_problem, backend=UnreachableBackend())
        assert verdict.label is Label.UNKNOWN
        assert verdict.calls == 0
        assert any("TransportError" in w for w in verdict.warnings)


# Call count and SHA-256 of the sorted-key trace JSON per (fixture, engine).
# A change that alters any engine's behaviour must update these and say so.
GOLDEN_TRACES = {
    "cowbear/backward": (51, "4c8dcf0f2e939db8aabd35dc9a5de00429d6739af2ed70ae12bb949047eb9bd2"),
    "cowbear/bi": (17, "7041470213485a384e22719d36a0d0fb76533a926e488ada7f261c75cfc34610"),
    "cowbear/forward": (33, "aa57b8fd863e2fdc6c76c9edc3b0c6ad112940b40df60b915f8728bdc70e707d"),
    "likes_tiger/backward": (4, "0b759f35c2052c376bc3588002cd10a31da1e8943d2595366ef535b009f5f7d3"),
    "likes_tiger/bi": (27, "13e222d476e5703453b1592df9bb8c3fbbead26d224691c71f3060e15aba2c26"),
    "likes_tiger/forward": (36, "a5887d2631f31abb8bc24fcfa9b4374e72d068a666b55c5a9e628f53e250866f"),
    "squirrel/backward": (84, "36a5ce4abcbf0897d1d207e66427a2b064f0ac81a3dcc285c7f69a0e0933d465"),
    "squirrel/bi": (26, "3ac4dd00f94c2cffc72f6d9921c35158fb3628e24b54233d1201fd963a2ab7c3"),
    "squirrel/forward": (21, "0bf33e1314e80985ba5917c2efc6e8e08fe0a95b2a0bd989c421947891e805a5"),
}


def _golden_problem(name: str) -> Problem:
    fixtures = Path(__file__).parent / "fixtures"
    if name == "likes_tiger":
        cowbear = _golden_problem("cowbear")
        return replace(cowbear, hypothesis=Hypothesis(rel("likes", "cow", "tiger")),
                       gold_label=None)
    path = fixtures / f"{name}.pw"
    # the file name, not the path, so digests do not depend on the checkout
    return parse_problem(path.read_text(encoding="utf-8"), meta=path.name)


class TestGoldenTraces:
    @pytest.mark.parametrize("case", sorted(GOLDEN_TRACES))
    def test_trace_is_pinned(self, case):
        problem_name, engine_name = case.split("/")
        verdict = ENGINES[engine_name](_golden_problem(problem_name))
        doc = json.dumps(verdict.trace.to_json(), sort_keys=True)
        assert (verdict.calls, hashlib.sha256(doc.encode()).hexdigest()) == \
            GOLDEN_TRACES[case]


class TestGeneratedProperties:
    """Soundness and completeness on generated instances."""

    @pytest.mark.parametrize("profile", ["default", "deep"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), label=st.sampled_from(list(Label)),
           depth=st.integers(0, 3), cut=st.integers(0, 10**6))
    def test_engines_are_sound_and_replay(self, profile, seed, label, depth, cut):
        problem = generate_instance(InstanceSpec(label, depth, seed=seed,
                                                 **PROFILES[profile]))
        gold, reference = oracle_label(problem)
        if reference is not None:
            trace = reference.to_trace(gold, problem.meta)
            assert replay_validate(trace, problem)
            assert premise_prf(trace, reference) == (1, 1)
        for name, engine in ENGINES.items():
            verdict = engine(problem)
            assert verdict.calls == len(verdict.trace.steps), name
            assert replay_validate(verdict.trace, problem), name
            assert verdict.label is gold, name
            # one step deleted, the rest renumbered; the last step of an
            # Unknown trace is the one deletion replay cannot see
            doc = verdict.trace.to_json()
            last = len(doc["steps"]) - (verdict.label is Label.UNKNOWN)
            if last:
                del doc["steps"][cut % last]
                for index, step in enumerate(doc["steps"], start=1):
                    step["index"] = index
                assert not replay_validate(ProofTrace.from_json(doc), problem), name
