"""Remote backend: prompt rendering, response grammars, wire behavior."""

import hashlib
import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

import bichain
from bichain.engine import (
    EngineConfig,
    prove_backward,
    prove_bidirectional,
    prove_forward,
    replay_validate,
)
from bichain.language import Hypothesis, Label, parse_problem
from bichain.modules import Goal, GoalSet, GoalStatus, RuleSelection
from bichain.remote import (
    Cassette,
    PremiseIndex,
    RemoteBackend,
    RemoteConfig,
    ResponseParseFailed,
    TransportError,
    parse_module_response,
    render_prompt,
)
from bichain.terms import KnowledgeBase, attr

DEMO = parse_problem(
    "fact: The cow is blue.\n"
    "fact: The cow sees the bear.\n"
    "rule: If the cow is blue and the cow sees the bear then the cow chases the lion.\n"
    "rule: If someone chases the lion then they are rough.\n"
    "hypothesis: The cow is rough.\n",
    meta="remote-demo")

# a cooperative model's answers mirroring the symbolic decisions over DEMO
SCRIPT = [
    "Fact Identify:\n1: The cow is blue.\n2: The cow sees the bear.",
    "Fact Check:\nThe truth of the hypothesis is unknown.",
    "Rule Selection:\nPremise 3, If the cow is blue and the cow sees the bear then the cow chases the lion.",
    "Inferences:\nWe know that the cow is blue (Premise 1) and the cow sees the bear (Premise 2). "
    "Therefore, the cow chases the lion (Premise 3).",
    "Fact Check:\nThe truth of the hypothesis is unknown.",
    "Confusion Check:\nFalse",
    "Rule Selection:\nPremise 4, If someone chases the lion then they are rough.",
    "Inferences:\nSince the cow chases the lion, we can deduce that the cow is rough (Premise 4).",
    "Fact Check:\nThe hypothesis can be directly proved by Premise 4.",
]

_UNKNOWN = "Fact Check:\nThe truth of the hypothesis is unknown."
_SELECT_ROUGH = "Rule Selection:\nPremise 4, If someone chases the lion then they are rough."
_SELECT_CHASES = ("Rule Selection:\nPremise 3, If the cow is blue and the cow sees the bear "
                  "then the cow chases the lion.")
_ABDUCE_ROUGH = ("Plausible Reasons:\nAccording to Premise 4, if we want to prove the cow is "
                 "rough, we need to prove the cow chases the lion.")

# the same model's answers mirroring the symbolic backward trace over DEMO,
# except that it picks a rule for ~rough(cow) that does not conclude it
BACKWARD_SCRIPT = [
    _UNKNOWN, _SELECT_ROUGH, _ABDUCE_ROUGH, _UNKNOWN,
    _UNKNOWN, "Rule Selection:\nPremise 3",
    _UNKNOWN, _SELECT_ROUGH, _ABDUCE_ROUGH, _UNKNOWN, _SELECT_CHASES,
    "Plausible Reasons:\nAccording to Premise 3, we need to prove the cow is blue. "
    "We also need to prove the cow sees the bear.",
    "Fact Check:\nThe hypothesis can be directly proved by Premise 1.",
    "Fact Check:\nThe hypothesis can be directly proved by Premise 2.",
]


def offline_config() -> RemoteConfig:
    return RemoteConfig(endpoint="http://offline.invalid", retries=0, backoff=0.0)


class TestPromptRendering:
    def test_section_headers_are_verbatim(self):
        for kind in ("fact_check", "fact_identify", "rule_select_forward",
                     "rule_select_backward"):
            prompt = render_prompt(kind, "The cow is rough.", "1: The cow is blue.")
            assert "Task Description:" in prompt
            assert "Hypothesis:" in prompt
            assert "Premises:" in prompt
            assert prompt.index("Task Description:") < prompt.index("Hypothesis:")
            assert prompt.index("Hypothesis:") < prompt.rindex("Premises:")

    def test_fact_check_exemplar_line(self):
        prompt = render_prompt("fact_check", "x", "y")
        assert "The hypothesis can be directly proved by Premise 6." in prompt

    def test_confusion_exemplar_answer(self):
        prompt = render_prompt("confusion_check", context="anything")
        assert "Confusion Check:\nTrue" in prompt

    def test_rendering_is_deterministic(self):
        a = render_prompt("fact_check", "The cow is rough.", "1: The cow is blue.")
        b = render_prompt("fact_check", "The cow is rough.", "1: The cow is blue.")
        assert a == b

    def test_premises_numbered_from_one(self):
        listing = PremiseIndex(DEMO.kb).listing()
        assert listing.splitlines()[0] == "1: The cow is blue."
        assert listing.splitlines()[2].startswith("3: If the cow is blue")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            render_prompt("made_up_kind")


class TestPremiseIndex:
    def test_fact_and_rule_mapping(self):
        index = PremiseIndex(DEMO.kb)
        assert index.fact_ids([1]) == [1]
        assert index.fact_ids([3]) == []
        assert index.rule_ids([3]) == [1]
        assert index.rule_ids([99]) == []

    def test_citations_keep_order_and_duplicates(self):
        index = PremiseIndex(DEMO.kb, ("Cows generally admire tuesdays.",))
        assert index.fact_ids([2, 0, 9, 1, 2]) == [2, 1, 2]
        assert index.rule_ids([4, 1, 5, 3, 4]) == [2, 1, 2]
        assert index.listing().splitlines()[-1] == "5: Cows generally admire tuesdays."


class TestResponseGrammars:
    def test_fact_check_direct_evidence(self):
        payload, fallback = parse_module_response(
            "fact_check", "The hypothesis can be directly proved by Premise 6.")
        assert payload == (Label.PROVED, 6) and not fallback

    def test_fact_check_keyword_fallback(self):
        payload, fallback = parse_module_response(
            "fact_check", "Well. Considering everything...\nit seems unknown, probably")
        assert payload[0] is Label.UNKNOWN

    def test_selection_numbers(self):
        payload, _ = parse_module_response(
            "rule_select_backward",
            "Rule Selection:\nPremise 1, something. or\nPremise 2: other.")
        assert payload == [1, 2]

    def test_selection_bare_line_numbers(self):
        payload, _ = parse_module_response(
            "fact_identify", "Fact Identify:\n3: The cow is blue.\n5: The bear is big.")
        assert payload == [3, 5]

    def test_confusion_strict_and_fallback(self):
        assert parse_module_response("confusion_check", "Confusion Check:\nTrue") == (True, False)
        payload, fallback = parse_module_response("confusion_check",
                                                  "I think that would be false")
        assert payload is False and fallback

    def test_confusion_out_of_grammar(self):
        with pytest.raises(ResponseParseFailed):
            parse_module_response("confusion_check", "maybe")

    def test_deduction_sentences(self):
        payload, _ = parse_module_response(
            "logic_deduce",
            "Inferences:\nTherefore, the cow chases the lion (Premise 3).")
        entry = payload[0]
        assert entry["cited"] == [3]
        assert [str(l) for l in entry["literals"]] == ["chases(cow, lion)"]

    def test_empty_selection_fails(self):
        with pytest.raises(ResponseParseFailed):
            parse_module_response("rule_select_backward", "none of them apply")


class TestRemoteConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteConfig(endpoint="http://x", temperature=3.0)
        with pytest.raises(ValueError):
            RemoteConfig(endpoint="http://x", retries=-1)

    def test_defaults_match_operational_settings(self):
        cfg = RemoteConfig(endpoint="http://x")
        assert cfg.temperature == 0.1
        assert cfg.max_tokens == 1024
        assert cfg.max_concurrent == 4

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("BICHAIN_ENDPOINT", raising=False)
        with pytest.raises(ValueError):
            RemoteConfig.from_env()
        monkeypatch.setenv("BICHAIN_ENDPOINT", "http://example.invalid/v1/chat")
        monkeypatch.setenv("BICHAIN_API_KEY", "k")
        monkeypatch.setenv("BICHAIN_MODEL", "m")
        cfg = RemoteConfig.from_env()
        assert cfg.endpoint.endswith("/v1/chat")
        assert cfg.api_key == "k" and cfg.model == "m"


class TestCallAccounting:
    def test_one_call_per_invocation_despite_retries(self):
        attempts = []

        class FlakySession:
            def post(self, *args, **kwargs):
                attempts.append(1)
                if len(attempts) < 3:
                    import requests
                    raise requests.ConnectionError("down")

                class Response:
                    status_code = 200

                    def raise_for_status(self):
                        pass

                    def json(self):
                        return {"choices": [{"message": {"content":
                                "Confusion Check:\nFalse"}}]}
                return Response()

        backend = RemoteBackend(RemoteConfig(endpoint="http://flaky.invalid",
                                             retries=3, backoff=0.0))
        backend._session = FlakySession()
        assert backend.invoke_module("confusion_check", context="x") is False
        assert backend.calls == 1 and len(attempts) == 3

    def test_transport_error_after_retries(self):
        class DeadSession:
            def post(self, *args, **kwargs):
                import requests
                raise requests.ConnectionError("down")

        backend = RemoteBackend(RemoteConfig(endpoint="http://dead.invalid",
                                             retries=1, backoff=0.0))
        backend._session = DeadSession()
        with pytest.raises(TransportError):
            backend.invoke_module("confusion_check", context="x")
        assert backend.calls == 1

    def test_two_invocations_count_two(self):
        backend = RemoteBackend(offline_config(),
                                transport=lambda prompt: "Confusion Check:\nFalse")
        backend.invoke_module("confusion_check", context="a")
        backend.invoke_module("confusion_check", context="b")
        assert backend.calls == 2

    def test_rate_limit_is_honored_with_backoff(self):
        attempts = []

        class ThrottledSession:
            def post(self, *args, **kwargs):
                attempts.append(1)

                class Response:
                    status_code = 429 if len(attempts) == 1 else 200

                    def raise_for_status(self):
                        pass

                    def json(self):
                        return {"choices": [{"message": {"content":
                                "Confusion Check:\nTrue"}}]}
                return Response()

        backend = RemoteBackend(RemoteConfig(endpoint="http://throttle.invalid",
                                             retries=2, backoff=0.0))
        backend._session = ThrottledSession()
        assert backend.invoke_module("confusion_check", context="x") is True
        assert len(attempts) == 2 and backend.calls == 1


class TestCassette:
    def test_save_and_load_round_trip(self, tmp_path):
        cassette = Cassette(["one", "two"])
        path = tmp_path / "tape.jsonl"
        cassette.save(str(path))
        loaded = Cassette.load(str(path))
        assert loaded.entries == ["one", "two"]
        assert loaded("prompt") == "one"
        assert loaded("prompt") == "two"
        with pytest.raises(TransportError):
            loaded("prompt")


class TestFullRuns:
    def test_scripted_bidirectional_run(self):
        backend = RemoteBackend(offline_config(), transport=Cassette(list(SCRIPT)))
        verdict = prove_bidirectional(DEMO, EngineConfig(), backend)
        assert verdict.label is Label.PROVED
        assert verdict.calls == len(verdict.trace.steps) == backend.calls == 9
        assert bool(replay_validate(verdict.trace, DEMO))

    def test_raw_responses_preserved_verbatim(self):
        backend = RemoteBackend(offline_config(), transport=Cassette(list(SCRIPT)))
        verdict = prove_bidirectional(DEMO, EngineConfig(), backend)
        raws = [entry["raw"] for step in verdict.trace.steps
                for entry in step.payload.get("responses", [])]
        assert raws == SCRIPT

    def test_call_count_parity_with_symbolic(self):
        symbolic = prove_bidirectional(DEMO)
        remote = prove_bidirectional(
            DEMO, backend=RemoteBackend(offline_config(), transport=Cassette(list(SCRIPT))))
        assert symbolic.calls == remote.calls
        assert [s.module for s in symbolic.trace.steps] == \
            [s.module for s in remote.trace.steps]

    def test_corrupted_response_stalls_with_warning(self):
        script = list(SCRIPT)
        script[2] = "%%% total nonsense %%%"  # forward selection garbled
        backend = RemoteBackend(offline_config(), transport=Cassette(script))
        verdict = prove_bidirectional(DEMO, EngineConfig(max_steps=3), backend)
        assert any("stall" in w for w in verdict.warnings)

    def test_hallucinated_deduction_fails_replay(self):
        script = list(SCRIPT)
        script[3] = ("Inferences:\nTherefore, the cow chases the lion (Premise 3). "
                     "Additionally, the bear is cold (Premise 2).")
        backend = RemoteBackend(offline_config(), transport=Cassette(script))
        verdict = prove_bidirectional(DEMO, EngineConfig(max_steps=4), backend)
        assert any("unsupported deduction" in w for w in verdict.warnings)
        assert not replay_validate(verdict.trace, DEMO)

    def test_deduction_citing_no_fact_is_dropped(self):
        script = list(SCRIPT)
        script[3] += "\nAdditionally, the bear is cold."  # its own line: it cites nothing
        backend = RemoteBackend(offline_config(), transport=Cassette(script))
        verdict = prove_bidirectional(DEMO, EngineConfig(), backend)
        assert any("unsupported deduction" in w for w in verdict.warnings)
        assert verdict.label is Label.PROVED
        assert verdict.calls == backend.calls == 9
        assert verdict.trace.steps[3].payload["responses"][0]["raw"] == script[3]
        assert bool(replay_validate(verdict.trace, DEMO))

    def test_deduction_needs_a_selection(self):
        backend = RemoteBackend(offline_config(), transport=Cassette(list(SCRIPT)))
        with pytest.raises(ValueError):
            backend.logic_deduce(RuleSelection(()), DEMO.kb)
        assert backend.calls == 0

    def test_scripted_backward_run(self):
        backend = RemoteBackend(offline_config(), transport=Cassette(list(BACKWARD_SCRIPT)))
        verdict = prove_backward(DEMO, EngineConfig(), backend)
        assert verdict.label is Label.PROVED
        assert verdict.calls == len(verdict.trace.steps) == backend.calls == 14
        assert any("rules [1] match no open goal" in w for w in verdict.warnings)
        assert [s.module for s in verdict.trace.steps] == \
            [s.module for s in prove_backward(DEMO).trace.steps]
        assert bool(replay_validate(verdict.trace, DEMO))

    def test_disproved_goal_set_cites_the_negation(self):
        kb = KnowledgeBase.from_literals([attr("cow", "big"), attr("cow", "blue", False)])
        answer = "Fact Check:\nThe hypothesis can be directly disproved by Premise 2."
        backend = RemoteBackend(offline_config(), transport=Cassette([answer]))
        gs = GoalSet((Goal(attr("cow", "red")), Goal(attr("cow", "blue"))))
        res = backend.fact_check((gs,), kb)
        assert [(g.status, g.fact_id) for g in res.goalsets[0].goals] == \
            [(GoalStatus.OPEN, None), (GoalStatus.CONTRADICTED, 2)]
        assert res.goalsets[0].failed and res.label is Label.UNKNOWN

    def test_goal_set_confusion_check_lists_each_set(self):
        prompts = []
        backend = RemoteBackend(offline_config(), transport=lambda prompt: (
            prompts.append(prompt) or "Confusion Check:\nTrue"))
        sets = (GoalSet((Goal(attr("cow", "red")), Goal(attr("cow", "big"))), origin_rule=1),
                GoalSet((Goal(attr("cow", "cold")),), origin_rule=2))
        assert backend.confusion_check(sets) is True
        assert ("According to Rule 1, we need to prove the cow is red and the cow is big.\n"
                "According to Rule 2, we need to prove the cow is cold.\n") in prompts[0]

    def test_freeform_problem_needs_remote(self):
        freeform = parse_problem(
            "fact: The cow is blue.\nfact: Cows generally admire tuesdays.\n"
            "hypothesis: The cow is blue.\n", allow_freeform=True)
        with pytest.raises(ValueError):
            prove_bidirectional(freeform)  # symbolic backend refuses
        backend = RemoteBackend(offline_config(), transport=Cassette([
            "Fact Identify:\n1: The cow is blue.",
            "Fact Check:\nThe hypothesis can be directly proved by Premise 1.",
        ]))
        verdict = prove_bidirectional(freeform, EngineConfig(), backend)
        assert verdict.label is Label.PROVED

    def test_proved_goal_set_cites_each_goal_its_own_fact(self):
        kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
        answer = "Fact Check:\nThe hypothesis can be directly proved by Premise 1."
        backend = RemoteBackend(offline_config(), transport=Cassette([answer, answer]))
        for second, fact in ((attr("cow", "big"), 2), (attr("cow", "red"), 1)):
            # a goal without a stored fact keeps the cited premise for replay to reject
            gs = GoalSet((Goal(attr("cow", "blue")), Goal(second)))
            res = backend.fact_check((gs,), kb)
            assert [g.fact_id for g in res.goalsets[0].goals] == [1, fact]

    def test_proved_hypothesis_cites_its_own_fact(self):
        problem = parse_problem("fact: The cow is blue.\nfact: The cow is big.\n"
                                "hypothesis: The cow is big.\n")
        answer = "Fact Check:\nThe hypothesis can be directly proved by Premise 1."
        backend = RemoteBackend(offline_config(), transport=Cassette([answer] * 3))
        verdict = prove_forward(problem, EngineConfig(), backend)
        assert verdict.label is Label.PROVED
        assert verdict.trace.resolution == {"kind": "fact", "fact": 2}
        assert replay_validate(verdict.trace, problem)
        # a hypothesis without a stored fact keeps the cited premise for replay to reject
        res = backend.fact_check(Hypothesis(attr("cow", "red")), problem.kb)
        assert (res.label, res.evidence) == (Label.PROVED, 1)


def _goal_set_disproved(backend):
    kb = KnowledgeBase.from_literals([attr("cow", "big"), attr("cow", "blue", False)])
    backend.fact_check((GoalSet((Goal(attr("cow", "red")), Goal(attr("cow", "blue")))),), kb)


def _goal_set_proved(backend):
    kb = KnowledgeBase.from_literals([attr("cow", "blue"), attr("cow", "big")])
    for second in (attr("cow", "big"), attr("cow", "red")):
        backend.fact_check((GoalSet((Goal(attr("cow", "blue")), Goal(second))),), kb)
    # only the open goal is shown
    proven = Goal(attr("cow", "blue"), GoalStatus.PROVEN, fact_id=1)
    backend.fact_check((GoalSet((proven, Goal(attr("cow", "big")))),), kb)


def _freeform(backend):
    problem = parse_problem(
        "fact: The cow is blue.\nfact: Cows generally admire tuesdays.\n"
        "hypothesis: The cow is blue.\n", allow_freeform=True)
    prove_bidirectional(problem, EngineConfig(), backend)


_DISPROVED_BY_2 = "Fact Check:\nThe hypothesis can be directly disproved by Premise 2."
_PROVED_BY_1 = "Fact Check:\nThe hypothesis can be directly proved by Premise 1."

# run name -> (answers, run over a backend, prompt count, SHA-256 of the
# prompts joined by NUL)
GOLDEN_PROMPTS = {
    "bi": (SCRIPT, lambda b: prove_bidirectional(DEMO, EngineConfig(), b), 9,
           "334ab96dcfccbf503c3ee3597d9ff5bc6915679c46a70a6f8236c583d4476491"),
    "backward": (BACKWARD_SCRIPT, lambda b: prove_backward(DEMO, EngineConfig(), b), 14,
                 "ef364e71c3b9ecebf33724f8b9993f9be5d0eca2df9e305043a28135a55d4039"),
    "freeform": (["Fact Identify:\n1: The cow is blue.", _PROVED_BY_1], _freeform, 2,
                 "bdbfc7fc73b3880bee2eec4b1f8d3b77198ef5570955776d8f2e380f61b8cf0a"),
    "goal_set_disproved": ([_DISPROVED_BY_2], _goal_set_disproved, 1,
                           "b81a10b517015195fb9fa8dc9387133972089b710c41fb75bd31d53d5e9c122d"),
    "goal_set_proved": ([_PROVED_BY_1] * 3, _goal_set_proved, 3,
                        "5fa8c027a57c9d0c13aa104a1fefef53d2504074b0bbb2fe0f6d8db90a5c844b"),
}


class TestGoldenPrompts:
    """Every prompt of the scripted runs, byte for byte: premise listings,
    rule numbers in the deduce and abduce contexts, goal renderings."""

    @pytest.mark.parametrize("run", sorted(GOLDEN_PROMPTS))
    def test_prompts_are_pinned(self, run):
        answers, drive, count, digest = GOLDEN_PROMPTS[run]
        prompts = []
        cassette = Cassette(list(answers))
        backend = RemoteBackend(offline_config(), transport=lambda prompt: (
            prompts.append(prompt) or cassette(prompt)))
        drive(backend)
        joined = "\0".join(prompts)
        assert (len(prompts), hashlib.sha256(joined.encode()).hexdigest()) == \
            (count, digest)


class TestImports:
    def test_package_import_leaves_requests_unloaded(self):
        code = ("import sys, bichain, bichain.bench, bichain.cli\n"
                "assert 'requests' not in sys.modules, 'requests imported'\n"
                "from bichain.modules import TransportError as a\n"
                "from bichain.remote import TransportError as b\n"
                "assert a is b\n")
        src = str(Path(bichain.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class _StubHandler(BaseHTTPRequestHandler):
    script: list[str] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        _StubHandler.seen.append(body)
        content = _StubHandler.script.pop(0)
        payload = json.dumps(
            {"choices": [{"message": {"content": content}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class TestStubEndpoint:
    def test_full_run_over_the_wire(self):
        _StubHandler.script = list(SCRIPT)
        _StubHandler.seen = []
        server = HTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            cfg = RemoteConfig(
                endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
                api_key="test-key", model="stub-model", retries=0)
            backend = RemoteBackend(cfg)
            verdict = prove_bidirectional(DEMO, EngineConfig(), backend)
        finally:
            server.shutdown()
        assert verdict.label is Label.PROVED
        assert verdict.calls == len(verdict.trace.steps) == 9
        assert len(_StubHandler.seen) == 9
        first = _StubHandler.seen[0]
        assert first["model"] == "stub-model"
        assert first["temperature"] == 0.1
        assert first["max_tokens"] == 1024
        assert "Task Description:" in first["messages"][0]["content"]
