"""Remote chat-completion ModuleBackend (see bichain.modules).

Prompts are rendered from data-file templates (one per module kind), sent to
a configurable chat-completion endpoint, and parsed back into module
outputs.  Every module method asks through one path: its premise listing
numbers facts, then rules, then free-form statements (``PremiseIndex``, which
also maps cited numbers back to ids), and ``invoke_module`` sends the prompt
and returns the parsed payload.  Responses are parsed strictly first, then
through a keyword fallback; a response that fails both reads as None, a
stall with a warning, never a crash.  Each response is recorded as
``{kind, raw, ok, fallback}``, and ``drain_responses`` hands these records
over so the trace keeps the raw text for replay to audit every claim.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from importlib import resources

import requests

from .language import (
    Hypothesis,
    Label,
    ParseError,
    Problem,
    parse_literal,
    render_clause,
    render_hypothesis,
    render_literal,
    render_rule,
)
from .modules import (
    DeductionStep,
    Derivation,
    FactCheckResult,
    GoalSet,
    GoalStatus,
    RuleSelection,
    TransportError,
    abduce_goal_set,
    match_consequent,
    select_by_goal,
    serialize_binding,
)
from .terms import KnowledgeBase, Literal

TEMPLATE_KINDS = (
    "fact_identify", "rule_select_forward", "rule_select_backward",
    "logic_deduce", "logic_abduce", "fact_check", "confusion_check",
)

ENV_ENDPOINT = "BICHAIN_ENDPOINT"
ENV_API_KEY = "BICHAIN_API_KEY"
ENV_MODEL = "BICHAIN_MODEL"


class RateLimited(Exception):
    """HTTP 429; honored with backoff before the next attempt."""


class ResponseParseFailed(Exception):
    def __init__(self, message: str, text: str):
        super().__init__(f"{message}: {text[:80]!r}" if text else message)


@dataclass(frozen=True)
class RemoteConfig:
    endpoint: str
    api_key: str = ""
    model: str = ""
    temperature: float = 0.1
    max_tokens: int = 1024
    retries: int = 2
    backoff: float = 1.0
    timeout: float = 30.0
    max_concurrent: int = 4

    def __post_init__(self) -> None:
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must be within [0, 2]")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")

    @classmethod
    def from_env(cls) -> "RemoteConfig":
        endpoint = os.environ.get(ENV_ENDPOINT, "")
        if not endpoint:
            raise ValueError(f"{ENV_ENDPOINT} is not set; the remote backend "
                             "needs an endpoint URL")
        return cls(endpoint=endpoint,
                   api_key=os.environ.get(ENV_API_KEY, ""),
                   model=os.environ.get(ENV_MODEL, ""))


def _template(kind: str) -> str:
    if kind not in TEMPLATE_KINDS:
        raise ValueError(f"unknown template kind {kind!r}")
    return resources.files("bichain.templates").joinpath(f"{kind}.txt").read_text("utf-8")


def render_prompt(kind: str, hypothesis: str = "", premises: str = "",
                  context: str = "") -> str:
    """Deterministic prompt text for one module invocation."""
    text = _template(kind)
    return text.format(hypothesis=hypothesis, premises=premises, context=context)


class PremiseIndex:
    """The premise numbering prompts show: facts 1..F, rules F+1..F+R, then
    free-form statements; cited premise numbers map back to fact or rule ids
    in citation order, out-of-range numbers dropped, duplicates kept."""

    def __init__(self, kb: KnowledgeBase, freeform: tuple[str, ...] = ()):
        self.kb = kb
        self.freeform = freeform

    def rule_number(self, rule_id: int) -> int:
        return len(self.kb.facts) + rule_id

    def rule_lines(self, rule_ids: Iterable[int]) -> list[str]:
        return [f"{self.rule_number(rid)}: {render_rule(self.kb.rule(rid))}"
                for rid in rule_ids]

    def listing(self) -> str:
        lines = [f"{f.id}: {render_literal(f.literal)}" for f in self.kb.facts]
        lines += self.rule_lines(r.id for r in self.kb.rules)
        lines += [f"{i}: {text}" for i, text in enumerate(self.freeform, len(lines) + 1)]
        return "\n".join(lines)

    def fact_ids(self, numbers: Iterable[int]) -> list[int]:
        return [n for n in numbers if 1 <= n <= len(self.kb.facts)]

    def rule_ids(self, numbers: Iterable[int]) -> list[int]:
        by_number = {self.rule_number(r.id): r.id for r in self.kb.rules}
        return [by_number[n] for n in numbers if n in by_number]


# --------------------------------------------------------------------------
# Response grammars
# --------------------------------------------------------------------------

_DIRECT_RE = re.compile(r"directly\s+(proved|disproved)\s+by\s+Premise\s+(\d+)", re.I)
_NUMBER_RE = re.compile(r"(?:Premise|Rule)\s+(\d+)", re.I)
_LINE_NUMBER_RE = re.compile(r"^\s*(\d+)\s*:", re.M)
_LABEL_WORDS = (("disproved", Label.DISPROVED), ("proved", Label.PROVED),
                ("false", Label.DISPROVED), ("true", Label.PROVED),
                ("unknown", Label.UNKNOWN))
# discourse markers models put in front of the actual clause
_CLAUSE_START_RE = re.compile(r"\b(the|someone|they)\b", re.I)


def _find_label(text: str) -> Label | None:
    lowered = text.lower()
    hits = [(lowered.rfind(word), label) for word, label in _LABEL_WORDS]
    hits = [(i, label) for i, label in hits if i >= 0]
    return max(hits)[1] if hits else None


def _extract_literal(sentence: str) -> Literal | None:
    """Parse a clause out of a free-form sentence, skipping lead-ins like
    "Therefore," or "We know that"."""
    for m in _CLAUSE_START_RE.finditer(sentence):
        try:
            return parse_literal(sentence[m.start():])
        except ParseError:
            continue
    return None


def parse_module_response(kind: str, text: str) -> tuple[object, bool]:
    """Parse one response per the module's grammar.

    Returns (payload, used_fallback).  Raises ResponseParseFailed when even
    the fallback keyword scan finds nothing usable.
    """
    if kind == "fact_check":
        m = _DIRECT_RE.search(text)
        if m:
            label = Label.PROVED if m.group(1).lower() == "proved" else Label.DISPROVED
            return (label, int(m.group(2))), False
        lines = [l.strip() for l in text.splitlines() if l.strip()
                 and not l.strip().endswith(":")]
        if lines:
            label = _find_label(lines[-1])
            if label is not None:
                return (label, None), False
        label = _find_label(text)
        if label is not None:
            return (label, None), True
        raise ResponseParseFailed("no label keyword in fact check", text)
    if kind in ("fact_identify", "rule_select_forward", "rule_select_backward"):
        numbers = [int(n) for n in _NUMBER_RE.findall(text)]
        numbers += [int(n) for n in _LINE_NUMBER_RE.findall(text)]
        unique = list(dict.fromkeys(numbers))
        if not unique:
            raise ResponseParseFailed("no premise numbers in selection", text)
        return unique, False
    if kind == "confusion_check":
        m = re.search(r"Confusion Check:\s*\n?\s*(True|False)", text, re.I)
        if m:
            return m.group(1).lower() == "true", False
        tokens = re.findall(r"\b(true|false)\b", text, re.I)
        if tokens:
            return tokens[-1].lower() == "true", True
        raise ResponseParseFailed("no True/False in confusion check", text)
    if kind in ("logic_deduce", "logic_abduce"):
        entries = []
        for chunk in re.split(r"\n|(?<=\.)\s+or\b", text):
            chunk = chunk.strip()
            if not chunk or chunk.endswith(":"):
                continue
            cited = [int(n) for n in _NUMBER_RE.findall(chunk)]
            cleaned = re.sub(r"\((?:Premise|Rule) \d+\)", "", chunk)
            parsed: list[Literal] = []
            opaque: list[str] = []
            for sentence in re.findall(r"[A-Za-z][^.]*\.", cleaned):
                literal = _extract_literal(sentence)
                if literal is not None:
                    parsed.append(literal)
                else:
                    opaque.append(sentence.strip())
            if cited or parsed or opaque:
                entries.append({"cited": cited, "literals": parsed, "opaque": opaque})
        if not entries:
            raise ResponseParseFailed("no usable content", text)
        return entries, False
    raise ValueError(f"unknown response kind {kind!r}")


# --------------------------------------------------------------------------
# Wire client
# --------------------------------------------------------------------------

_concurrency_locks: dict[int, threading.Semaphore] = {}
_locks_guard = threading.Lock()


def _semaphore(limit: int) -> threading.Semaphore:
    with _locks_guard:
        if limit not in _concurrency_locks:
            _concurrency_locks[limit] = threading.Semaphore(limit)
        return _concurrency_locks[limit]


def _agreeing_fact(kb: KnowledgeBase, literal: Literal, claim: Label) -> int | None:
    """The id of the stored fact that settles the literal (``kb.decide``),
    when it settles it the way a Proved or Disproved claim says."""
    fact = kb.decide(literal)
    if fact is None or (fact.literal == literal) != (claim is Label.PROVED):
        return None
    return fact.id


class RemoteBackend:
    """ModuleBackend that answers every contract over the wire.

    ``transport`` may be swapped for a callable (prompt -> text) to replay
    recorded responses offline; the default posts a chat-completion request.
    One invocation is one wire request; transport retries do not add calls.
    """

    def __init__(self, config: RemoteConfig, transport=None):
        self.config = config
        self.transport = transport or self._http_transport
        self.calls = 0
        self.warnings: list[str] = []
        self.responses: list[dict] = []
        self._session = requests.Session()
        self._freeform: tuple[str, ...] = ()

    def bind_problem(self, problem: Problem) -> None:
        """Free-form statements ride along in every premise listing."""
        self._freeform = problem.freeform_facts + problem.freeform_rules

    # -- transport ----------------------------------------------------------

    def _http_transport(self, prompt: str) -> str:
        payload = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        last_error: Exception | None = None
        for attempt in range(self.config.retries + 1):
            try:
                with _semaphore(self.config.max_concurrent):
                    response = self._session.post(
                        self.config.endpoint, json=payload, headers=headers,
                        timeout=self.config.timeout)
                if response.status_code == 429:
                    raise RateLimited("rate limited")
                response.raise_for_status()
                body = response.json()
                return body["choices"][0]["message"]["content"]
            except (requests.RequestException, RateLimited, KeyError, ValueError) as exc:
                last_error = exc
                if attempt < self.config.retries:
                    time.sleep(self.config.backoff * (attempt + 1))
        raise TransportError(f"endpoint failed after {self.config.retries + 1} "
                             f"attempts: {last_error}")

    def invoke_module(self, kind: str, hypothesis: str = "", premises: str = "",
                      context: str = "") -> object:
        """One inference call: the parsed payload, or None for a response
        neither grammar reads (a stall, with a warning).  The raw response is
        recorded for ``drain_responses``."""
        prompt = render_prompt(kind, hypothesis, premises, context)
        self.calls += 1  # one inference call, before any retry accounting
        raw = self.transport(prompt)
        payload, fallback = None, False
        try:
            payload, fallback = parse_module_response(kind, raw)
        except ResponseParseFailed as exc:
            self.warnings.append(f"{kind}: unparseable response treated as a stall "
                                 f"({exc})")
        if fallback:
            self.warnings.append(f"{kind}: fallback keyword parse used")
        self.responses.append({"kind": kind, "raw": raw, "ok": payload is not None,
                               "fallback": fallback})
        return payload

    def drain_warnings(self) -> list[str]:
        out = self.warnings
        self.warnings = []
        return out

    def drain_responses(self) -> list[dict]:
        """Raw wire responses since the last drain, for verbatim trace capture."""
        out = self.responses
        self.responses = []
        return out

    # -- module contracts -----------------------------------------------------

    def _ask(self, kind: str, kb: KnowledgeBase | None, shown: str = "",
             context: str = "") -> tuple[PremiseIndex | None, object]:
        """Ask one module over the premise listing of ``kb`` (none for a
        confusion check): the listing's index and the parsed payload, None
        for an unparseable response."""
        index = None if kb is None else PremiseIndex(kb, self._freeform)
        listing = "" if index is None else index.listing()
        return index, self.invoke_module(kind, shown, listing, context)

    def _check(self, kb: KnowledgeBase, shown: str) -> tuple[Label, int | None]:
        """One fact check: the claimed label and the fact id it cites."""
        index, payload = self._ask("fact_check", kb, shown)
        if payload is None:
            return Label.UNKNOWN, None
        label, number = payload
        cited = index.fact_ids([number]) if number else []
        return label, cited[0] if cited else None

    def fact_identify(self, hypothesis: Hypothesis, kb: KnowledgeBase) -> tuple[int, ...]:
        if not kb.facts:
            raise ValueError("fact identification needs a non-empty knowledge base")
        index, numbers = self._ask("fact_identify", kb, render_hypothesis(hypothesis))
        kept = () if numbers is None else tuple(index.fact_ids(numbers))
        return kept or tuple(f.id for f in kb.facts)

    def rule_select_forward(self, relevant: tuple[int, ...], kb: KnowledgeBase,
                            goals: tuple[Literal, ...]) -> RuleSelection:
        shown = render_literal(goals[0]) if goals else ""
        index, numbers = self._ask("rule_select_forward", kb, shown)
        if numbers is None:
            return RuleSelection(())
        kept = tuple(dict.fromkeys(index.rule_ids(numbers)))
        bridge = None
        if len(kept) == 1 and goals:
            rule = kb.rule(kept[0])
            if any(match_consequent(rule, g) is not None for g in goals):
                bridge = kept[0]
        return RuleSelection(kept, bridge=bridge)

    def rule_select_backward(self, goals: tuple[Literal, ...],
                             kb: KnowledgeBase) -> RuleSelection:
        shown = "\n".join(render_literal(g) for g in goals)
        index, numbers = self._ask("rule_select_backward", kb, shown)
        if numbers is None:
            return RuleSelection((), by_goal=tuple((g, ()) for g in goals))
        kept = list(dict.fromkeys(index.rule_ids(numbers)))
        selection = select_by_goal(goals, [kb.rule(i) for i in kept])
        dropped = set(kept) - set(selection.rule_ids)
        if dropped:
            self.warnings.append(
                f"rule_select_backward: rules {sorted(dropped)} match no open goal")
        return selection

    def _reconstruct(self, literal: Literal, kb: KnowledgeBase,
                     cited_rules: list[int]) -> Derivation | None:
        """Find a rule application deriving the literal from current facts,
        trying the cited rules first."""
        rules = [kb.rule(i) for i in cited_rules] + [r for r in kb.rules
                                                     if r.id not in cited_rules]
        for rule, conclusion, binding, premises in kb.instances(rules):
            if conclusion == literal:
                return Derivation(literal, rule.id, premises, serialize_binding(binding))
        return None

    def logic_deduce(self, selection: RuleSelection, kb: KnowledgeBase) -> DeductionStep:
        if not selection.rule_ids:
            raise ValueError("deduction needs a non-empty rule selection")
        selected = "\n".join(PremiseIndex(kb).rule_lines(selection.rule_ids))
        index, entries = self._ask("logic_deduce", kb, context=selected)
        derived: list[Derivation] = []
        seen: set[Literal] = set()
        for entry in entries or ():
            cited_rules = index.rule_ids(entry["cited"])
            for literal in entry["literals"]:
                if not literal.is_ground or kb.lookup(literal) is not None \
                        or literal in seen:
                    continue
                seen.add(literal)
                rebuilt = self._reconstruct(literal, kb, cited_rules)
                if rebuilt is not None:
                    derived.append(rebuilt)
                    continue
                # unsupported claim: kept with the facts it cites for replay to
                # flag; one citing none is dropped (its text stays in the step)
                self.warnings.append(f"logic_deduce: unsupported deduction "
                                     f"{render_literal(literal)!r}")
                cited_facts = tuple(index.fact_ids(entry["cited"]))
                if cited_facts:
                    rule_id = cited_rules[0] if cited_rules else selection.rule_ids[0]
                    derived.append(Derivation(literal, rule_id, cited_facts))
            if entry["opaque"]:
                self.warnings.append(
                    f"logic_deduce: opaque response text kept out of the fact "
                    f"store: {entry['opaque'][0][:60]!r}")
        return DeductionStep(tuple(derived))

    def logic_abduce(self, goal: Literal, selection: RuleSelection,
                     kb: KnowledgeBase) -> tuple[GoalSet, ...]:
        selected = "\n".join(PremiseIndex(kb).rule_lines(selection.rule_ids))
        index, entries = self._ask("logic_abduce", kb, render_literal(goal), selected)
        out: list[GoalSet] = []
        for entry in entries or ():
            cited = index.rule_ids(entry["cited"])
            if not cited or cited[0] not in selection.rule_ids:
                continue
            rid = cited[0]
            gs = abduce_goal_set(kb.rule(rid), goal)
            if gs is None:
                self.warnings.append(f"logic_abduce: rule {rid} does not unify "
                                     f"with {render_literal(goal)!r}")
                continue
            claimed = entry["literals"]
            if claimed and set(claimed) != {g.literal for g in gs.goals}:
                self.warnings.append(f"logic_abduce: response restates rule {rid} "
                                     "conditions differently; using the rule text")
            out.append(gs)
        return tuple(out)

    def fact_check(self, target, kb: KnowledgeBase) -> FactCheckResult:
        if isinstance(target, Hypothesis):
            label, evidence = self._check(kb, render_hypothesis(target))
            if label is not Label.UNKNOWN:
                evidence = _agreeing_fact(kb, target.consequent, label) or evidence
            return FactCheckResult(label, evidence=evidence)
        goalsets: list[GoalSet] = list(target)
        pending = next((i for i, gs in enumerate(goalsets)
                        if not gs.satisfied and not gs.failed), None)
        label, cited = Label.UNKNOWN, None
        if pending is not None:
            label, cited = self._check(kb, "\n".join(
                render_literal(g.literal) for g in goalsets[pending].open_goals()))
        if label is not Label.UNKNOWN:
            goals = []
            for g in goalsets[pending].goals:
                if g.status is GoalStatus.OPEN:
                    # a Proved claim covers every open goal (one the store does
                    # not prove keeps the cited premise, which replay rejects);
                    # a Disproved one marks only the goals the store disproves
                    evidence = _agreeing_fact(kb, g.literal, label)
                    if label is Label.PROVED:
                        g = replace(g, status=GoalStatus.PROVEN, fact_id=evidence or cited)
                    elif evidence is not None:
                        g = replace(g, status=GoalStatus.CONTRADICTED, fact_id=evidence)
                goals.append(g)
            goalsets[pending] = replace(goalsets[pending], goals=tuple(goals))
        satisfied = next((i for i, gs in enumerate(goalsets) if gs.satisfied), None)
        label = Label.PROVED if satisfied is not None else Label.UNKNOWN
        return FactCheckResult(label, goalsets=tuple(goalsets), satisfied=satisfied)

    def confusion_check(self, step) -> bool:
        if isinstance(step, DeductionStep):
            lines = [render_literal(d.literal) for d in step.derived]
        else:
            lines = []
            for gs in step:
                goals = " and ".join(render_clause(g.literal) for g in gs.goals)
                lines.append(f"According to Rule {gs.origin_rule}, "
                             f"we need to prove {goals}.")
        _, confused = self._ask("confusion_check", None, context="\n".join(lines))
        return bool(confused)


# --------------------------------------------------------------------------
# Recorded-response cassettes
# --------------------------------------------------------------------------


@dataclass
class Cassette:
    """Replays recorded responses in order; a convenient offline transport."""

    entries: list[str] = field(default_factory=list)
    position: int = 0

    @classmethod
    def load(cls, path: str) -> "Cassette":
        entries = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    entries.append(json.loads(line)["content"])
        return cls(entries)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for content in self.entries:
                fh.write(json.dumps({"content": content}) + "\n")

    def __call__(self, prompt: str) -> str:
        if self.position >= len(self.entries):
            raise TransportError("cassette exhausted")
        content = self.entries[self.position]
        self.position += 1
        return content
