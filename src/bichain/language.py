"""Restricted-English statement language and problem file formats.

Fact sentences look like "The cow is blue." / "The tiger does not see the
cow."; rule sentences look like "If someone is blue and they chase the lion
then they are rough."  "someone" binds the single rule variable and later
"they"/"them" refer back to it.  Sentences outside the grammar are rejected
with an offset and an expected-token hint, never guessed at.

Two problem file formats are supported: a line-oriented text format with
``fact:`` / ``rule:`` / ``hypothesis:`` / ``option:`` / ``label:`` prefixes
(``#`` starts a comment), and a structured JSON record with ``facts``,
``rules``, ``hypothesis`` or ``options``, and optional ``label`` / ``id``
fields.  Corpus files hold one JSON record per line.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field, replace

from .terms import _RESERVED, VAR, Atom, Entity, KnowledgeBase, Literal, Rule

MAX_CONDITIONS = 3

# Third-person singular -> bare form for the closed verb lexicon; unknown
# verbs fall back to regular (de-)inflection.
VERB_FORMS = {
    "sees": "see", "chases": "chase", "likes": "like", "eats": "eat",
    "visits": "visit", "needs": "need", "wants": "want", "hears": "hear",
    "helps": "help", "hugs": "hug", "loves": "love", "fears": "fear",
    "hunts": "hunt", "follows": "follow", "watches": "watch",
    "pushes": "push", "carries": "carry",
}
_BARE_FORMS = {bare: third for third, bare in VERB_FORMS.items()}


def to_third_person(bare: str) -> str:
    if bare in _BARE_FORMS:
        return _BARE_FORMS[bare]
    if re.search(r"(s|x|z|ch|sh)$", bare):
        return bare + "es"
    if re.search(r"[^aeiou]y$", bare):
        return bare[:-1] + "ies"
    return bare + "s"


def to_bare(third: str) -> str:
    if third in VERB_FORMS:
        return VERB_FORMS[third]
    if third.endswith("ies"):
        return third[:-3] + "y"
    if third.endswith("es") and re.search(r"(s|x|z|ch|sh)es$", third):
        return third[:-2]
    if third.endswith("s"):
        return third[:-1]
    return third


class ParseError(Exception):
    """A sentence outside the grammar, with offset and expected-token hint."""

    def __init__(self, message: str, offset: int, expected: str | None = None):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class ProblemFormatError(Exception):
    """All statement-level errors in a problem document, with line numbers."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


class Label(enum.Enum):
    PROVED = "Proved"
    DISPROVED = "Disproved"
    UNKNOWN = "Unknown"

    @classmethod
    def parse(cls, text: str) -> "Label":
        for label in cls:
            if label.value == text:
                return label
        raise ValueError(f"label must be one of Proved/Disproved/Unknown, got {text!r}")


@dataclass(frozen=True)
class Hypothesis:
    """Optional ground condition plus a ground consequent to decide."""

    consequent: Literal
    condition: tuple[Literal, ...] = ()

    def __post_init__(self) -> None:
        for lit in (self.consequent, *self.condition):
            if not lit.is_ground:
                raise ValueError("hypotheses must be ground")


@dataclass(frozen=True)
class Problem:
    """A knowledge base plus either one hypothesis or an option list."""

    kb: KnowledgeBase
    hypothesis: Hypothesis | None = None
    options: tuple[Hypothesis, ...] = ()
    gold_label: Label | None = None
    meta: str = ""
    freeform_facts: tuple[str, ...] = ()
    freeform_rules: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.options and self.hypothesis is not None:
            raise ValueError("multi-option problems carry no standalone hypothesis")
        if not self.options and self.hypothesis is None:
            raise ValueError("a problem needs a hypothesis or options")

    @property
    def remote_only(self) -> bool:
        """True when free-form statements exclude the symbolic backend."""
        return bool(self.freeform_facts or self.freeform_rules)


# --------------------------------------------------------------------------
# Tokenizer / clause parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z]+|\.|[^A-Za-z\s.]+")


def _tokenize(text: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][0].lower()
        return None

    def offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of sentence", self.offset())
        self.pos += 1
        return tok

    def expect(self, *alternatives: str) -> str:
        tok = self.peek()
        if tok not in alternatives:
            raise ParseError(
                f"unexpected token {tok!r}" if tok is not None else "unexpected end of sentence",
                self.offset(), expected=" or ".join(repr(a) for a in alternatives))
        return self.take()

    def word(self, what: str) -> str:
        tok = self.peek()
        if tok is None or not tok.isalpha():
            raise ParseError("unexpected end of sentence" if tok is None else f"unexpected token {tok!r}",
                             self.offset(), expected=what)
        if tok in _RESERVED:
            raise ParseError(f"reserved word {tok!r} cannot be used as a {what}",
                             self.offset(), expected=what)
        return self.take()


class _ClauseState:
    """Tracks whether "someone" has introduced the variable yet."""

    def __init__(self) -> None:
        self.var_seen = False


_SOMEONE = "someone"
_THEY = "they"
_THEM = "them"


def _parse_subject(cur: _Cursor, state: _ClauseState) -> tuple[Entity, str]:
    """Parse a clause subject; returns the entity and its surface form."""
    tok = cur.peek()
    if tok == "the":
        cur.take()
        return Entity(cur.word("name")), "named"
    if tok == _SOMEONE:
        if state.var_seen:
            raise ParseError("a second 'someone' is ambiguous; use 'they'",
                             cur.offset(), expected="'they'")
        cur.take()
        state.var_seen = True
        return VAR, _SOMEONE
    if tok == _THEY:
        if not state.var_seen:
            raise ParseError("'they' has no 'someone' to refer to",
                             cur.offset(), expected="'the <name>' or 'someone'")
        cur.take()
        return VAR, _THEY
    raise ParseError(f"unexpected token {tok!r}" if tok is not None else "unexpected end of sentence",
                     cur.offset(), expected="'the', 'someone' or 'they'")


def _parse_object(cur: _Cursor, state: _ClauseState) -> Entity:
    tok = cur.peek()
    if tok == "the":
        cur.take()
        return Entity(cur.word("name"))
    if tok == _THEM:
        if not state.var_seen:
            raise ParseError("'them' has no 'someone' to refer to",
                             cur.offset(), expected="'the <name>'")
        cur.take()
        return VAR
    raise ParseError(f"unexpected token {tok!r}" if tok is not None else "unexpected end of sentence",
                     cur.offset(), expected="'the <name>' or 'them'")


def _parse_clause(cur: _Cursor, state: _ClauseState) -> Literal:
    subject, surface = _parse_subject(cur, state)
    plural = surface == _THEY  # "they are", "they chase", "they do not chase"
    tok = cur.peek()
    if tok in ("is", "are"):
        cur.expect("are" if plural else "is")
        positive = True
        if cur.peek() == "not":
            cur.take()
            positive = False
        adjective = cur.word("adjective")
        return Literal(Atom(subject, adjective), positive)
    if tok in ("does", "do"):
        cur.expect("do" if plural else "does")
        cur.expect("not")
        verb = to_third_person(cur.word("verb"))
        obj = _parse_object(cur, state)
        return Literal(Atom(subject, verb, obj), positive=False)
    verb = cur.word("verb")
    verb = to_third_person(verb) if plural else verb
    obj = _parse_object(cur, state)
    return Literal(Atom(subject, verb, obj), positive=True)


def _end_of_sentence(cur: _Cursor) -> None:
    if cur.peek() == ".":
        cur.take()
    if cur.peek() is not None:
        raise ParseError(f"trailing token {cur.peek()!r}", cur.offset(), expected="end of sentence")


def parse_literal(text: str) -> Literal:
    """Parse one clause in isolation; someone/they/them all name the variable."""
    cur = _Cursor(text)
    state = _ClauseState()
    state.var_seen = True  # isolated clauses may open with they/them
    first = cur.peek()
    if first == _SOMEONE:
        state.var_seen = False
    lit = _parse_clause(cur, state)
    _end_of_sentence(cur)
    return lit


def parse_statement(text: str) -> Literal | Rule:
    """Parse one sentence: a ground fact literal or a rule.

    Rules come back with id 0; problem assembly renumbers them.
    """
    cur = _Cursor(text)
    if cur.peek() == "if":
        cur.take()
        state = _ClauseState()
        conditions = [_parse_clause(cur, state)]
        while cur.peek() == "and":
            if len(conditions) >= MAX_CONDITIONS:
                raise ParseError(f"rules take at most {MAX_CONDITIONS} conditions", cur.offset(),
                                 expected="'then'")
            cur.take()
            conditions.append(_parse_clause(cur, state))
        cur.expect("then")
        consequent = _parse_clause(cur, state)
        _end_of_sentence(cur)
        return Rule(0, tuple(conditions), consequent)
    state = _ClauseState()
    lit = _parse_clause(cur, state)
    _end_of_sentence(cur)
    if not lit.is_ground:
        raise ParseError("fact statements must name their subject", 0, expected="'the <name>'")
    return lit


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _render_entity_subject(e: Entity, mentioned: bool) -> str:
    if e.variable:
        return "they" if mentioned else "someone"
    return f"the {e.name}"


def _render_clause(lit: Literal, var_mentioned: bool) -> tuple[str, bool]:
    """Render one clause; returns the text and whether the variable is now mentioned."""
    a = lit.atom
    subj_var = a.subject.variable
    subject = _render_entity_subject(a.subject, var_mentioned if subj_var else False)
    mentioned = var_mentioned or subj_var
    plural = subj_var and var_mentioned  # "they are", "they chase", "they do not"
    if a.obj is None:
        copula = "are" if plural else "is"
        neg = "" if lit.positive else " not"
        return f"{subject} {copula}{neg} {a.predicate}", mentioned
    if a.obj.variable:
        if not mentioned:
            raise ValueError("the variable must first appear as a subject")
        obj = "them"
    else:
        obj = f"the {a.obj.name}"
    if lit.positive:
        verb = to_bare(a.predicate) if plural else a.predicate
        return f"{subject} {verb} {obj}", mentioned
    aux = "do" if plural else "does"
    return f"{subject} {aux} not {to_bare(a.predicate)} {obj}", mentioned


def _capitalize(text: str) -> str:
    return text[0].upper() + text[1:]


def render_clause(lit: Literal) -> str:
    """A ground or template literal as a lower-case clause with no full stop,
    for joining into a sentence."""
    # A lone object-position variable renders as "them"; parse_literal
    # reads isolated clauses with the same convention.
    mentioned = bool(lit.variables()) and not lit.atom.subject.variable
    return _render_clause(lit, var_mentioned=mentioned)[0]


def render_literal(lit: Literal) -> str:
    """Canonical standalone sentence for a ground or template literal."""
    return _capitalize(render_clause(lit)) + "."


def render_rule(rule: Rule) -> str:
    parts = []
    mentioned = False
    for cond in rule.conditions:
        text, mentioned = _render_clause(cond, mentioned)
        parts.append(text)
    consequent, _ = _render_clause(rule.consequent, mentioned)
    return f"If {' and '.join(parts)} then {consequent}."


def render_hypothesis(h: Hypothesis) -> str:
    if not h.condition:
        return render_literal(h.consequent)
    parts = [render_clause(c) for c in h.condition]
    return f"If {' and '.join(parts)} then {render_clause(h.consequent)}."


# --------------------------------------------------------------------------
# Problem assembly
# --------------------------------------------------------------------------


def _parse_hypothesis(text: str) -> Hypothesis:
    parsed = parse_statement(text)
    if isinstance(parsed, Rule):
        for lit in (*parsed.conditions, parsed.consequent):
            if not lit.is_ground:
                raise ParseError("hypotheses must name their subjects", 0,
                                 expected="'the <name>'")
        return Hypothesis(consequent=parsed.consequent, condition=parsed.conditions)
    return Hypothesis(consequent=parsed)


def _assemble(fact_texts: list[str], rule_texts: list[str],
              hypothesis_text: str | None, option_texts: list[str],
              label_text: str | None, meta: str,
              lines: dict[str, int] | None = None,
              allow_freeform: bool = False) -> Problem:
    errors: list[str] = []
    freeform_facts: list[str] = []
    freeform_rules: list[str] = []

    def err(kind: str, index: int, exc: Exception) -> None:
        line = lines.get(f"{kind}:{index}") if lines else None
        where = f"line {line}" if line is not None else f"{kind} {index + 1}"
        errors.append(f"{where}: {exc}")

    literals: list[Literal] = []
    for i, text in enumerate(fact_texts):
        try:
            parsed = parse_statement(text)
            if isinstance(parsed, Rule):
                raise ParseError("rule sentence in a fact position", 0, expected="a fact")
            literals.append(parsed)
        except ParseError as exc:
            if allow_freeform:
                freeform_facts.append(text)
            else:
                err("fact", i, exc)
    rules: list[Rule] = []
    for i, text in enumerate(rule_texts):
        try:
            parsed = parse_statement(text)
            if not isinstance(parsed, Rule):
                raise ParseError("fact sentence in a rule position", 0, expected="'If ... then ...'")
            rules.append(replace(parsed, id=len(rules) + 1))
        except ParseError as exc:
            if allow_freeform:
                freeform_rules.append(text)
            else:
                err("rule", i, exc)

    hypothesis: Hypothesis | None = None
    options: list[Hypothesis] = []
    if hypothesis_text is not None and option_texts:
        errors.append("a problem carries either a hypothesis or options, not both")
    elif hypothesis_text is not None:
        try:
            hypothesis = _parse_hypothesis(hypothesis_text)
        except ParseError as exc:
            err("hypothesis", 0, exc)
    elif option_texts:
        for i, text in enumerate(option_texts):
            try:
                options.append(_parse_hypothesis(text))
            except ParseError as exc:
                err("option", i, exc)
    else:
        errors.append("a problem needs a hypothesis or options")

    label: Label | None = None
    if label_text is not None:
        try:
            label = Label.parse(label_text)
        except ValueError as exc:
            errors.append(str(exc))

    if not literals and not rules and not (freeform_facts or freeform_rules):
        errors.append("a problem needs at least one fact or rule")
    if errors:
        raise ProblemFormatError(errors)
    kb = KnowledgeBase.from_literals(literals, tuple(rules))
    return Problem(kb=kb, hypothesis=hypothesis, options=tuple(options),
                   gold_label=label, meta=meta,
                   freeform_facts=tuple(freeform_facts),
                   freeform_rules=tuple(freeform_rules))


_PREFIXES = ("fact", "rule", "hypothesis", "option", "label")


def _parse_problem_text(doc: str, meta: str, allow_freeform: bool) -> Problem:
    facts: list[str] = []
    rules: list[str] = []
    options: list[str] = []
    hypothesis: str | None = None
    label: str | None = None
    lines: dict[str, int] = {}
    errors: list[str] = []
    for lineno, raw in enumerate(doc.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        prefix, sep, rest = line.partition(":")
        prefix = prefix.strip().lower()
        if not sep or prefix not in _PREFIXES:
            errors.append(f"line {lineno}: expected one of {', '.join(p + ':' for p in _PREFIXES)}")
            continue
        rest = rest.strip()
        if prefix == "fact":
            lines[f"fact:{len(facts)}"] = lineno
            facts.append(rest)
        elif prefix == "rule":
            lines[f"rule:{len(rules)}"] = lineno
            rules.append(rest)
        elif prefix == "option":
            lines[f"option:{len(options)}"] = lineno
            options.append(rest)
        elif prefix == "hypothesis":
            if hypothesis is not None:
                errors.append(f"line {lineno}: duplicate hypothesis")
                continue
            lines["hypothesis:0"] = lineno
            hypothesis = rest
        elif prefix == "label":
            if label is not None:
                errors.append(f"line {lineno}: duplicate label")
                continue
            label = rest
    if errors:
        raise ProblemFormatError(errors)
    return _assemble(facts, rules, hypothesis, options, label, meta, lines, allow_freeform)


def _parse_problem_record(record: dict, meta: str, allow_freeform: bool) -> Problem:
    unknown = set(record) - {"facts", "rules", "hypothesis", "options", "label", "id", "meta"}
    if unknown:
        raise ProblemFormatError([f"unknown record fields: {sorted(unknown)}"])
    meta = str(record.get("id", record.get("meta", meta)))
    return _assemble(
        list(record.get("facts", [])), list(record.get("rules", [])),
        record.get("hypothesis"), list(record.get("options", [])),
        record.get("label"), meta, None, allow_freeform)


def parse_problem(doc: str | dict, meta: str = "", allow_freeform: bool = False) -> Problem:
    """Parse a problem from text-format content or a structured record.

    Strings that start with ``{`` are treated as one JSON record.  With
    ``allow_freeform`` unparseable fact/rule statements are kept verbatim and
    the problem is flagged for the remote backend instead of being rejected.
    """
    if isinstance(doc, dict):
        return _parse_problem_record(doc, meta, allow_freeform)
    stripped = doc.lstrip()
    if stripped.startswith("{"):
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError([f"bad JSON record: {exc}"]) from exc
        return _parse_problem_record(record, meta, allow_freeform)
    return _parse_problem_text(doc, meta, allow_freeform)


def load_problems(path: str, allow_freeform: bool = False) -> list[Problem]:
    """Load problems from a ``.pw`` text file or a JSONL corpus."""
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    stripped = content.lstrip()
    if stripped.startswith("{"):
        problems = []
        for lineno, line in enumerate(content.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ProblemFormatError([f"line {lineno}: bad JSON record: {exc}"]) from exc
            problems.append(_parse_problem_record(record, f"{path}:{lineno}", allow_freeform))
        return problems
    return [parse_problem(content, meta=path, allow_freeform=allow_freeform)]


def problem_record(problem: Problem) -> dict:
    """Structured record for a problem, as written to corpus files."""
    record: dict = {
        "facts": [render_literal(f.literal) for f in problem.kb.facts],
        "rules": [render_rule(r) for r in problem.kb.rules],
    }
    if problem.options:
        record["options"] = [render_hypothesis(o) for o in problem.options]
    elif problem.hypothesis is not None:
        record["hypothesis"] = render_hypothesis(problem.hypothesis)
    if problem.gold_label is not None:
        record["label"] = problem.gold_label.value
    if problem.meta:
        record["id"] = problem.meta
    return record
