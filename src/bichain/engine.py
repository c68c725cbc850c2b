"""Proof engines: bidirectional chaining plus forward-only and backward-only
baselines, with structured proof traces and trace replay validation.

The bidirectional engine alternates directions, switching when a step yields
multiple deductions or candidate goal decompositions (a confusion state) or
when the current direction stalls.  The forward baseline iterates selection
and inference, applying one selected rule per iteration; the backward
baseline runs depth-first AND-OR search with backtracking and iterative
deepening, preferring rules with fewer conditions.

One module invocation is one inference call; a verdict's call count always
equals the number of steps in its trace, whichever backend served them.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .language import Hypothesis, Label, Problem, render_literal
from .modules import (
    DeductionStep,
    Derivation,
    FactCheckResult,
    Goal,
    GoalSet,
    GoalStatus,
    ModuleBackend,
    RuleSelection,
    SymbolicBackend,
    TransportError,
    abduce_goal_set,
    check_hypothesis,
    deserialize_binding,
    serialize_binding,
    variant_key,
)
from .terms import (
    Binding,
    Entity,
    Fact,
    KnowledgeBase,
    Literal,
    Rule,
    instance_binding,
    literal_from_term,
    substitute_partial,
    term_string,
)


class Direction(enum.Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class EngineConfig:
    """Step budget for one evaluation."""

    max_steps: int = 50

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


@dataclass
class TraceStep:
    index: int
    direction: str
    module: str
    payload: dict

    def to_json(self) -> dict:
        return {"index": self.index, "direction": self.direction,
                "module": self.module, **self.payload}


@dataclass
class ProofTrace:
    engine: str
    problem: str
    steps: list[TraceStep] = field(default_factory=list)
    label: Label | None = None
    resolution: dict | None = None

    def to_json(self) -> dict:
        return {
            "problem": self.problem,
            "engine": self.engine,
            "label": self.label.value if self.label else None,
            "calls": len(self.steps),
            "steps": [s.to_json() for s in self.steps],
            "resolution": self.resolution,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ProofTrace":
        steps = []
        for raw in doc.get("steps", []):
            raw = dict(raw)
            index = raw.pop("index")
            direction = raw.pop("direction")
            module = raw.pop("module")
            steps.append(TraceStep(index, direction, module, raw))
        label = Label.parse(doc["label"]) if doc.get("label") else None
        return cls(engine=doc.get("engine", ""), problem=doc.get("problem", ""),
                   steps=steps, label=label, resolution=doc.get("resolution"))


@dataclass
class Verdict:
    label: Label
    trace: ProofTrace
    warnings: tuple[str, ...] = ()
    derived_facts: tuple[Fact, ...] = ()

    @property
    def calls(self) -> int:
        """Inference calls: one per trace step."""
        return len(self.trace.steps)


def _goal_payload(goal: Goal) -> dict:
    out = {"term": term_string(goal.literal),
           "text": render_literal(goal.literal),
           "status": goal.status.value}
    if goal.fact_id is not None:
        out["fact"] = goal.fact_id
    if goal.binding:
        out["binding"] = [list(p) for p in goal.binding]
    return out


def _set_payload(gs: GoalSet) -> dict:
    return {
        "origin_rule": gs.origin_rule,
        "target": term_string(gs.target) if gs.target is not None else None,
        "unifier": [list(p) for p in gs.unifier],
        "commitments": [list(p) for p in gs.commitments],
        "goals": [term_string(g.literal) for g in gs.goals],
        "texts": [render_literal(g.literal) for g in gs.goals],
    }


def _deduction_payload(rules: tuple[int, ...], derived: tuple[Derivation, ...],
                       **extra) -> dict:
    return {"rules": list(rules), **extra,
            "derived": [{"term": term_string(d.literal), "text": render_literal(d.literal),
                         "rule": d.rule_id, "premises": list(d.premises),
                         "binding": [list(p) for p in d.binding]} for d in derived]}


def _check_payload(hypothesis: Hypothesis, res: FactCheckResult) -> dict:
    return {"kind": "hypothesis", "target": term_string(hypothesis.consequent),
            "label": res.label.value, "evidence": res.evidence}


def _fact_resolution(res: FactCheckResult) -> dict:
    return {"kind": "fact", "fact": res.evidence}


def make_backend(name: str) -> ModuleBackend:
    if name == "symbolic":
        return SymbolicBackend()
    if name == "remote":
        from .remote import RemoteBackend, RemoteConfig

        return RemoteBackend(RemoteConfig.from_env())
    raise ValueError(f"unknown backend {name!r}")


class _Run:
    """One evaluation: the working knowledge base, the trace, the warnings.

    Set-up asserts the hypothesis condition and binds the backend.  Each
    recorded step is one call; raw wire responses, when the backend keeps
    them, are attached verbatim to the step they answered so replay
    validation can audit the original text.
    """

    def __init__(self, engine: str, problem: Problem, backend: ModuleBackend | None):
        backend = backend or SymbolicBackend()
        if problem.hypothesis is None:
            raise ValueError("multi-option problems go through evaluate_options")
        backend.bind_problem(problem)
        self.problem = problem
        self.hypothesis = problem.hypothesis
        self.backend = backend
        self.kb = problem.kb
        for lit in self.hypothesis.condition:
            self.kb = self.kb.add_given(lit)
        self.warnings: list[str] = []
        if not self.kb.consistent:
            self.warnings.append("InconsistentKB: a literal and its negation are both present")
        self.trace = ProofTrace(engine=engine, problem=problem.meta)

    def record(self, direction: Direction, module: str, payload: dict) -> None:
        raw = self.backend.drain_responses()
        if raw:
            payload = {**payload, "responses": raw}
        self.trace.steps.append(TraceStep(len(self.trace.steps) + 1, direction.value,
                                          module, payload))

    def check(self, direction: Direction, hypothesis: Hypothesis) -> FactCheckResult:
        """Fact-check a hypothesis against the working knowledge base."""
        res = self.backend.fact_check(hypothesis, self.kb)
        self.record(direction, "fact_check", _check_payload(hypothesis, res))
        return res

    def derive(self, derived: tuple[Derivation, ...]) -> range:
        """Store derivations; returns the ids of the facts they added."""
        before = len(self.kb.facts)
        self.kb = self.kb.add_derived([(d.literal, d.rule_id, d.premises) for d in derived])
        return range(before + 1, len(self.kb.facts) + 1)

    def finish(self, label: Label, resolution: dict | None) -> Verdict:
        self.warnings.extend(self.backend.drain_warnings())
        self.trace.label = label
        self.trace.resolution = resolution
        # Facts asserted from a hypothesis condition are scoped to this
        # evaluation, so nothing is shareable when a condition was present.
        derived = () if self.hypothesis.condition else \
            self.kb.facts[len(self.problem.kb.facts):]
        return Verdict(label, self.trace, tuple(self.warnings), tuple(derived))


def _evaluate(run: _Run, search: Callable[[_Run, EngineConfig], tuple[Label, dict | None]],
              config: EngineConfig | None) -> Verdict:
    """Run one engine's search loop; an unreachable backend yields Unknown."""
    try:
        label, resolution = search(run, config or EngineConfig())
    except TransportError as exc:
        run.warnings.append(f"TransportError: {exc}")
        label, resolution = Label.UNKNOWN, None
    return run.finish(label, resolution)


# --------------------------------------------------------------------------
# Goal frontier (bidirectional backward phase)
# --------------------------------------------------------------------------


@dataclass
class _Node:
    id: int
    gs: GoalSet
    parent: "_Node | None" = None
    expanded_goal: Literal | None = None
    rule_id: int | None = None
    env: Binding = field(default_factory=dict)
    new_goals: tuple[Literal, ...] = ()
    tried: set[Literal] = field(default_factory=set)
    # variant keys of the goals expanded on the way from the root to here;
    # a goal among them is a loop and is not expanded again
    ancestors: frozenset[str] = frozenset()


class _Frontier:
    """The root of bi's backward search and the one expansion rule.

    Only the engine drives it (trace replay re-runs the engine).
    """

    def __init__(self, q: Literal):
        self.root = _Node(id=1, gs=GoalSet((Goal(q),)))
        self.node_count = 1
        self.seen = {self.root.gs.signature()}
        self.fresh = 0

    def expand(self, node: _Node, goal: Literal,
               module_sets: tuple[GoalSet, ...]) -> list[_Node]:
        """Merge module goal sets into the node's conjunction; returns the
        children whose merged set was not seen before.

        Per alternative: rename rule-local variables to fresh scopes, apply
        the consequent's commitments to the carried sibling goals, and put
        the new sub-goals first (depth-first order).
        """
        goal_vars = goal.variables()
        ancestors = node.ancestors | {variant_key(goal)}
        children = []
        for gs in module_sets:
            commitments = deserialize_binding(gs.commitments)
            rename: Binding = {}
            new_goals: list[Goal] = []
            for g in gs.goals:
                lit = g.literal
                for v in lit.variables():
                    if v not in goal_vars and v not in rename:
                        self.fresh += 1
                        rename[v] = Entity(f"x{self.fresh}", variable=True)
                lit = substitute_partial(lit, rename)
                new_goals.append(Goal(substitute_partial(lit, commitments)))
            carried: list[Goal] = []
            for g in node.gs.goals:
                if g.literal == goal:
                    continue
                lit = substitute_partial(g.literal, commitments)
                carried.append(Goal(lit) if lit != g.literal else g)
            # one entry per literal; statuses are recomputed at every fact check
            by_literal: dict[Literal, Goal] = {}
            for g in (*new_goals, *carried):
                by_literal.setdefault(g.literal, g)
            merged = GoalSet(tuple(by_literal.values()),
                             origin_rule=gs.origin_rule, target=gs.target,
                             unifier=gs.unifier, commitments=gs.commitments)
            sig = merged.signature()
            if sig in self.seen:
                continue
            self.seen.add(sig)
            self.node_count += 1
            child = _Node(id=self.node_count, gs=merged, parent=node,
                          expanded_goal=goal, rule_id=gs.origin_rule,
                          env={**node.env, **commitments},
                          new_goals=tuple(g.literal for g in new_goals),
                          ancestors=ancestors)
            children.append(child)
        return children


def _resolution_tree(node: _Node, q: Literal) -> dict:
    """Ground proof tree from a satisfied frontier node back to the root goal."""
    env: Binding = dict(node.env)
    for g in node.gs.goals:
        env.update(deserialize_binding(g.binding))

    def ground(lit: Literal) -> Literal:
        return substitute_partial(lit, env)

    proofs: dict[Literal, dict] = {}
    for g in node.gs.goals:
        lit = ground(g.literal)
        proofs[lit] = {"literal": term_string(lit), "fact": g.fact_id}
    walk = node
    while walk.parent is not None:
        target = ground(walk.expanded_goal)
        children = [proofs[ground(c)] for c in walk.new_goals]
        proofs[target] = {"literal": term_string(target),
                          "rule": walk.rule_id, "children": children}
        walk = walk.parent
    return {"kind": "tree", "root": proofs[q]}


# --------------------------------------------------------------------------
# Bidirectional engine
# --------------------------------------------------------------------------


def prove_bidirectional(problem: Problem, config: EngineConfig | None = None,
                        backend: ModuleBackend | None = None) -> Verdict:
    """Alternating forward/backward chaining with confusion-driven switches.

    Relevant facts are identified once and grown with each deduction; the
    backward frontier persists across switches, and goals satisfied by newly
    derived forward facts close before anything else is expanded.  A
    direction that provably cannot move again (forward after a stall with no
    new facts, backward with nothing left to expand) is not revisited; when
    both are in that state the verdict is Unknown.

    Deviation from the paper, whose engine switches only on confusion: a
    goal that is a variant (equal up to variable renaming) of one expanded
    on its node's ancestor chain is never expanded again.  Without this loop
    check a cyclic rule chain whose abductions each yield a single goal set
    (so never a confusion) drew the backward side down until the budget ran
    out.
    """
    return _evaluate(_Run("bi", problem, backend), _search_bidirectional, config)


def _search_bidirectional(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    backend, hypothesis = run.backend, run.hypothesis
    q = hypothesis.consequent

    relevant_ids: list[int] = []
    if run.kb.facts:
        relevant_ids = list(backend.fact_identify(hypothesis, run.kb))
        run.record(Direction.FORWARD, "fact_identify",
                   {"hypothesis": term_string(q), "facts": list(relevant_ids)})

    res = run.check(Direction.FORWARD, hypothesis)
    if res.label is not Label.UNKNOWN:
        return res.label, _fact_resolution(res)

    frontier = _Frontier(q)
    live: list[_Node] = [frontier.root]  # open alternatives, in search order
    norule: set[Literal] = set()

    direction = Direction.FORWARD
    forward_dead = False  # stalled even with the widened fact subset
    widened = False
    backward_done = False

    def frontier_check() -> FactCheckResult:
        result = backend.fact_check(tuple(n.gs for n in live), run.kb)
        nodes_payload = []
        for node, gs in zip(live, result.goalsets):
            node.gs = gs
            nodes_payload.append({"node": node.id, **_set_payload(gs),
                                  "goals": [_goal_payload(g) for g in gs.goals]})
        satisfied_node = live[result.satisfied].id if result.satisfied is not None else None
        run.record(Direction.BACKWARD, "fact_check",
                   {"kind": "goals", "label": result.label.value,
                    "satisfied": satisfied_node, "nodes": nodes_payload})
        return result

    def pick_node() -> tuple[_Node, tuple[Literal, ...]] | None:
        """Most promising live node with open goals worth expanding:
        fewest remaining open goals, ties by node id (depth-first order)."""
        best: tuple[int, int, _Node, tuple[Literal, ...]] | None = None
        for node in live:
            open_count = 0
            candidates = []
            for goal in node.gs.goals:
                if goal.status is not GoalStatus.OPEN:
                    continue
                open_count += 1
                lit = goal.literal
                if lit in norule or lit in node.tried or variant_key(lit) in node.ancestors:
                    continue
                if run.kb.holds(lit):
                    continue  # newly derived facts close it at the next check
                candidates.append(lit)
            if candidates:
                key = (open_count, node.id)
                if best is None or key < best[:2]:
                    best = (*key, node, tuple(candidates))
        if best is None:
            return None
        return best[2], best[3]

    for _ in range(config.max_steps):
        if direction is Direction.FORWARD:
            # the goal is whatever the backward side still needs (Q starts as
            # the hypothesis consequent and is reassigned by each abduction)
            targets: list[Literal] = []
            for n in live:
                for g in n.gs.goals:
                    if g.status is GoalStatus.OPEN and g.literal not in targets:
                        targets.append(g.literal)
            if not targets:
                targets = [q]
            selection = backend.rule_select_forward(tuple(relevant_ids), run.kb, tuple(targets))
            if selection.bridge is not None and len(selection.rule_ids) != 1:
                raise AssertionError("a bridge must collapse the selection")
            run.record(direction, "rule_select_forward",
                       {"relevant": list(relevant_ids),
                        "goal": [term_string(t) for t in targets],
                        "rules": list(selection.rule_ids), "bridge": selection.bridge})
            step = DeductionStep()
            if selection.rule_ids:
                step = backend.logic_deduce(selection, run.kb)
                run.record(direction, "logic_deduce",
                           _deduction_payload(selection.rule_ids, step.derived))
            if step.derived:
                relevant_ids.extend(run.derive(step.derived))
            res = run.check(direction, hypothesis)
            if res.label is not Label.UNKNOWN:
                return res.label, _fact_resolution(res)
            confusion = False
            if step.derived:
                confusion = backend.confusion_check(step)
                run.record(direction, "confusion_check",
                           {"kind": "deduction", "count": len(step.derived),
                            "confusion": confusion})
            stalled = not step.derived
            if stalled:
                if not widened and len(relevant_ids) < len(run.kb.facts):
                    # the relevance subset can starve a needed rule; one
                    # retry over the full fact set keeps forward complete
                    widened = True
                    relevant_ids = [f.id for f in run.kb.facts]
                else:
                    forward_dead = True
            else:
                forward_dead = False
            if confusion or stalled:
                if forward_dead and backward_done:
                    return Label.UNKNOWN, None
                if not backward_done:
                    direction = Direction.BACKWARD
        else:
            picked = pick_node()
            if picked is None:
                # closure sweep: forward facts may have completed a goal set
                result = frontier_check()
                if result.satisfied is not None:
                    return Label.PROVED, _resolution_tree(live[result.satisfied], q)
                live = [n for n in live if not n.gs.failed]
                backward_done = True
                if forward_dead:
                    return Label.UNKNOWN, None
                direction = Direction.FORWARD
                continue
            node, candidates = picked
            selection = backend.rule_select_backward(candidates, run.kb)
            run.record(direction, "rule_select_backward",
                       {"node": node.id,
                        "goals": [term_string(g) for g in candidates],
                        "rules": list(selection.rule_ids),
                        "by_goal": [[term_string(g), list(ids)]
                                    for g, ids in selection.by_goal]})
            # expand the most constrained goal (fewest matching rules);
            # goals with no rules at all are dead ends for expansion
            expand_goal: Literal | None = None
            expand_rules: tuple[int, ...] = ()
            for g, ids in selection.by_goal:
                if not ids:
                    norule.add(g)
                elif expand_goal is None or len(ids) < len(expand_rules):
                    expand_goal = g
                    expand_rules = ids
            module_sets: tuple[GoalSet, ...] = ()
            if expand_goal is not None:
                module_sets = backend.logic_abduce(
                    expand_goal, RuleSelection(expand_rules), run.kb)
                children = frontier.expand(node, expand_goal, module_sets)
                run.record(direction, "logic_abduce",
                           {"node": node.id, "goal": term_string(expand_goal),
                            "sets": [_set_payload(gs) for gs in module_sets],
                            "children": [c.id for c in children]})
                if children:
                    at = live.index(node)
                    live[at:at + 1] = children
                else:
                    node.tried.add(expand_goal)
            result = frontier_check()
            if result.satisfied is not None:
                return Label.PROVED, _resolution_tree(live[result.satisfied], q)
            live = [n for n in live if not n.gs.failed]
            confusion = False
            if module_sets:
                confusion = backend.confusion_check(module_sets)
                run.record(direction, "confusion_check",
                           {"kind": "abduction", "count": len(module_sets),
                            "confusion": confusion})
            if confusion and not forward_dead:
                direction = Direction.FORWARD
    return Label.UNKNOWN, None


# --------------------------------------------------------------------------
# Forward-only baseline
# --------------------------------------------------------------------------


def prove_forward(problem: Problem, config: EngineConfig | None = None,
                  backend: ModuleBackend | None = None) -> Verdict:
    """Iterated selection and inference over the whole fact set.

    No fact identification and no bridge preference: selection returns every
    applicable rule and each iteration performs one inference, the first
    novel consequent in rule-id order.  Stops on a decisive check, a step
    with no new facts, or the step budget.
    """
    return _evaluate(_Run("forward", problem, backend), _search_forward, config)


def _search_forward(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    for _ in range(config.max_steps):
        relevant = tuple(f.id for f in run.kb.facts)
        selection = run.backend.rule_select_forward(relevant, run.kb, ())
        run.record(Direction.FORWARD, "rule_select_forward",
                   {"relevant": list(relevant), "goal": None,
                    "rules": list(selection.rule_ids), "bridge": selection.bridge})
        applied = ()
        if selection.rule_ids:
            applied = run.backend.logic_deduce(selection, run.kb).derived[:1]
            run.record(Direction.FORWARD, "logic_deduce",
                       _deduction_payload(selection.rule_ids, applied,
                                          applied=applied[0].rule_id if applied else None))
        if applied:
            run.derive(applied)
        res = run.check(Direction.FORWARD, run.hypothesis)
        if res.label is not Label.UNKNOWN:
            return res.label, _fact_resolution(res)
        if not applied:
            return Label.UNKNOWN, None
    return Label.UNKNOWN, None


# --------------------------------------------------------------------------
# Backward-only baseline
# --------------------------------------------------------------------------


def _groundings(goals: tuple[Goal, ...], universe: tuple[str, ...]):
    """Every grounding of the goal set's free variable (a rule binds at most
    one), in sorted-constant order."""
    literals = tuple(g.literal for g in goals)
    var = next((v for lit in literals for v in lit.variables()), None)
    if var is None:
        yield literals
        return
    for c in universe:
        binding = {var: Entity(c)}
        yield tuple(substitute_partial(lit, binding) for lit in literals)


def prove_backward(problem: Problem, config: EngineConfig | None = None,
                   backend: ModuleBackend | None = None) -> Verdict:
    """Depth-first AND-OR search from the goal, with iterative deepening.

    Candidate decompositions are ordered by ascending condition count (ties
    by rule id), sub-goals are proven recursively with full backtracking, and
    a disproved mandatory sub-goal fails its decomposition.  The hypothesis
    is disproved when its negation can be established the same way.
    Deepening stops as soon as a round finishes without hitting its depth
    cutoff.
    """
    return _evaluate(_Run("backward", problem, backend), _search_backward, config)


def _search_backward(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    backend, kb = run.backend, run.kb
    q = run.hypothesis.consequent
    universe = tuple(sorted(set(kb.constants()) | q.constants()))
    cutoff = [False]

    def prove(goal: Literal, budget: int, path: tuple[Literal, ...]
              ) -> tuple[Label, dict | None, bool]:
        """Returns (label, proof, exhausted-without-cutoff): a proof tree
        when Proved, the deciding check's fact resolution when Disproved."""
        res = run.check(Direction.BACKWARD, Hypothesis(consequent=goal))
        if res.label is Label.PROVED:
            return Label.PROVED, {"literal": term_string(goal), "fact": res.evidence}, True
        if res.label is Label.DISPROVED:
            return Label.DISPROVED, _fact_resolution(res), True
        if goal in path:
            return Label.UNKNOWN, None, True  # a cycle never unblocks with depth
        if budget <= 0:
            cutoff[0] = True
            return Label.UNKNOWN, None, False
        selection = backend.rule_select_backward((goal,), kb)
        run.record(Direction.BACKWARD, "rule_select_backward",
                   {"goal": term_string(goal), "rules": list(selection.rule_ids)})
        if not selection.rule_ids:
            return Label.UNKNOWN, None, True
        module_sets = backend.logic_abduce(goal, selection, kb)
        run.record(Direction.BACKWARD, "logic_abduce",
                   {"goal": term_string(goal),
                    "sets": [_set_payload(gs) for gs in module_sets],
                    "children": []})
        ordered = sorted(module_sets, key=lambda gs: (len(gs.goals), gs.origin_rule))
        exhausted = True
        for gs in ordered:
            for grounding in _groundings(gs.goals, universe):
                proofs = []
                for sub in grounding:
                    label, proof, sub_exhausted = prove(sub, budget - 1, path + (goal,))
                    exhausted = exhausted and sub_exhausted
                    if label is Label.PROVED:
                        proofs.append(proof)
                        continue
                    proofs = None
                    break
                if proofs is not None:
                    tree = {"literal": term_string(goal),
                            "rule": gs.origin_rule, "children": proofs}
                    return Label.PROVED, tree, True
        return Label.UNKNOWN, None, exhausted

    for depth in range(1, config.max_steps + 1):
        cutoff[0] = False
        label, proof, exhausted = prove(q, depth, ())
        if label is Label.PROVED:
            return Label.PROVED, {"kind": "tree", "root": proof}
        if label is Label.DISPROVED:
            return Label.DISPROVED, proof  # directly contradicted by a fact
        neg_label, neg_proof, neg_exhausted = prove(q.negated(), depth, ())
        if neg_label is Label.PROVED:
            return Label.DISPROVED, {"kind": "tree", "root": neg_proof}
        if exhausted and neg_exhausted and not cutoff[0]:
            return Label.UNKNOWN, None
    return Label.UNKNOWN, None


ENGINES = {
    "bi": prove_bidirectional,
    "forward": prove_forward,
    "backward": prove_backward,
}


def evaluate_options(problem: Problem, config: EngineConfig | None = None,
                     backend: ModuleBackend | None = None, engine: str = "bi",
                     ) -> tuple[int | None, tuple[Verdict, ...]]:
    """Evaluate options in order against a shared, growing knowledge base.

    Facts derived while validating one option are retained for the next
    (options carrying their own condition contribute nothing, since their
    assertions are evaluation-local).  The chosen index is the first option
    labeled Proved, 1-based; None when no option is proved.
    """
    if not problem.options:
        raise ValueError("evaluate_options needs a multi-option problem")
    prove = ENGINES[engine]
    shared = problem.kb
    verdicts: list[Verdict] = []
    chosen: int | None = None
    for i, option in enumerate(problem.options, start=1):
        sub = Problem(kb=shared, hypothesis=option,
                      meta=f"{problem.meta}#option{i}" if problem.meta else f"#option{i}",
                      freeform_facts=problem.freeform_facts,
                      freeform_rules=problem.freeform_rules)
        verdict = prove(sub, config, backend)
        verdicts.append(verdict)
        if verdict.derived_facts:
            shared = shared.add_derived(
                [(f.literal, f.rule_id, f.premises) for f in verdict.derived_facts])
        if chosen is None and verdict.label is Label.PROVED:
            chosen = i
    return chosen, tuple(verdicts)


# --------------------------------------------------------------------------
# Trace replay validation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    step: int | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class _RecordedBackend:
    """A ModuleBackend that answers each call from the next recorded step.

    Each answer is rebuilt from what the step cites (a deduction from its
    rule and premises, an abduced set from its rule and the engine's own
    goal) and checked against the re-run's knowledge base; selections,
    identified facts, goal statuses and confusion flags are read as recorded.
    Running out of steps raises TransportError, read as Unknown.
    """

    def __init__(self, steps: list[TraceStep]):
        self.steps = iter(steps)
        self.step: TraceStep | None = None

    def bind_problem(self, problem: Problem) -> None:
        """Nothing to bind: every answer comes from the trace."""

    def drain_warnings(self) -> list[str]:
        return []

    def drain_responses(self) -> list[dict]:
        """The raw responses recorded with the step just answered."""
        return self.step.payload.get("responses", [])

    def _next(self, module: str) -> dict:
        self.step = next(self.steps, None)
        if self.step is None:
            raise TransportError("no recorded answer left")
        if self.step.module != module:
            raise ValueError(f"the engine calls {module} here, not {self.step.module}")
        return self.step.payload

    def _rule(self, kb: KnowledgeBase, rule_id: int) -> Rule:
        try:
            return kb.rule(rule_id)
        except KeyError:
            raise ValueError(f"unknown rule {rule_id}") from None

    def fact_identify(self, hypothesis: Hypothesis, kb: KnowledgeBase) -> tuple[int, ...]:
        return tuple(kb.fact(i).id for i in self._next("fact_identify")["facts"])

    def rule_select_forward(self, relevant: tuple[int, ...], kb: KnowledgeBase,
                            goals: tuple[Literal, ...]) -> RuleSelection:
        p = self._next("rule_select_forward")
        return RuleSelection(tuple(self._rule(kb, i).id for i in p["rules"]), bridge=p["bridge"])

    def rule_select_backward(self, goals: tuple[Literal, ...],
                             kb: KnowledgeBase) -> RuleSelection:
        p = self._next("rule_select_backward")
        by_goal = tuple((g, tuple(self._rule(kb, i).id for i in ids))
                        for g, (_, ids) in zip(goals, p.get("by_goal", [])))
        return RuleSelection(tuple(self._rule(kb, i).id for i in p["rules"]), by_goal=by_goal)

    def logic_deduce(self, selection: RuleSelection, kb: KnowledgeBase) -> DeductionStep:
        derived = []
        for d in self._next("logic_deduce")["derived"]:
            rule, premises = self._rule(kb, d["rule"]), tuple(d["premises"])
            binding = instance_binding(rule, [kb.fact(i).literal for i in premises])
            literal = None if binding is None else substitute_partial(rule.consequent, binding)
            if literal is None or kb.lookup(literal) is not None:
                raise ValueError(f"rule {rule.id} derives nothing new from facts {list(premises)}")
            derived.append(Derivation(literal, rule.id, premises, serialize_binding(binding)))
        return DeductionStep(tuple(derived))

    def logic_abduce(self, goal: Literal, selection: RuleSelection,
                     kb: KnowledgeBase) -> tuple[GoalSet, ...]:
        sets = tuple(abduce_goal_set(self._rule(kb, s["origin_rule"]), goal)
                     for s in self._next("logic_abduce")["sets"])
        if None in sets:
            raise ValueError(f"a goal set's rule does not conclude {term_string(goal)}")
        return sets

    def fact_check(self, target: Hypothesis | tuple[GoalSet, ...],
                   kb: KnowledgeBase) -> FactCheckResult:
        p = self._next("fact_check")
        if isinstance(target, Hypothesis):
            label, evidence = Label(p["label"]), p["evidence"]
            held = check_hypothesis(target.consequent, kb)
            if label is not held.label or held.evidence not in (None, evidence):
                raise ValueError(f"the knowledge base answers {held.label.value} "
                                 f"by fact {held.evidence}")
            return FactCheckResult(label, evidence=evidence)
        goalsets = []
        for gs, node in zip(target, p["nodes"], strict=True):
            goals = tuple(replace(g, status=GoalStatus(r["status"]), fact_id=r.get("fact"),
                                  binding=tuple(map(tuple, r.get("binding", ()))))
                          for g, r in zip(gs.goals, node["goals"], strict=True))
            for g in goals:
                lit = substitute_partial(g.literal, deserialize_binding(g.binding))
                if g.status is not GoalStatus.OPEN and not kb.has_fact(
                        g.fact_id, lit.negated() if g.status is GoalStatus.CONTRADICTED else lit):
                    raise ValueError(f"goal {term_string(g.literal)} lacks a matching fact")
            goalsets.append(replace(gs, goals=goals))
        ids = [node["node"] for node in p["nodes"]]
        satisfied = ids.index(p["satisfied"]) if p["satisfied"] in ids else None
        if p["satisfied"] is not None and (satisfied is None or not goalsets[satisfied].satisfied):
            raise ValueError(f"satisfied node {p['satisfied']} is not a fully proven node here")
        return FactCheckResult(Label.PROVED if satisfied is not None else Label.UNKNOWN,
                               goalsets=tuple(goalsets), satisfied=satisfied)

    def confusion_check(self, step: DeductionStep | tuple[GoalSet, ...]) -> bool:
        return bool(self._next("confusion_check")["confusion"])


def _search_reference(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    """Replay-only loop for the oracle's reference proofs: deduce, while
    answers last, until the knowledge base decides; then check that literal."""
    q = run.hypothesis.consequent
    while (fact := run.kb.decide(q)) is None:
        step = run.backend.logic_deduce(RuleSelection(()), run.kb)
        run.record(Direction.FORWARD, "logic_deduce",
                   _deduction_payload(tuple(d.rule_id for d in step.derived), step.derived))
        run.derive(step.derived)
    decided = Label.PROVED if fact.literal == q else Label.DISPROVED
    res = run.check(Direction.FORWARD, Hypothesis(fact.literal))
    return (decided, _fact_resolution(res)) if res.label is Label.PROVED else (Label.UNKNOWN, None)


_SEARCHES = {"bi": _search_bidirectional, "forward": _search_forward,
             "backward": _search_backward, "reference": _search_reference}


def _validate_tree(root: dict, kb: KnowledgeBase) -> str | None:
    """Check a ground proof tree: fact leaves exist, rule nodes instantiate."""
    literal = literal_from_term(root["literal"])
    if "fact" in root and "rule" not in root:
        if not kb.has_fact(root["fact"], literal):
            return f"evidence fact {root['fact']} does not match {root['literal']}"
        return None
    rule_id = root.get("rule")
    if rule_id is None or rule_id not in {r.id for r in kb.rules}:
        return f"unknown rule for {root['literal']}"
    rule = kb.rule(rule_id)
    children = root.get("children", [])
    binding = instance_binding(rule, [literal_from_term(c["literal"]) for c in children])
    if binding is None or not literal.is_ground \
            or substitute_partial(rule.consequent, binding) != literal:
        return f"rule {rule_id} does not derive {root['literal']} from its children"
    for child in children:
        err = _validate_tree(child, kb)
        if err:
            return err
    return None


def replay_validate(trace: ProofTrace, problem: Problem) -> ReplayReport:
    """Re-run the trace's engine on its recorded answers, each checked
    against the re-run's knowledge base (see ``_RecordedBackend``); the
    re-executed steps, label and resolution must equal the recorded ones and
    a proof tree must derive the hypothesis (the hallucination detector for
    remote-backend traces).  Reports the first recorded step that differs.
    Traces do not record their step budget, so running out of answers reads
    as a budget or transport stop: an Unknown trace cut at its end replays.
    """
    search = _SEARCHES.get(trace.engine)
    if search is None or problem.hypothesis is None:
        return ReplayReport(False, None, f"no {trace.engine!r} engine or no hypothesis to re-run")
    answers = _RecordedBackend(trace.steps)
    run = _Run(trace.engine, problem, answers)
    failure = None
    try:
        # every loop iteration of every engine starts with a module call, so
        # the recorded answers run out before this budget does
        _evaluate(run, search, EngineConfig(max_steps=len(trace.steps) + 1))
    except Exception as exc:
        failure = ReplayReport(False, answers.step and answers.step.index,
                               f"{type(exc).__name__}: {exc}")
    for recorded, rerun in zip(trace.steps, run.trace.steps):
        if recorded != rerun:
            return ReplayReport(False, recorded.index, "step differs from its re-execution")
    if failure is not None:
        return failure
    if len(run.trace.steps) < len(trace.steps):
        return ReplayReport(False, trace.steps[len(run.trace.steps)].index,
                            "the re-executed engine stops before this step")
    label, resolution = run.trace.label, run.trace.resolution
    if label is not trace.label or resolution != trace.resolution:
        return ReplayReport(False, None, "label or resolution differs from the re-execution")
    if resolution is not None and resolution["kind"] == "tree":
        q = run.hypothesis.consequent
        if literal_from_term(resolution["root"]["literal"]) != \
                (q if label is Label.PROVED else q.negated()):
            return ReplayReport(False, None, "resolution tree does not conclude the hypothesis")
        err = _validate_tree(resolution["root"], run.kb)
        return ReplayReport(not err, None, err or "")
    return ReplayReport(True)
