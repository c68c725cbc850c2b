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
from dataclasses import dataclass, field

from .language import Hypothesis, Label, Problem, render_literal
from .remote import TransportError
from .modules import (
    DeductionStep,
    Derivation,
    FactCheckResult,
    Goal,
    GoalSet,
    GoalStatus,
    ModuleBackend,
    RelevantFacts,
    RuleSelection,
    SymbolicBackend,
    abduce_goal_set,
    deserialize_binding,
    variant_key,
)
from .terms import (
    Binding,
    Entailment,
    Entity,
    Fact,
    KnowledgeBase,
    Literal,
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
    """Step budget and starting direction for one evaluation."""

    max_steps: int = 50
    start_direction: Direction = Direction.FORWARD

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
    calls: int
    warnings: tuple[str, ...] = ()
    derived_facts: tuple[Fact, ...] = ()

    def __post_init__(self) -> None:
        if self.calls != len(self.trace.steps):
            raise ValueError("call count must equal the number of trace steps")


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

    def __init__(self, engine: str, problem: Problem, backend: ModuleBackend):
        if problem.hypothesis is None:
            raise ValueError("multi-option problems go through evaluate_options")
        if problem.remote_only and not backend.handles_freeform:
            raise ValueError("problem contains free-form statements; use the remote backend")
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
        self.record(direction, "fact_check",
                    {"kind": "hypothesis", "target": term_string(hypothesis.consequent),
                     "label": res.label.value, "evidence": res.evidence})
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
        return Verdict(label, self.trace, len(self.trace.steps), tuple(self.warnings),
                       tuple(derived))


def _evaluate(engine: str, search: Callable[[_Run, EngineConfig], tuple[Label, dict | None]],
              problem: Problem, config: EngineConfig | None,
              backend: ModuleBackend | None) -> Verdict:
    """Run one engine's search loop; an unreachable backend yields Unknown."""
    run = _Run(engine, problem, backend or SymbolicBackend())
    try:
        label, resolution = search(run, config or EngineConfig())
    except TransportError as exc:
        run.warnings.append(f"TransportError: {exc}")
        label, resolution = Label.UNKNOWN, None
    return run.finish(label, resolution)


# --------------------------------------------------------------------------
# Goal frontier (bidirectional backward phase and its trace replay)
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
    """Every node of bi's backward search by id, and the one expansion rule.

    The engine and trace replay both drive it, so replay recomputes each
    recorded abduction's children, ids included, as the engine made them.
    """

    def __init__(self, q: Literal):
        root = _Node(id=1, gs=GoalSet((Goal(q),)))
        self.nodes = {root.id: root}
        self.seen = {root.gs.signature()}
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
            child = _Node(id=len(self.nodes) + 1, gs=merged, parent=node,
                          expanded_goal=goal, rule_id=gs.origin_rule,
                          env={**node.env, **commitments},
                          new_goals=tuple(g.literal for g in new_goals),
                          ancestors=ancestors)
            self.nodes[child.id] = child
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
    return _evaluate("bi", _search_bidirectional, problem, config, backend)


def _search_bidirectional(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    backend, hypothesis = run.backend, run.hypothesis
    q = hypothesis.consequent
    start = config.start_direction

    relevant_ids: list[int] = []
    if run.kb.facts:
        relevant = backend.fact_identify(hypothesis, run.kb)
        run.record(start, "fact_identify",
                   {"hypothesis": term_string(q), "facts": list(relevant.fact_ids)})
        relevant_ids = list(relevant.fact_ids)

    res = run.check(start, hypothesis)
    if res.label is not Label.UNKNOWN:
        return res.label, _fact_resolution(res)

    frontier = _Frontier(q)
    live: list[_Node] = [frontier.nodes[1]]  # open alternatives, in search order
    norule: set[Literal] = set()

    direction = start
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
                if lit.is_ground and run.kb.entailed(lit) is Entailment.HOLDS:
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
            selection = backend.rule_select_forward(
                RelevantFacts(tuple(relevant_ids)), run.kb, tuple(targets))
            if selection.bridge is not None and len(selection.rule_ids) != 1:
                raise AssertionError("a bridge must collapse the selection")
            run.record(direction, "rule_select_forward",
                       {"relevant": list(relevant_ids),
                        "goal": [term_string(t) for t in targets],
                        "rules": list(selection.rule_ids), "bridge": selection.bridge})
            step = DeductionStep()
            if selection.rule_ids:
                step = backend.logic_deduce(
                    RelevantFacts(tuple(relevant_ids)), selection, run.kb)
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
    return _evaluate("forward", _search_forward, problem, config, backend)


def _search_forward(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    for _ in range(config.max_steps):
        relevant = RelevantFacts(tuple(f.id for f in run.kb.facts))
        selection = run.backend.rule_select_forward(relevant, run.kb, goal=None)
        run.record(Direction.FORWARD, "rule_select_forward",
                   {"relevant": list(relevant.fact_ids), "goal": None,
                    "rules": list(selection.rule_ids), "bridge": selection.bridge})
        applied = ()
        if selection.rule_ids:
            applied = run.backend.logic_deduce(relevant, selection, run.kb).derived[:1]
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
    """Every grounding of the template variables, in sorted-constant order."""
    variables: list[Entity] = []
    for g in goals:
        for v in g.literal.variables():
            if v not in variables:
                variables.append(v)
    if not variables:
        yield tuple(g.literal for g in goals)
        return

    def rec_assign(i: int, binding: Binding):
        if i == len(variables):
            yield tuple(substitute_partial(g.literal, binding) for g in goals)
            return
        for c in universe:
            binding[variables[i]] = Entity(c)
            yield from rec_assign(i + 1, binding)
        del binding[variables[i]]

    yield from rec_assign(0, {})


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
    return _evaluate("backward", _search_backward, problem, config, backend)


def _search_backward(run: _Run, config: EngineConfig) -> tuple[Label, dict | None]:
    backend, kb = run.backend, run.kb
    q = run.hypothesis.consequent
    universe = tuple(sorted(set(kb.constants()) | q.constants()))
    cutoff = [False]

    def prove(goal: Literal, budget: int, path: tuple[Literal, ...]
              ) -> tuple[Label, dict | None, bool]:
        """Returns (label, proof tree, exhausted-without-cutoff)."""
        res = run.check(Direction.BACKWARD, Hypothesis(consequent=goal))
        if res.label is Label.PROVED:
            return Label.PROVED, {"literal": term_string(goal), "fact": res.evidence}, True
        if res.label is Label.DISPROVED:
            return Label.DISPROVED, None, True
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
            # directly contradicted by a fact
            evidence = kb.lookup(q.negated())
            return Label.DISPROVED, {"kind": "fact", "fact": evidence.id if evidence else None}
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


def replay_validate(trace: ProofTrace, problem: Problem,
                    hypothesis: Hypothesis | None = None) -> ReplayReport:
    """Re-validate a proof trace against the problem it came from.

    Every selection must cite existing rules, every deduction must
    re-derive from the reconstructed fact set, every abduced goal set must
    be the one its origin rule's consequent gives the step's goal and yield
    the recorded frontier children, every fact-check claim must point at a
    real matching fact (a satisfied node at one whose goals are all proven),
    and a decisive final label must be backed by a valid resolution (the
    hallucination detector for remote-backend traces).  Reports the first
    invalid step on failure.
    """
    hypothesis = hypothesis or problem.hypothesis
    if hypothesis is None:
        return ReplayReport(False, None, "no hypothesis to validate against")
    kb = problem.kb
    for lit in hypothesis.condition:
        kb = kb.add_given(lit)
    q = hypothesis.consequent
    rule_ids = {r.id for r in kb.rules}
    frontier = _Frontier(q)
    last_index = 0

    def fail(step: TraceStep, reason: str) -> ReplayReport:
        return ReplayReport(False, step.index, reason)

    for step in trace.steps:
        if step.index <= last_index:
            return fail(step, "step indices must strictly increase")
        last_index = step.index
        p = step.payload
        try:
            report = _replay_step(step, p, kb, rule_ids, frontier, fail)
        except Exception as exc:
            return fail(step, f"malformed step: {exc}")
        if isinstance(report, ReplayReport):
            return report
        if report is not None:
            kb = report
    try:
        return _replay_finish(trace, kb, q)
    except Exception as exc:
        return ReplayReport(False, None, f"malformed resolution: {exc}")


def _replay_step(step, p, kb, rule_ids, frontier, fail):
    """Validate one recorded step; returns a failure report, an updated
    knowledge base (after a deduction), or None."""
    if step.module == "fact_identify":
        ids = p.get("facts", [])
        if not all(1 <= i <= len(kb.facts) for i in ids):
            return fail(step, "identified facts outside the knowledge base")
    elif step.module in ("rule_select_forward", "rule_select_backward"):
        cited = {*p.get("rules", []), p.get("bridge"),
                 *(i for _, ids in p.get("by_goal", []) for i in ids)}
        unknown = cited - rule_ids - {None}
        if unknown:
            return fail(step, f"unknown rules {sorted(unknown, key=str)}")
    elif step.module == "logic_deduce":
        entries = []
        for d in p.get("derived", []):
            literal = literal_from_term(d["term"])
            rid = d.get("rule")
            if rid not in rule_ids:
                return fail(step, f"unknown rule {rid}")
            rule = kb.rule(rid)
            premises = tuple(d.get("premises", ()))
            if len(premises) != len(rule.conditions):
                return fail(step, f"rule {rid} needs {len(rule.conditions)} premises")
            binding = deserialize_binding(d.get("binding", []))
            for cond, pid in zip(rule.conditions, premises):
                if not kb.has_fact(pid, substitute_partial(cond, binding)):
                    return fail(step, f"premise {pid} does not entail {cond}")
            if substitute_partial(rule.consequent, binding) != literal:
                return fail(step, f"rule {rid} does not conclude {d['term']}")
            if kb.lookup(literal) is not None:
                return fail(step, f"derived fact {d['term']} is not novel")
            entries.append((literal, rid, premises))
        if entries:
            return kb.add_derived(entries)
    elif step.module == "logic_abduce":
        goal = literal_from_term(p["goal"])
        module_sets = []
        for s in p.get("sets", []):
            rid = s.get("origin_rule")
            if rid not in rule_ids:
                return fail(step, f"unknown rule {rid}")
            gs = abduce_goal_set(kb.rule(rid), goal)
            if gs is None or s != _set_payload(gs):
                return fail(step, f"goal set is not what rule {rid} gives {p['goal']}")
            module_sets.append(gs)
        parent_id = p.get("node")
        if parent_id is not None:
            parent = frontier.nodes.get(parent_id)
            if parent is None:
                return fail(step, f"unknown frontier node {parent_id}")
            children = frontier.expand(parent, goal, tuple(module_sets))
            if p.get("children", []) != [c.id for c in children]:
                return fail(step, "recorded children disagree with the recomputed expansion")
    elif step.module == "fact_check":
        if p.get("kind") == "hypothesis":
            target = literal_from_term(p["target"])
            expected = kb.entailed(target)
            mapping = {Entailment.HOLDS: Label.PROVED.value,
                       Entailment.NEGATION_HOLDS: Label.DISPROVED.value,
                       Entailment.UNDETERMINED: Label.UNKNOWN.value}
            if mapping[expected] != p.get("label"):
                return fail(step, f"fact check of {p['target']} should be {mapping[expected]}")
        else:
            nodes = p.get("nodes", [])
            for rendered in nodes:
                for g in rendered.get("goals", []):
                    status = g.get("status")
                    literal = literal_from_term(g["term"])
                    grounded = substitute_partial(literal, deserialize_binding(g.get("binding", [])))
                    if status == GoalStatus.PROVEN.value:
                        if not kb.has_fact(g.get("fact"), grounded):
                            return fail(step, f"goal {g['term']} lacks a matching fact")
                    elif status == GoalStatus.CONTRADICTED.value:
                        if not kb.has_fact(g.get("fact"), grounded.negated()):
                            return fail(step, f"goal {g['term']} lacks a contradicting fact")
            satisfied = p.get("satisfied")
            if satisfied is not None and not any(
                    n.get("node") == satisfied and all(g.get("status") == GoalStatus.PROVEN.value
                                                       for g in n.get("goals", []))
                    for n in nodes):
                return fail(step, f"satisfied node {satisfied} is not a fully proven node here")
    return None


def _replay_finish(trace: ProofTrace, kb: KnowledgeBase, q: Literal) -> ReplayReport:
    """A decisive final label must be backed by a valid resolution."""
    if trace.label not in (Label.PROVED, Label.DISPROVED):
        return ReplayReport(True)
    expected = q if trace.label is Label.PROVED else q.negated()
    res = trace.resolution or {}
    if res.get("kind") == "fact":
        if not kb.has_fact(res.get("fact"), expected):
            return ReplayReport(False, None, "decisive label lacks matching fact evidence")
        return ReplayReport(True)
    if res.get("kind") == "tree":
        root = res.get("root", {})
        if literal_from_term(root.get("literal", "")) != expected:
            return ReplayReport(False, None, "resolution tree does not conclude the hypothesis")
        err = _validate_tree(root, kb)
        if err:
            return ReplayReport(False, None, err)
        return ReplayReport(True)
    return ReplayReport(False, None, "decisive label without a resolution")
