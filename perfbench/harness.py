"""Measurement and checks behind ``run.py``: passes, cycles, the gate.

Imported only after ``run.py`` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from bichain import bench, engine, generate, language, modules, oracle, terms
from bichain.language import Label
from clock import ScaledClock
from tracing import MODULE_KINDS, Tracer, descendants_named, summarise
from workloads import ENGINE_NAMES

SETUP_REPEATS = 3
PASS_OVERRUN = 1.25
# harness glue (shard writing, the verdict timer, clock probes) may take this
# share of a traced cycle; the rest of the wall time must be covered by layer spans
SELF_TIME_TOLERANCE = 0.10

E2E_METRICS = (
    ("verdicts_per_s", "1/s"),
    ("gen_instances_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("calls_per_verdict.bi", "count"),
    ("calls_per_verdict.forward", "count"),
    ("calls_per_verdict.backward", "count"),
    ("premise_precision", "ratio"),
    ("premise_recall", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# (name, unit, better); BENCHMARK.json's per_layer list mirrors this one
PER_LAYER = (
    ("language.load_problems.busy_s", "s", "lower"),
    ("terms.add_derived.calls", "count", "lower"),
    ("terms.add_derived.busy_s", "s", "lower"),
    ("generate.self_s", "s", "lower"),
    ("generate.saturate_calls_per_instance", "count", "lower"),
    ("oracle.saturate.calls", "count", "lower"),
    ("oracle.saturate.busy_s", "s", "lower"),
    ("oracle.saturate.closure_facts_mean", "count", "lower"),
    ("oracle.oracle_label.calls_per_problem", "count", "lower"),
    ("oracle.premise_prf.busy_s", "s", "lower"),
    *((f"modules.{kind}.{what}", unit, "lower") for kind in MODULE_KINDS
      for what, unit in (("calls", "count"), ("busy_s", "s"))),
    ("modules.logic_deduce.derived_per_call", "count", "higher"),
    ("modules.rule_select_forward.empty_share", "ratio", "lower"),
    ("engine.bi.self_s", "s", "lower"),
    ("engine.forward.self_s", "s", "lower"),
    ("engine.backward.self_s", "s", "lower"),
    ("engine.replay_validate.busy_s", "s", "lower"),
    ("engine.bi.direction_switches_per_verdict", "count", "lower"),
    ("bench.run_bench.self_s", "s", "lower"),
    ("bench.cpu_per_wall", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.layer_self_share", "ratio", "higher"),
)


# --------------------------------------------------------------------------
# verdict capture: the thin timer around the ENGINES entries
# --------------------------------------------------------------------------


class VerdictLog:
    """Wall time, label, call count and trace of every engine call.

    ``rows`` keeps the last call per (problem, engine); ``traces`` keeps every
    call's engine and trace, warm-up calls included.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple[str, str], tuple[float, object, int, object]] = {}
        self.traces: list[tuple[str, object]] = []
        self._saved: dict = {}

    def install(self, engines: dict) -> None:
        self._saved = dict(engines)
        for name, fn in self._saved.items():
            engines[name] = self._wrap(name, fn)

    def uninstall(self, engines: dict) -> None:
        engines.update(self._saved)

    def _wrap(self, name: str, fn):
        rows, traces = self.rows, self.traces

        def timed(problem, config=None, backend=None):
            start = time.perf_counter()
            verdict = fn(problem, config, backend)
            rows[(problem.meta, name)] = (time.perf_counter() - start, verdict.label,
                                            verdict.calls, verdict.trace)
            traces.append((name, verdict.trace))
            return verdict

        return timed

    def drop_traces(self) -> None:
        for key, (seconds, label, calls, _) in self.rows.items():
            self.rows[key] = (seconds, label, calls, None)
        self.traces.clear()


# --------------------------------------------------------------------------
# correctness gate
# --------------------------------------------------------------------------


class Gate:
    """Per-verdict and whole-run failures; every one counts in ``failed``."""

    def __init__(self) -> None:
        self.bad: dict[tuple[str, str], list[str]] = {}
        self.global_failures: list[str] = []
        self.attempted = 0

    def fail(self, key, reason: str) -> None:
        self.bad.setdefault(key, []).append(reason)

    @property
    def failed(self) -> int:
        return len(self.bad) + len(self.global_failures)

    def reasons(self, limit: int = 10) -> list[str]:
        out = [f"{k[0]}/{k[1]}: {'; '.join(v)}" for k, v in sorted(self.bad.items())]
        return (self.global_failures + out)[:limit]


def check_pass(gate: Gate, shards: list[Path], log: VerdictLog, reports: dict) -> dict:
    """Check one pass's verdicts; returns premise precision/recall lists."""
    precisions, recalls = [], []
    decisive = (Label.PROVED, Label.DISPROVED)
    for shard in shards:
        per_engine: dict[str, list[tuple[Fraction, Fraction]]] = {e: [] for e in ENGINE_NAMES}
        for problem in language.load_problems(str(shard)):
            pid = problem.meta
            gold = problem.gold_label
            expected, reference = oracle.oracle_label(problem)
            for name in ENGINE_NAMES:
                key = (pid, name)
                gate.attempted += 1
                row = log.rows.get(key)
                if row is None:
                    gate.fail(key, "no verdict")
                    continue
                _, label, _, trace = row
                if label is not gold:
                    gate.fail(key, f"label {label.value} != target {gold.value}")
                if label is not expected:
                    gate.fail(key, f"label {label.value} != oracle {expected.value}")
                replay = engine.replay_validate(trace, problem)
                if not replay:
                    gate.fail(key, f"trace does not replay at step {replay.step}: {replay.reason}")
                elif gold in decisive and reference is not None:
                    p, r = oracle.premise_prf(trace, reference)
                    per_engine[name].append((p, r))
                    precisions.append(p)
                    recalls.append(r)
        report = reports.get(shard.name)
        if report is None:
            gate.global_failures.append(f"{shard.name}: no run_bench report")
            continue
        for name in ENGINE_NAMES:
            entry = report["engines"][name]
            for failure in entry["failures"]:
                gate.fail((failure["problem"], name), f"run_bench failure: {failure['error']}")
            pairs = per_engine[name]
            for field, index in (("premise_precision", 0), ("premise_recall", 1)):
                exact = entry[field]["exact"]
                mine = sum((pr[index] for pr in pairs), Fraction(0)) / len(pairs) if pairs else None
                if (None if exact is None else Fraction(exact)) != mine:
                    gate.global_failures.append(
                        f"{shard.name}/{name}: report {field} {exact} != recomputed {mine}")
    return {"precision": precisions, "recall": recalls}


def check_repeat(gate: Gate, first: VerdictLog, other: VerdictLog, what: str) -> None:
    """Labels and call counts must repeat exactly."""
    for key, (_, label, calls, _) in first.rows.items():
        row = other.rows.get(key)
        if row is None or row[1] is not label or row[2] != calls:
            got = None if row is None else (row[1].value, row[2])
            gate.fail(key, f"{what}: {(label.value, calls)} then {got}")
    for key in other.rows.keys() - first.rows.keys():
        gate.fail(key, f"{what}: verdict missing from the first pass")


def fingerprint(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def verdict_counts(log: VerdictLog) -> list:
    return sorted([pid, name, row[1].value, row[2]] for (pid, name), row in log.rows.items())


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------


TAIL_PERCENTILES = (50, 90, 95, 99, 99.9)


def _tail(values: list[float]) -> tuple[float, float]:
    """The highest of the usual percentiles with at least ten samples beyond
    it, by nearest rank, and that percentile."""
    n = len(values)
    pct = max([p for p in TAIL_PERCENTILES if n * (1 - p / 100) >= 10], default=50)
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * n) - 1)], pct


def shard_of(shards: list[Path]) -> dict[str, str]:
    """Problem id -> name of the shard that holds it."""
    out = {}
    for shard in shards:
        with open(shard, encoding="utf-8") as fh:
            for line in fh:
                out[json.loads(line)["id"]] = shard.name
    return out


def run_e2e(workload, seed: int, seconds: float, work: Path) -> tuple[dict, Gate, dict]:
    engines = engine.ENGINES
    clock = ScaledClock()
    setup_times, gen_seconds = [], []
    for k in range(SETUP_REPEATS):
        inputs, wall, factor = clock.time(workload.setup, seed, work / f"setup-{k}", clock)
        setup_times.append(wall / factor)
        gen_seconds.append(inputs.gen_seconds)

    passes, logs, pass_walls = [], [], []
    started = time.perf_counter()
    # start another pass only while it should end within PASS_OVERRUN x --seconds
    while not passes or (time.perf_counter() - started + pass_walls[-1]
                         <= seconds * PASS_OVERRUN):
        log = VerdictLog()
        log.install(engines)
        start = time.perf_counter()
        try:
            passes.append(workload.run_pass(inputs, work / f"pass-{len(passes)}", clock))
        finally:
            log.uninstall(engines)
        pass_walls.append(time.perf_counter() - start)
        if logs:
            log.drop_traces()
            passes[-1].reports.clear()
        else:
            # peak memory through set-up and one pass, whatever the pass count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        logs.append(log)

    gate = Gate()
    shards = inputs.shards or sorted((work / "pass-0" / "corpus").glob("shard-*.jsonl"))
    prf = check_pass(gate, shards, logs[0], passes[0].reports)
    for i, log in enumerate(logs[1:], start=1):
        check_repeat(gate, logs[0], log, f"pass {i}")

    home = shard_of(shards)
    shard_best = {s: min(p.shard_times[s] for p in passes) for s in passes[0].shard_times}
    verdict_best = {
        key: min(log.rows[key][0] / p.shard_factor[home[key[0]]]
                 for log, p in zip(logs, passes) if key in log.rows)
        for key in logs[0].rows}
    if passes[0].gen_times:
        gen_best = sum(min(p.gen_times[u] for p in passes) for u in passes[0].gen_times)
        gen_rate = len(passes[0].gen_times) / gen_best
    else:
        gen_rate = inputs.gen_count / min(gen_seconds)
    tail, tail_pct = _tail(list(verdict_best.values()))
    metrics = {
        "verdicts_per_s": len(verdict_best) / sum(shard_best.values()),
        "gen_instances_per_s": gen_rate,
        "verdict_ms_p50": 1000 * statistics.median(verdict_best.values()),
        **{f"calls_per_verdict.{e}": statistics.mean(
            row[2] for (_, name), row in logs[0].rows.items() if name == e)
           for e in ENGINE_NAMES},
        "premise_precision": float(statistics.mean(prf["precision"])) if prf["precision"] else 0.0,
        "premise_recall": float(statistics.mean(prf["recall"])) if prf["recall"] else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": pass_walls,
        "setup_scaled_s": setup_times,
        "shard_wall_s_per_pass": [sum(p.shard_wall.values()) for p in passes],
        "shard_scaled_s_per_pass": [sum(p.shard_times.values()) for p in passes],
        "verdict_ms_tail": 1000 * tail,
        "verdict_ms_tail_percentile": tail_pct,
        "verdict_ms_tail_samples": len(verdict_best),
        "fingerprint": fingerprint(verdict_counts(logs[0])),
        "verdict_ms": {f"{pid}|{name}": 1000 * t for (pid, name), t in verdict_best.items()},
    }
    return metrics, gate, detail


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------


def layer_targets() -> list[tuple[str, object, object]]:
    observe = {"logic_deduce": lambda step: len(step.derived),
               "rule_select_forward": lambda sel: 0 if sel.rule_ids else 1}
    targets = [(f"modules.{kind}", vars(modules.SymbolicBackend)[kind], observe.get(kind))
               for kind in MODULE_KINDS]
    targets += [(f"engine.{name}", fn, None) for name, fn in engine.ENGINES.items()]
    targets += [
        ("engine.replay_validate", engine.replay_validate, None),
        ("oracle.saturate", oracle.saturate, len),
        ("oracle.oracle_label", oracle.oracle_label, None),
        ("oracle.premise_prf", oracle.premise_prf, None),
        ("generate.generate_instance", generate.generate_instance, None),
        ("language.load_problems", language.load_problems, None),
        ("terms.add_derived", vars(terms.KnowledgeBase)["add_derived"], None),
        ("bench.run_bench", bench.run_bench, None),
    ]
    return targets


def run_cycle(workload, seed: int, work: Path, clock: ScaledClock, traced: bool) -> dict:
    """Set-up plus one pass, optionally under the span tracer."""
    engines = engine.ENGINES
    tracer = Tracer() if traced else None
    log = VerdictLog()
    if tracer:
        tracer.install(layer_targets(), engines,
                       {"SymbolicBackend": modules.SymbolicBackend,
                        "KnowledgeBase": terms.KnowledgeBase})
    log.install(engines)

    def cycle():
        with tracer.region("perfbench.cycle") if tracer else nullcontext() as root:
            inputs = workload.setup(seed, work, clock)
            return inputs, workload.run_pass(inputs, work, clock), root

    try:
        (inputs, result, root), wall, factor = clock.time(cycle)
    finally:
        log.uninstall(engines)
        if tracer:
            tracer.uninstall()
    shards = inputs.shards or sorted((work / "corpus").glob("shard-*.jsonl"))
    return {"inputs": inputs, "result": result, "log": log, "tracer": tracer,
            "root": root, "scaled_wall": wall / factor, "shards": shards}


def layer_metrics(cycle: dict, gate: Gate) -> tuple[dict, dict]:
    """Per-layer numbers of one traced cycle, plus its completeness checks."""
    spans = cycle["tracer"].spans
    root = cycle["root"]
    summary = summarise(spans)
    log: VerdictLog = cycle["log"]

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    step_counts = {kind: 0 for kind in MODULE_KINDS}
    switches, bi_verdicts = 0, 0
    for name, trace in log.traces:
        for step in trace.steps:
            step_counts[step.module] = step_counts.get(step.module, 0) + 1
        if name == "bi":
            bi_verdicts += 1
            switches += sum(1 for a, b in zip(trace.steps, trace.steps[1:])
                            if a.direction != b.direction)
    for kind in MODULE_KINDS:
        spans_n = get(f"modules.{kind}", "calls")
        if spans_n != step_counts[kind]:
            gate.global_failures.append(
                f"traced run incomplete: modules.{kind} has {spans_n} calls, "
                f"traces have {step_counts[kind]} steps")

    self_total = sum(entry["self_s"] for entry in summary.values())
    layer_self = self_total - get("perfbench.cycle", "self_s")
    share = layer_self / root.duration
    if abs(self_total - root.duration) > 1e-6 * root.duration + 1e-6:
        gate.global_failures.append(
            f"self times add up to {self_total:.6f}s, traced wall is {root.duration:.6f}s")
    if share < 1 - SELF_TIME_TOLERANCE:
        gate.global_failures.append(
            f"layer spans cover {share:.1%} of the traced wall, below "
            f"{1 - SELF_TIME_TOLERANCE:.0%}")

    instances = get("generate.generate_instance", "calls")
    problems = len(log.traces) / len(ENGINE_NAMES)  # run_bench evaluations
    saturate_calls = get("oracle.saturate", "calls")
    oracle_sites = summary.get("oracle.oracle_label", {}).get("sites", {})
    metrics = {
        "language.load_problems.busy_s": get("language.load_problems", "busy_s"),
        "terms.add_derived.calls": get("terms.add_derived", "calls"),
        "terms.add_derived.busy_s": get("terms.add_derived", "busy_s"),
        "generate.self_s": get("generate.generate_instance", "self_s"),
        "generate.saturate_calls_per_instance":
            descendants_named(spans, "generate.generate_instance", "oracle.saturate")
            / instances if instances else 0.0,
        "oracle.saturate.calls": saturate_calls,
        "oracle.saturate.busy_s": get("oracle.saturate", "busy_s"),
        "oracle.saturate.closure_facts_mean":
            get("oracle.saturate", "value") / saturate_calls if saturate_calls else 0.0,
        "oracle.oracle_label.calls_per_problem":
            oracle_sites.get("bichain.bench", 0) / problems if problems else 0.0,
        "oracle.premise_prf.busy_s": get("oracle.premise_prf", "busy_s"),
    }
    for kind in MODULE_KINDS:
        metrics[f"modules.{kind}.calls"] = get(f"modules.{kind}", "calls")
        metrics[f"modules.{kind}.busy_s"] = get(f"modules.{kind}", "busy_s")
    deduce = get("modules.logic_deduce", "calls")
    select = get("modules.rule_select_forward", "calls")
    metrics.update({
        "modules.logic_deduce.derived_per_call":
            get("modules.logic_deduce", "value") / deduce if deduce else 0.0,
        "modules.rule_select_forward.empty_share":
            get("modules.rule_select_forward", "value") / select if select else 0.0,
        "engine.bi.self_s": get("engine.bi", "self_s"),
        "engine.forward.self_s": get("engine.forward", "self_s"),
        "engine.backward.self_s": get("engine.backward", "self_s"),
        "engine.replay_validate.busy_s": get("engine.replay_validate", "busy_s"),
        "engine.bi.direction_switches_per_verdict":
            switches / bi_verdicts if bi_verdicts else 0.0,
        "bench.run_bench.self_s": get("bench.run_bench", "self_s"),
        "trace.layer_self_share": share,
    })
    counts = {name: metrics[name] for name in metrics
              if name.endswith(".calls") or name.endswith("_per_instance")
              or name.endswith("calls_per_problem")}
    return metrics, counts


def run_traced(workload, seed: int, seconds: float, work: Path) -> tuple[dict, Gate, dict]:
    gate = Gate()
    clock = ScaledClock()
    plain_cycles, traced_cycles = [], []
    started = time.perf_counter()
    while not traced_cycles or time.perf_counter() - started < seconds:
        i = len(traced_cycles)
        plain_cycles.append(run_cycle(workload, seed, work / f"plain-{i}", clock, traced=False))
        traced_cycles.append(run_cycle(workload, seed, work / f"traced-{i}", clock, traced=True))

    first = traced_cycles[0]
    check_pass(gate, first["shards"], first["log"], first["result"].reports)
    for i, cycle in enumerate(plain_cycles):
        check_repeat(gate, first["log"], cycle["log"], f"untraced cycle {i}")
    per_cycle, counts = [], []
    for cycle in traced_cycles:
        metrics, count = layer_metrics(cycle, gate)
        per_cycle.append(metrics)
        counts.append(count)
    for i, count in enumerate(counts[1:], start=1):
        if count != counts[0]:
            gate.global_failures.append(f"traced cycle {i} counts differ: {count} vs {counts[0]}")
    for i, cycle in enumerate(traced_cycles[1:], start=1):
        check_repeat(gate, first["log"], cycle["log"], f"traced cycle {i}")

    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    cpu_per_wall = [sum(c["result"].shard_cpu.values()) / sum(c["result"].shard_wall.values())
                    for c in plain_cycles]
    metrics["bench.cpu_per_wall"] = statistics.median(cpu_per_wall)
    metrics["trace.overhead_s"] = statistics.median(
        t["scaled_wall"] - p["scaled_wall"] for p, t in zip(plain_cycles, traced_cycles))
    detail = {
        "cycles": len(traced_cycles),
        "traced_scaled_s": [c["scaled_wall"] for c in traced_cycles],
        "untraced_scaled_s": [c["scaled_wall"] for c in plain_cycles],
        "self_time_tolerance": SELF_TIME_TOLERANCE,
        "fingerprint": fingerprint(verdict_counts(first["log"])),
        "count_fingerprint": fingerprint(counts[0]),
        "counts": counts[0],
    }
    return metrics, gate, detail
