"""Benchmark runner: corpus ingestion, engine sweeps, metric aggregation.

For every problem and engine the runner records the predicted label, the
call count, whether the trace replays, and premise precision/recall against
the oracle's reference proof.  Failures are recorded per problem and never
abort a sweep.  Reports are byte-reproducible apart from the timestamp
field.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .engine import ENGINES, EngineConfig, Verdict, evaluate_options, make_backend, replay_validate
from .language import Label, Problem, load_problems
from .oracle import ReferenceProof, oracle_label, premise_prf

LABELS = (Label.PROVED, Label.DISPROVED, Label.UNKNOWN)


@dataclass(frozen=True)
class RunConfig:
    corpus: tuple[str, ...]
    engines: tuple[str, ...] = ("bi", "forward", "backward")
    backend: str = "symbolic"
    engine_config: EngineConfig | None = None
    parallelism: int = 1
    report_path: str | None = None
    trace_dir: str | None = None

    def __post_init__(self) -> None:
        if not self.engines:
            raise ValueError("at least one engine is required")
        unknown = set(self.engines) - set(ENGINES)
        if unknown:
            raise ValueError(f"unknown engines: {sorted(unknown)}")
        if not self.corpus:
            raise ValueError("at least one corpus path is required")


@dataclass
class ProblemResult:
    problem: str
    gold: Label | None
    predicted: Label | None
    calls: int = 0
    valid: bool | None = None
    precision: Fraction | None = None
    recall: Fraction | None = None
    error: str = ""


def confusion_matrix(results: list[ProblemResult]) -> tuple[dict, int]:
    """gold x predicted counts over the three labels, plus a skipped tally
    for results without a gold label."""
    counts = {g.value: {p.value: 0 for p in LABELS} for g in LABELS}
    skipped = 0
    for r in results:
        if r.gold is None or r.predicted is None:
            skipped += 1
            continue
        counts[r.gold.value][r.predicted.value] += 1
    return counts, skipped


def _accuracy(matrix: dict) -> float | None:
    total = sum(sum(row.values()) for row in matrix.values())
    if total == 0:
        return None
    correct = sum(matrix[l.value][l.value] for l in LABELS)
    return correct / total


def _distribution(values: list[int]) -> dict:
    if not values:
        return {}
    return {
        "mean": statistics.mean(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
    }


_DEPTH_META_RE = re.compile(r"-d(\d+)$")


def corpus_metadata(problems: list[Problem], paths: tuple[str, ...]) -> dict:
    depths: dict[str, int] = {}
    labels: dict[str, int] = {}
    seeds = set()
    for p in problems:
        m = _DEPTH_META_RE.search(p.meta)
        if m:
            depths[m.group(1)] = depths.get(m.group(1), 0) + 1
        s = re.search(r"gen-s(\d+)", p.meta)
        if s:
            seeds.add(int(s.group(1)))
        if p.gold_label:
            labels[p.gold_label.value] = labels.get(p.gold_label.value, 0) + 1
    return {
        "paths": list(paths),
        "size": len(problems),
        "depth_histogram": dict(sorted(depths.items())),
        "label_histogram": dict(sorted(labels.items())),
        "seed_range": [min(seeds), max(seeds)] if seeds else None,
    }


def _oracle_view(problem: Problem) -> tuple[Label | None, ReferenceProof | None] | Exception:
    """Gold label (the file's, else the oracle's on symbolic problems) and
    the oracle's reference proof, from at most one saturation; or the
    exception the oracle raised, for each engine's isolation to report."""
    gold = problem.gold_label
    if problem.remote_only or problem.hypothesis is None or gold is Label.UNKNOWN:
        return gold, None
    try:
        label, reference = oracle_label(problem)
    except Exception as exc:
        return exc
    return gold or label, reference


def _trace_filename(meta: str, index: int, engine: str) -> str:
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", meta) or f"problem{index}"
    return f"{slug}__{engine}.json"


def options_trace(name: str, engine: str, chosen: int | None,
                  verdicts: tuple[Verdict, ...]) -> dict:
    """The trace document of one multi-option evaluation."""
    return {"problem": name, "engine": engine, "chosen": chosen,
            "options": [v.trace.to_json() for v in verdicts]}


def _evaluate_one(index: int, problem: Problem, oracle: tuple | Exception, engine: str,
                  cfg: RunConfig) -> tuple[ProblemResult, dict | None]:
    """One engine on one problem, given the problem's ``_oracle_view``."""
    prove = ENGINES[engine]
    backend = make_backend(cfg.backend)
    engine_config = cfg.engine_config or EngineConfig()
    name = problem.meta or f"problem{index}"
    try:
        if isinstance(oracle, Exception):
            raise oracle
        gold, reference = oracle
        if problem.options:
            chosen, verdicts = evaluate_options(problem, engine_config, backend,
                                                engine=engine)
            calls = sum(v.calls for v in verdicts)
            result = ProblemResult(name, None, None, calls=calls)
            return result, options_trace(name, engine, chosen, verdicts)
        verdict: Verdict = prove(problem, engine_config, backend)
        result = ProblemResult(name, gold, verdict.label, calls=verdict.calls)
        report = replay_validate(verdict.trace, problem)
        result.valid = bool(report)
        if result.valid and reference is not None:  # the gold label is decisive
            result.precision, result.recall = premise_prf(verdict.trace, reference)
        return result, verdict.trace.to_json()
    except Exception as exc:  # isolation: one bad problem never kills a sweep
        return ProblemResult(name, None, None, error=f"{type(exc).__name__}: {exc}"), None


def run_bench(cfg: RunConfig) -> dict:
    """Evaluate every problem under every engine and aggregate the metrics."""
    problems: list[Problem] = []
    for path in cfg.corpus:
        problems.extend(load_problems(path, allow_freeform=cfg.backend == "remote"))
    report: dict = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "backend": cfg.backend,
        "corpus": corpus_metadata(problems, cfg.corpus),
        "engines": {},
        "notes": [
            "proof validity is checked on every trace by replay, not on a "
            "hand-verified sample, so its denominator is the whole corpus",
        ],
    }
    trace_dir = Path(cfg.trace_dir) if cfg.trace_dir else None
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
    oracles = [_oracle_view(p) for p in problems]  # shared by every engine
    for engine in cfg.engines:
        def job(item: tuple[int, Problem]):
            return _evaluate_one(item[0], item[1], oracles[item[0]], engine, cfg)

        if cfg.parallelism > 1:
            with ThreadPoolExecutor(max_workers=cfg.parallelism) as pool:
                outcomes = list(pool.map(job, enumerate(problems)))
        else:
            outcomes = [job(item) for item in enumerate(problems)]
        results = [r for r, _ in outcomes]
        if trace_dir:
            for i, (result, trace_doc) in enumerate(outcomes):
                if trace_doc is not None:
                    path = trace_dir / _trace_filename(result.problem, i, engine)
                    path.write_text(json.dumps(trace_doc, indent=1, sort_keys=True),
                                    encoding="utf-8")
        matrix, skipped = confusion_matrix(results)
        evaluated = [r for r in results if not r.error]
        failures = [{"problem": r.problem, "error": r.error} for r in results if r.error]
        validities = [r.valid for r in evaluated if r.valid is not None]
        precisions = [r.precision for r in evaluated if r.precision is not None]
        recalls = [r.recall for r in evaluated if r.recall is not None]
        calls = [r.calls for r in evaluated]
        entry = {
            "accuracy": _accuracy(matrix),
            "confusion_matrix": matrix,
            "skipped": skipped,
            "calls": _distribution(calls),
            "proof_validity_rate": (sum(validities) / len(validities))
            if validities else None,
            "premise_precision": {
                "mean": float(sum(precisions) / len(precisions)) if precisions else None,
                "exact": str(sum(precisions) / len(precisions)) if precisions else None,
            },
            "premise_recall": {
                "mean": float(sum(recalls) / len(recalls)) if recalls else None,
                "exact": str(sum(recalls) / len(recalls)) if recalls else None,
            },
            "failures": failures,
        }
        report["engines"][engine] = entry
    if len(cfg.engines) > 1 and "bi" in cfg.engines:
        base = report["engines"]["bi"]["calls"].get("mean")
        ratios = {}
        for other in cfg.engines:
            if other == "bi" or base is None:
                continue
            mean = report["engines"][other]["calls"].get("mean")
            if mean is not None and base:
                ratios[other] = mean / base
        report["call_ratios_vs_bi"] = ratios
    if cfg.report_path:
        Path(cfg.report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(cfg.report_path).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        _write_flat_tables(report, Path(cfg.report_path))
    return report


def _write_flat_tables(report: dict, report_path: Path) -> None:
    """Companion CSVs for plotting: accuracy and call counts per engine."""
    base = report_path.with_suffix("")
    lines = ["engine,accuracy,proof_validity_rate,mean_calls"]
    for engine, entry in sorted(report["engines"].items()):
        lines.append(f"{engine},{entry['accuracy']},{entry['proof_validity_rate']},"
                     f"{entry['calls'].get('mean')}")
    Path(f"{base}_engines.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
