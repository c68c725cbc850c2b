"""Command-line surface: prove, oracle, gen, bench, validate.

Exit codes for ``prove``: 0 Proved, 1 Disproved, 2 Unknown, 3 or higher for
errors (including usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import RunConfig, options_trace, run_bench
from .engine import (
    ENGINES,
    EngineConfig,
    ProofTrace,
    evaluate_options,
    make_backend,
    replay_validate,
)
from .generate import PROFILES, GenerationExhausted, generate_corpus
from .language import Label, ProblemFormatError, load_problems, problem_record
from .oracle import oracle_label

EXIT_BY_LABEL = {Label.PROVED: 0, Label.DISPROVED: 1, Label.UNKNOWN: 2}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bichain",
        description="Bidirectional-chaining inference over fact/rule bases")
    sub = parser.add_subparsers(dest="command", required=True)

    prove = sub.add_parser("prove", help="decide one problem file")
    prove.add_argument("file")
    prove.add_argument("--engine", choices=sorted(ENGINES), default="bi")
    prove.add_argument("--backend", choices=["symbolic", "remote"], default="symbolic")
    prove.add_argument("--max-steps", type=int, default=50)
    prove.add_argument("--trace", help="write the proof trace to this path")

    oracle = sub.add_parser("oracle", help="gold label and reference premises")
    oracle.add_argument("file")

    gen = sub.add_parser("gen", help="write a generated corpus")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--depth", type=int, default=0)
    gen.add_argument("--label", required=True,
                     choices=[l.value for l in Label])
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--profile", choices=sorted(PROFILES), default="default")

    bench = sub.add_parser("bench", help="run an engine sweep over a corpus")
    bench.add_argument("--corpus", nargs="+", required=True)
    bench.add_argument("--engines", default="bi,forward,backward",
                       help="comma-separated engine list")
    bench.add_argument("--backend", choices=["symbolic", "remote"], default="symbolic")
    bench.add_argument("--report", required=True)
    bench.add_argument("--parallel", type=int, default=1)
    bench.add_argument("--trace-dir")
    bench.add_argument("--max-steps", type=int, default=50)

    validate = sub.add_parser("validate", help="replay-validate a trace")
    validate.add_argument("--trace", required=True)
    validate.add_argument("--problem", required=True)
    return parser


def _load_single(path: str, backend: str):
    problems = load_problems(path, allow_freeform=backend == "remote")
    if len(problems) != 1:
        raise SystemExit(f"expected one problem in {path}, found {len(problems)}")
    return problems[0]


def _cmd_prove(args) -> int:
    problem = _load_single(args.file, args.backend)
    config = EngineConfig(max_steps=args.max_steps)
    backend = make_backend(args.backend)
    if problem.options:
        chosen, verdicts = evaluate_options(problem, config, backend,
                                            engine=args.engine)
        for i, verdict in enumerate(verdicts, start=1):
            print(f"option {i}: {verdict.label.value} calls={verdict.calls}")
            for warning in verdict.warnings:
                print(f"warning: option {i}: {warning}", file=sys.stderr)
        print(f"chosen: {chosen if chosen is not None else 'none'} "
              f"calls={sum(v.calls for v in verdicts)}")
        doc = options_trace(problem.meta, args.engine, chosen, verdicts)
        code = 0 if chosen is not None else 2
    else:
        verdict = ENGINES[args.engine](problem, config, backend)
        print(f"{verdict.label.value} calls={verdict.calls}")
        for warning in verdict.warnings:
            print(f"warning: {warning}", file=sys.stderr)
        doc, code = verdict.trace.to_json(), EXIT_BY_LABEL[verdict.label]
    if args.trace:
        Path(args.trace).write_text(json.dumps(doc, indent=1, sort_keys=True),
                                    encoding="utf-8")
    return code


def _cmd_oracle(args) -> int:
    problem = _load_single(args.file, "symbolic")
    if problem.options:
        for i, option in enumerate(problem.options, start=1):
            label, _ = oracle_label(problem, option)
            print(f"option {i}: {label.value}")
        return 0
    label, reference = oracle_label(problem)
    print(label.value)
    if reference is not None:
        premises = sorted(reference.premises())
        print("premises:", ", ".join(f"{kind} {pid}" for kind, pid in premises))
    return 0


def _cmd_gen(args) -> int:
    problems = generate_corpus(args.count, Label.parse(args.label), args.depth,
                               args.seed, **PROFILES[args.profile])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("".join(json.dumps(problem_record(p), sort_keys=True) + "\n"
                           for p in problems), encoding="utf-8")
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = RunConfig(
        corpus=tuple(args.corpus),
        engines=tuple(e.strip() for e in args.engines.split(",") if e.strip()),
        backend=args.backend,
        engine_config=EngineConfig(max_steps=args.max_steps),
        parallelism=args.parallel,
        report_path=args.report,
        trace_dir=args.trace_dir,
    )
    report = run_bench(cfg)
    for engine, entry in sorted(report["engines"].items()):
        print(f"{engine}: accuracy={entry['accuracy']} "
              f"validity={entry['proof_validity_rate']} "
              f"mean_calls={entry['calls'].get('mean')}")
    for other, ratio in sorted(report.get("call_ratios_vs_bi", {}).items()):
        print(f"calls({other}) / calls(bi) = {ratio:.2f}")
    print(f"report written to {args.report}")
    return 0


def _cmd_validate(args) -> int:
    problem = _load_single(args.problem, "symbolic")
    doc = json.loads(Path(args.trace).read_text(encoding="utf-8"))
    trace = ProofTrace.from_json(doc)
    report = replay_validate(trace, problem)
    if report:
        print("valid")
        return 0
    where = f" at step {report.step}" if report.step is not None else ""
    print(f"invalid{where}: {report.reason}")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2, which prove reserves for Unknown
        raise SystemExit(3 if exc.code == 2 else exc.code)
    handlers = {"prove": _cmd_prove, "oracle": _cmd_oracle, "gen": _cmd_gen,
                "bench": _cmd_bench, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ProblemFormatError, GenerationExhausted, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
