#!/usr/bin/env python3
"""bichain benchmark: one workload, one run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

``--trace 0`` measures the end-to-end metrics with a thin timer around the
``ENGINES`` entries as the only instrumentation.  ``--trace 1`` alternates an
untraced and a traced cycle (set-up plus one pass) and reports per-layer
metrics from spans recorded around every layer's public functions.

Times are scaled by the slowdown of a fixed reference slice timed around
every unit of work (``clock.py``), because on a shared host the same work
runs up to 2x slower for tens of seconds at a time.  Each unit (a shard's
``run_bench``, one engine call, ten generated instances) runs once per pass
and keeps its fastest scaled pass.

Every run checks the program's outputs: each verdict's label equals the
generator's target and the oracle's label, each trace replays, ``run_bench``
reports no failures, premise precision/recall in its report match a
recomputation, and call counts repeat exactly from pass to pass.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
Details go to ``.perfbench/results/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other bichain."""
    if not (SRC / "bichain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bichain sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bichain

    if Path(bichain.__file__).resolve().parent != (SRC / "bichain").resolve():
        sys.exit(f"perfbench: bichain imported from {bichain.__file__}, not {SRC}")


def run_all(args, names) -> int:
    """Every workload in its own process, one after another."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus seed shift; 0 gives the ROADMAP seeds, "
                             "900-909 are held out")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, tuple(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    import harness

    workload = WORKLOADS[args.workload]
    STATE.mkdir(exist_ok=True)
    work = STATE / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            metrics, gate, detail = harness.run_traced(workload, args.seed, args.seconds, work)
            units = {name: unit for name, unit, _ in harness.PER_LAYER}
        else:
            metrics, gate, detail = harness.run_e2e(workload, args.seed, args.seconds, work)
            units = dict(harness.E2E_METRICS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_share = gate.failed / gate.attempted if gate.attempted else 1.0
    brief = {k: v for k, v in detail.items() if k != "verdict_ms"}
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: {brief}")
    for name, unit in units.items():
        print(f"  {name:45s} {metrics[name]:.6g} {unit}")
    if "verdict_ms_tail" in detail:
        print(f"  {'verdict_ms_tail':45s} {detail['verdict_ms_tail']:.6g} ms "
              f"(p{detail['verdict_ms_tail_percentile']:g} of "
              f"{detail['verdict_ms_tail_samples']} verdicts; not bounded)")
    print(f"  {'failed_share':45s} {failed_share:.6g} ratio "
          f"({gate.failed} failed / {gate.attempted} attempted)")
    for reason in gate.reasons():
        print(f"  FAIL {reason}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    results_dir = STATE / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "failed_share": failed_share, "failures": gate.reasons(100),
                    "detail": detail}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
