#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

Runs ``run.py`` once per seed on each workload, one run at a time, and prints
for every end-to-end metric the median and the distance between the first
and third quartile of its values as a share of the median, next to the bound
in ``BENCHMARK.json``.  Run from the repository root:

    python3 perfbench/spread.py --workloads sweep,rich_d5 --seeds 1-10
    python3 perfbench/spread.py --seeds 900-909 --out spread.json   # held-out seeds

Exits with 1 when a run fails, reports wrong outputs, or a spread other than
``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every value and spread to this JSON file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    ok = True
    summary, failed_runs = {}, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, correct "
                      f"{result['correct']}, failed {result['failed']}")
                failed_runs.setdefault(workload, []).append(
                    {"seed": seed, "exit": proc.returncode, "failed": result["failed"]})
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary[workload] = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "spread": spread, "values": vals}
            flag = "" if spread <= bounds[name] / 3 else (
                "  above bound/3" if spread <= bounds[name] else "  ABOVE BOUND")
            if spread > bounds[name] and name != "setup_s":
                ok = False
            print(f"{workload:10s} {name:28s} median {median:12.6g}  spread {spread:7.2%}"
                  f"  bound {bounds[name]:.0%}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"seeds": seeds, "workloads": summary,
                                              "failed": failed_runs}, indent=1) + "\n",
                                  encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
