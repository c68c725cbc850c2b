"""The benchmark's workloads: inputs made from the seed, set-up, one pass.

Every workload is a closed loop in one serial process: the next engine call
starts when the previous one has returned.  The program receives only
generated inputs; the seed stays in the benchmark.

Corpora are written as JSONL shards and ``run_bench`` runs once per shard, so
every shard is timed on its own, against the reference clock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import bichain.bench
import bichain.generate
import bichain.language
from bichain import EngineConfig, InstanceSpec, Label, PROFILES
from clock import ScaledClock

ENGINE_NAMES = ("bi", "forward", "backward")

# Seed n moves every corpus seed by n * SEED_STRIDE, so seed 0 is the ROADMAP
# corpora and no two seeds share an instance.
SEED_STRIDE = 100_000

RICH_PROVED_BASE, RICH_DISPROVED_BASE = 40000, 47000
RICH_PROVED, RICH_DISPROVED = 120, 80     # criterion 4's corpus
# generate_balanced cycles labels (3) and, per label, depths (6), so calls of
# a multiple of 18 problems at consecutive seeds build exactly the corpus one
# call would; the chunks give the reference clock a probe every ~0.3 s
DEEP_BASE, DEEP_COUNT, DEEP_CHUNK = 1000, 594, 54


@dataclass
class Inputs:
    shards: list[Path] = field(default_factory=list)
    specs: list[InstanceSpec] = field(default_factory=list)
    gen_seconds: float = 0.0      # scaled
    gen_count: int = 0


@dataclass
class PassResult:
    """Scaled times per generated instance and per shard, plus what the
    per-verdict scaling and the CPU share need."""

    gen_times: dict[str, float] = field(default_factory=dict)
    shard_times: dict[str, float] = field(default_factory=dict)
    shard_factor: dict[str, float] = field(default_factory=dict)
    shard_wall: dict[str, float] = field(default_factory=dict)
    shard_cpu: dict[str, float] = field(default_factory=dict)
    reports: dict[str, dict] = field(default_factory=dict)


def _cpu() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _run_bench_cpu(cfg) -> tuple[dict, float]:
    """run_bench's report and the CPU seconds it used, children included."""
    start = _cpu()
    report = bichain.bench.run_bench(cfg)
    return report, _cpu() - start


def write_shards(problems, directory: Path, shard_size: int) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    shards = []
    for k in range(0, len(problems), shard_size):
        path = directory / f"shard-{k // shard_size:03d}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for problem in problems[k:k + shard_size]:
                fh.write(json.dumps(bichain.language.problem_record(problem)) + "\n")
        shards.append(path)
    return shards


def bench_shards(shards: list[Path], directory: Path, result: PassResult, clock: ScaledClock,
                 max_steps: int) -> None:
    for shard in shards:
        cfg = bichain.bench.RunConfig(
            corpus=(str(shard),), engines=ENGINE_NAMES,
            engine_config=EngineConfig(max_steps=max_steps),
            report_path=str(directory / f"{shard.stem}-report.json"),
            trace_dir=str(directory / "traces"))
        (report, cpu), wall, factor = clock.time(_run_bench_cpu, cfg)
        result.shard_cpu[shard.name] = cpu
        result.shard_wall[shard.name] = wall
        result.shard_factor[shard.name] = factor
        result.shard_times[shard.name] = wall / factor
        result.reports[shard.name] = report


class Workload:
    name = ""
    why = ""
    max_steps = 50  # run_bench's default budget

    def setup(self, seed: int, directory: Path, clock: ScaledClock) -> Inputs:
        raise NotImplementedError

    def run_pass(self, inputs: Inputs, directory: Path, clock: ScaledClock) -> PassResult:
        result = PassResult()
        bench_shards(inputs.shards, directory, result, clock, self.max_steps)
        return result


class RichD5(Workload):
    name = "rich_d5"
    why = ("criterion-4 corpus generated in the timed region: saturation is ~97% of "
           "generation, and the paper's depth-5 call counts are measured on it")
    shard_size = 10
    # bi needs more than 50 steps for some depth-5 proofs (seed 1: instance
    # 140058 is Unknown at 80 steps, Proved with 321 calls at 100); 200 leaves
    # room for every proof seen on seeds 0-10
    max_steps = 200

    @staticmethod
    def specs(seed: int) -> list[InstanceSpec]:
        rich = PROFILES["rich"]
        shift = seed * SEED_STRIDE
        return ([InstanceSpec(Label.PROVED, 5, seed=RICH_PROVED_BASE + shift + i, **rich)
                 for i in range(RICH_PROVED)]
                + [InstanceSpec(Label.DISPROVED, 5, seed=RICH_DISPROVED_BASE + shift + i, **rich)
                   for i in range(RICH_DISPROVED)])

    def setup(self, seed: int, directory: Path, clock: ScaledClock) -> Inputs:
        # warm-up cycle, so lazy set-up finishes before anything is timed: seed
        # 0's first three Proved and first two Disproved instances whatever the
        # seed, so set-up time does not change with the inputs
        warm = self.specs(0)
        warm = [bichain.generate.generate_instance(s)
                for s in warm[:3] + warm[RICH_PROVED:RICH_PROVED + 2]]
        bench_shards(write_shards(warm, directory / "warmup", len(warm)), directory,
                     PassResult(), clock, self.max_steps)
        return Inputs(specs=self.specs(seed))

    def run_pass(self, inputs: Inputs, directory: Path, clock: ScaledClock) -> PassResult:
        result = PassResult()
        problems = []

        def generate(specs):
            times = []
            for spec in specs:
                start = time.perf_counter()
                problems.append(bichain.generate.generate_instance(spec))
                times.append((problems[-1].meta, time.perf_counter() - start))
            return times

        for k in range(0, len(inputs.specs), self.shard_size):
            times, _, factor = clock.time(generate, inputs.specs[k:k + self.shard_size])
            result.gen_times.update((meta, wall / factor) for meta, wall in times)
        shards = write_shards(problems, directory / "corpus", self.shard_size)
        bench_shards(shards, directory, result, clock, self.max_steps)
        return result


class Sweep(Workload):
    name = "sweep"
    why = ("balanced deep corpus, tiny KBs and short verdicts: fixed per-verdict cost "
           "(engine skeleton, bench oracle, replay, trace JSON) dominates")
    shard_size = 25

    def setup(self, seed: int, directory: Path, clock: ScaledClock) -> Inputs:
        problems, gen_seconds = [], 0.0
        for start in range(0, DEEP_COUNT, DEEP_CHUNK):
            chunk, wall, factor = clock.time(
                bichain.generate.generate_balanced, DEEP_CHUNK,
                seed=DEEP_BASE + seed * SEED_STRIDE + start, **PROFILES["deep"])
            problems += chunk
            gen_seconds += wall / factor
        shards = write_shards(problems, directory / "corpus", self.shard_size)
        return Inputs(shards=shards, gen_seconds=gen_seconds, gen_count=len(problems))


WORKLOADS = {w.name: w for w in (RichD5(), Sweep())}
