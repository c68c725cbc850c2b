"""Wall time scaled to a fixed reference speed.

The host this benchmark was written on shares its CPUs with other tenants:
the same work runs 1x to 2x slower for tens of seconds at a time, so raw wall
times of two runs of the same code differ by up to 40%.  A fixed pure-Python
slice — a miniature of forward chaining over frozen dataclasses, the kind of
work bichain does — is timed before and after every unit of work, and the
unit's wall time is divided by the slice's slowdown against ``REFERENCE_S``.
On that host this cut the spread of one 25-problem ``run_bench`` shard's
time over 90 seconds from 40% to 12.5% (between quartiles, as a share of the
median), and the variation of 10-second averages to about +-4%.  The slice
does not use bichain, so a change to the program moves scaled times exactly
as it moves raw ones.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass

# fastest slice on an uncontended core of the host that recorded baseline.json
REFERENCE_S = 0.0045
PROBES = 3


@dataclass(frozen=True)
class _Entity:
    name: str


@dataclass(frozen=True)
class _Literal:
    subject: _Entity
    predicate: str
    obj: _Entity


def reference_slice() -> str:
    """A fixed miniature of forward chaining: frozen dataclasses hashed into
    a dict, two rounds of rule application, the closure written as JSON."""
    rng = random.Random(7)
    names = [f"n{i}" for i in range(40)]
    predicates = [f"p{i}" for i in range(30)]
    facts = {_Literal(_Entity(rng.choice(names)), rng.choice(predicates),
                      _Entity(rng.choice(names))): i for i in range(300)}
    rules = [(rng.choice(predicates), rng.choice(predicates)) for _ in range(40)]
    for _ in range(2):
        new = {}
        for condition, conclusion in rules:
            for fact in list(facts):
                if fact.predicate == condition:
                    derived = _Literal(fact.subject, conclusion, fact.obj)
                    if derived not in facts:
                        new[derived] = len(facts) + len(new)
        facts.update(new)
    return json.dumps([[f.subject.name, f.predicate, f.obj.name] for f in facts])


class ScaledClock:
    """Times callables and reports each one's slowdown against the reference.

    A probe runs before the first timed call and after every timed call; a
    call's slowdown is the mean of the probes from just before it to just
    after it, so a call that encloses other timed calls averages over all of
    their probes.
    """

    def __init__(self) -> None:
        self._probes = [self.probe()]

    @staticmethod
    def probe() -> float:
        """Fastest of a few reference slices: the current speed of this core."""
        best = float("inf")
        for _ in range(PROBES):
            start = time.perf_counter()
            reference_slice()
            best = min(best, time.perf_counter() - start)
        return best

    def time(self, fn, *args, **kwargs):
        """Returns (result, wall seconds, slowdown factor); scaled = wall / factor."""
        first = len(self._probes) - 1
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        self._probes.append(self.probe())
        window = self._probes[first:]
        return result, wall, sum(window) / len(window) / REFERENCE_S
