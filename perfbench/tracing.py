"""Spans recorded from outside the program, around calls into each layer.

``bichain`` modules import layer functions by name (``from .oracle import
saturate``), so a wrapper has to replace the function under every name that
holds it: each ``bichain.*`` module attribute, the ``ENGINES`` entries and
the methods of the two classes whose calls are timed.  ``install`` finds
those names by identity and ``uninstall`` puts the originals back.

A span records its name, the module whose name it replaced (its call
site), start, end and the span that was open when it started.  The benchmark
calls the program from one thread, so one stack of open spans suffices.
Spans stay in memory; ``summarise`` turns them into per-layer counts, busy
times and self times.  A layer's self time is its span time minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

MODULE_KINDS = ("fact_identify", "fact_check", "rule_select_forward",
                "rule_select_backward", "logic_deduce", "logic_abduce",
                "confusion_check")


class Span:
    __slots__ = ("name", "site", "start", "end", "parent", "value", "children")

    def __init__(self, name: str, site: str, parent: "Span | None"):
        self.name = name
        self.site = site
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.value = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patch table that routes calls through it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    def _open(self, name: str, site: str) -> Span:
        span = Span(name, site, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def region(self, name: str):
        """A span around the benchmark's own code, such as one traced cycle."""
        span = self._open(name, "perfbench")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, site: str, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, site)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                span.value = observe(result)
            return result

        return traced

    def _patch(self, owner, attr: str, new, is_dict: bool) -> None:
        old = owner[attr] if is_dict else getattr(owner, attr)
        self._patches.append((owner, attr, old, is_dict))
        if is_dict:
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install(self, targets: list[tuple[str, object, object]], engines: dict,
                classes: dict[str, type]) -> None:
        """Route every name of every target function through a span.

        ``targets`` holds (span name, original function, observe); the
        function is replaced wherever a ``bichain`` module, the ``engines``
        dict or one of ``classes`` holds it.
        """
        modules = [(n, m) for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "bichain" or n.startswith("bichain."))]
        for name, fn, observe in targets:
            for mod_name, module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, self.wrap(name, fn, mod_name, observe), False)
            for key, value in list(engines.items()):
                if value is fn:
                    self._patch(engines, key, self.wrap(name, fn, "ENGINES", observe), True)
            for cls_name, cls in classes.items():
                for attr, value in list(vars(cls).items()):
                    if value is fn:
                        self._patch(cls, attr, self.wrap(name, fn, cls_name, observe), False)

    def uninstall(self) -> None:
        for owner, attr, old, is_dict in reversed(self._patches):
            if is_dict:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()


def summarise(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy seconds, self seconds, summed observations.

    Busy time counts only the outermost of nested same-name spans, so a
    recursive layer is not counted twice.
    """
    for span in spans:
        span.children = []
    for span in spans:
        if span.parent is not None:
            span.parent.children.append(span)
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                                "value": 0.0, "sites": defaultdict(int)})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["sites"][span.site] += 1
        if span.value is not None:
            entry["value"] += span.value
        entry["self_s"] += span.duration - sum(c.duration for c in span.children)
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            entry["busy_s"] += span.duration
    return dict(out)


def descendants_named(spans: list[Span], outer: str, inner: str) -> int:
    """Number of ``inner`` spans that have an ``outer`` span above them."""
    count = 0
    for span in spans:
        if span.name != inner:
            continue
        ancestor = span.parent
        while ancestor is not None and ancestor.name != outer:
            ancestor = ancestor.parent
        if ancestor is not None:
            count += 1
    return count
