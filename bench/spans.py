"""Layer spans recorded from outside the program.

A traced run replaces each layer function, at every name under which a
caller looks it up, with a wrapper that records a span.  A span's self time
is its duration minus the durations of the spans it directly contains, so
the self times of all spans inside a root span, plus the root's own self
time, add up to the root's duration.  Spans are aggregated in memory per
name: self time, call count and the list of durations.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()

    def _record(self, name: str, duration: float, children: float) -> None:
        self.self_s[name] += duration - children
        self.calls[name] += 1
        self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][0] += duration

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self._stack.pop()
            self._record(name, duration, frame[0])

    def wrap(self, name: str, fn, count=None):
        """fn wrapped in a span; count(counts, args) runs before each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(self.counts, args)
            return self.run(name, fn, *args, **kwargs)

        return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, layers: dict, package: str):
    """Install wrappers for a set of layers for the duration of the block.

    ``layers`` maps a span name to (owner, attribute, count): the module or
    class that defines the function and an optional counter callback.  The
    wrapper replaces the function on its owner and in every module under
    ``package`` that binds the same object, so calls through an imported
    name are traced as well.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == package]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, (owner, attr, count) in layers.items():
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, count)
            targets = [owner] + [
                m for m in modules if m is not owner and vars(m).get(attr) is original
            ]
            for target in targets:
                undo.append((target, attr, original))
                setattr(target, attr, wrapper)
        yield tracer
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)
