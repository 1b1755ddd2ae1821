"""Span recording for the traced pass, and the arithmetic over spans.

:class:`Recorder` keeps spans in memory: name, start, end, parent and
an op id (the design or job the span worked for).  It has the
``span(name, cat, **args)`` surface of :class:`repro.obs.trace.Tracer`,
so installing it with :func:`repro.obs.trace.use_tracer` also collects
the ``compile.*`` and ``machine.*`` spans the library already emits.
Unlike ``Tracer`` it keeps one open-span stack per thread, because the
server compiles and leases workers on ``asyncio.to_thread`` threads.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index into Recorder.spans, -1 for roots
    op: str | None = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Thread-safe in-memory span list with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, cat: str = "", op: str | None = None,
             **args):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent].op
        s = Span(name, time.perf_counter(), parent=parent, op=op,
                 args=dict(args))
        with self._lock:
            idx = len(self.spans)
            self.spans.append(s)
        stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float,
            op: str | None = None, **args) -> Span:
        """Record an already finished root span."""
        s = Span(name, start, end, op=op, args=dict(args))
        with self._lock:
            self.spans.append(s)
        return s

    # -- arithmetic ----------------------------------------------------
    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: a span's duration minus the
        part its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + s.duration - child[i]
        return out

    def covered(self, start: float, end: float) -> float:
        """Length of [start, end] covered by at least one span."""
        intervals = sorted((max(s.start, start), min(s.end, end))
                           for s in self.spans)
        covered, reach = 0.0, start
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi <= lo:
                continue
            covered += hi - lo
            reach = hi
        return covered

    def root_of(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def per_root(self, root_name: str) -> dict[int, dict[str, float]]:
        """Summed duration per span name inside each ``root_name`` root."""
        out: dict[int, dict[str, float]] = {
            i: {} for i, s in enumerate(self.spans) if s.name == root_name}
        for i, s in enumerate(self.spans):
            root = self.root_of(i)
            if root in out:
                out[root][s.name] = out[root].get(s.name, 0.0) + s.duration
        return out


class NullRecorder:
    """The untraced pass: every span is a no-op."""

    def span(self, name: str, cat: str = "", op: str | None = None,
             **args):
        return nullcontext()

    def add(self, name: str, start: float, end: float,
            op: str | None = None, **args) -> None:
        pass


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1) of ``samples``,
    0.0 when there are none."""
    if not samples:
        return 0.0
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac
