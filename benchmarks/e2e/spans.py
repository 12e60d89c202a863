"""Span recorder for the traced lap.

The recorder lives in the benchmark, not in the program: for one lap it
replaces a declared table of public callables with timing wrappers and
restores them afterwards. Each call becomes one span
``(name, start, end, parent, tick, n_in, n_out)`` kept in memory;
``n_in``/``n_out`` are the work counts taken at the same boundary
(flows in, records out, ...). A span's *self time* is its duration minus
the part its children cover, so self times add up to the root spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

#: ``count(args, kwargs, result) -> (n_in, n_out)`` for one wrapped call.
CountFn = Callable[[tuple, dict, object], tuple[int, int]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    tick: int
    n_in: int = 0
    n_out: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` + dotted ``attr`` path inside it."""

    module: str
    attr: str  # "function" or "Class.method"
    span: str
    count: Optional[CountFn] = None


class SpanRecorder:
    """Records nested spans of wrapped callables on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: list[Span] = []
        self.tick = -1
        #: Time spent inside the wrappers but outside the wrapped calls.
        self.overhead_seconds = 0.0
        self._clock = clock
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, count: Optional[CountFn] = None) -> Callable:
        def traced(*args, **kwargs):
            entered = self._clock()
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.tick)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self._clock()
                self._stack.pop()
            if count is not None:
                span.n_in, span.n_out = count(args, kwargs, result)
            self.overhead_seconds += span.start - entered + self._clock() - span.end
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]) -> Iterator["SpanRecorder"]:
        """Wrap every target for the duration of the block, then restore."""
        undo: list[tuple[object, str, object, bool]] = []
        try:
            for target in targets:
                owner = importlib.import_module(target.module)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                own = attr in vars(owner)
                raw = vars(owner)[attr] if own else getattr(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(raw.__func__, target.span, target.count))
                else:
                    wrapped = self.wrap(raw, target.span, target.count)
                undo.append((owner, attr, raw, own))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw, own in reversed(undo):
                if own:
                    setattr(owner, attr, raw)
                else:  # was inherited: remove the override we added
                    delattr(owner, attr)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and the
    children's coverage is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out

