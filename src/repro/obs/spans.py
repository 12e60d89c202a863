"""Lightweight span timers for tracing pipeline phases.

A *span* measures one timed phase of the pipeline — ``streaming.ingest``,
``scrubber.fit``, ``rules.mine`` — with support for nesting: spans opened
while another span is active record their parent, so the ingest →
bin-close → aggregate → WoE-encode → classify → retrain path shows up as
a tree rather than a flat list.

Usage::

    from repro import obs

    with obs.span(names.SPAN_STREAMING_INGEST):
        ...                       # nested spans attribute to this parent

Every completed span feeds two sinks on its registry:

* a :class:`~repro.obs.registry.Histogram` under the span's own name
  (seconds; percentiles, bucket counts), and
* a per-name :class:`SpanAggregate` on the tracker (count, total,
  min/max, parent breakdown) for the CLI's phase table.

Timing uses ``time.perf_counter`` (monotonic); the clock is injectable
for deterministic tests. The span stack is thread-local, so concurrent
drivers do not corrupt each other's nesting.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = ["SpanAggregate", "SpanTracker", "span"]


@dataclass
class SpanAggregate:
    """Accumulated timing of all completed spans with one name."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = 0.0
    #: Completed-span count per parent span name ("" = root).
    parents: dict[str, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    def record(self, duration: float, parent: str) -> None:
        self.count += 1
        self.total += duration
        if duration < self.min:
            self.min = duration
        if duration > self.max:
            self.max = duration
        self.parents[parent] = self.parents.get(parent, 0) + 1

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min if self.count else None,
            "max_seconds": self.max if self.count else None,
            "mean_seconds": self.mean if self.count else None,
            "parents": dict(self.parents),
        }


class SpanTracker:
    """Per-registry span state: thread-local stacks + per-name aggregates."""

    def __init__(self, registry, clock: Callable[[], float] = time.perf_counter):
        self._registry = registry
        self._clock = clock
        self._local = threading.local()
        self._aggregates: dict[str, SpanAggregate] = {}
        self._lock = threading.Lock()

    # -- stack ---------------------------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[str]:
        """Name of the innermost active span (None outside any span)."""
        stack = self._stack()
        return stack[-1] if stack else None

    def depth(self) -> int:
        return len(self._stack())

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a phase; nested calls record their parent."""
        stack = self._stack()
        parent = stack[-1] if stack else ""
        stack.append(name)
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            stack.pop()
            if duration < 0:  # non-monotonic injected clock: clamp
                duration = 0.0
            with self._lock:
                agg = self._aggregates.get(name)
                if agg is None:
                    agg = self._aggregates[name] = SpanAggregate(name)
                agg.record(duration, parent)
            self._registry.histogram(name).observe(duration)

    # -- inspection ----------------------------------------------------
    def stats(self) -> dict[str, SpanAggregate]:
        """Per-name aggregates, sorted by total time descending."""
        with self._lock:
            items = sorted(
                self._aggregates.values(), key=lambda a: -a.total
            )
        return {a.name: a for a in items}

    def names(self) -> set[str]:
        return set(self._aggregates)

    def reset(self) -> None:
        with self._lock:
            self._aggregates.clear()
        self._local = threading.local()


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a phase against the *active* registry (no-op when disabled)."""
    from repro.obs import registry as _registry

    if not _registry.is_enabled():
        yield
        return
    with _registry.get_registry().spans.span(name):
        yield
