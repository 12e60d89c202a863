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

A completed span records two facts on its registry: one observation
(seconds) in the :class:`~repro.obs.registry.Histogram` under the span's
own name, and one count under its parent's name on the tracker. The
snapshot's per-phase table is derived from exactly those two.

Timing uses ``time.perf_counter`` (monotonic); the clock is injectable
for deterministic tests. The span stack is thread-local, so concurrent
drivers do not corrupt each other's nesting.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["SpanTracker"]


class SpanTracker:
    """Per-registry span state: thread-local stacks + parent counts."""

    def __init__(self, registry, clock: Callable[[], float] = time.perf_counter):
        self._registry = registry
        self._clock = clock
        self._local = threading.local()
        #: Completed-span count per span name, per parent name ("" = root).
        self._parents: dict[str, dict[str, int]] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

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
            # The histogram first: a snapshot reads the parent counts
            # before the instruments, so every span it lists has one.
            self._registry.histogram(name).observe(duration)
            with self._lock:
                counts = self._parents.setdefault(name, {})
                counts[parent] = counts.get(parent, 0) + 1

    def parents(self) -> dict[str, dict[str, int]]:
        """Per span name, the completed-span count under each parent."""
        with self._lock:
            return {name: dict(counts) for name, counts in self._parents.items()}
