"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the in-process store behind every number the pipeline
emits. Three instrument types cover the needs of the scrubber's
operating mode (per-minute classification, daily retraining):

* :class:`Counter` — monotonically increasing event counts
  (flows ingested, bins closed, retrainings);
* :class:`Gauge` — point-in-time levels that move both ways
  (open bins, training-set size);
* :class:`Histogram` — distributions over the fixed :data:`BUCKETS`
  with percentile estimates; every span records its seconds into one.

Instruments are keyed by name and created lazily on first use, so
instrumented code never has to pre-declare anything::

    from repro import obs

    obs.get_registry().counter("streaming.flows_ingested").inc(128)

Which registry is "active" is a :mod:`contextvars` decision — see
:func:`get_registry` / :func:`use_registry`. A process-wide kill switch
(:func:`disable`) turns every instrument call into a no-op for
overhead-sensitive runs; ``benchmarks/test_bench_obs_overhead.py``
guards the cost of leaving it on.

Everything here is plain stdlib + threading.Lock; no third-party
dependency and no background threads.
"""

from __future__ import annotations

import bisect
import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.obs.spans import SpanTracker

__all__ = [
    "BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "get_registry",
    "use_registry",
    "enable",
    "disable",
    "is_enabled",
    "counter",
    "gauge",
    "span",
]

#: Histogram bucket upper edges, in seconds — tuned for span durations
#: from sub-millisecond numpy ops up to multi-minute retrains. Every
#: histogram uses them, so snapshots from any registry merge bucket-wise.
BUCKETS: tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
    120.0,
    300.0,
)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Increase the counter. ``amount`` must be >= 0 (monotonicity)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"name": self.name, "type": "counter", "value": self._value}


class Gauge:
    """A level that can go up and down (open bins, buffer sizes)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def as_dict(self) -> dict:
        return {"name": self.name, "type": "gauge", "value": self._value}


class Histogram:
    """Histogram over :data:`BUCKETS` with percentile estimation.

    Buckets are defined by their upper edges (inclusive), with an
    implicit final ``+Inf`` bucket. Percentiles are estimated by linear
    interpolation inside the bucket containing the requested rank —
    the standard Prometheus ``histogram_quantile`` approach, so the
    estimate is exact at bucket edges and conservative in between.
    """

    __slots__ = ("name", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._counts = [0] * (len(BUCKETS) + 1)  # +1 for the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        slot = bisect.bisect_left(BUCKETS, value)
        with self._lock:
            self._counts[slot] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def absorb(self, entry: dict) -> None:
        """Add the observations of another histogram's snapshot entry."""
        if not entry["count"]:
            return
        cumulative = [entry["buckets"][str(edge)] for edge in (*BUCKETS, math.inf)]
        with self._lock:
            previous = 0
            for slot, running in enumerate(cumulative):
                self._counts[slot] += running - previous
                previous = running
            self._count += entry["count"]
            self._sum += entry["sum"]
            self._min = min(self._min, entry["min"])
            self._max = max(self._max, entry["max"])

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else float("nan")

    @property
    def min(self) -> float:
        return self._min if self._count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self._count else float("nan")

    def bucket_counts(self) -> dict[float, int]:
        """Cumulative counts per upper edge (Prometheus ``le`` style)."""
        out: dict[float, int] = {}
        running = 0
        for edge, c in zip((*BUCKETS, math.inf), self._counts):
            running += c
            out[edge] = running
        return out

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            return float("nan")
        rank = (q / 100.0) * self._count
        running = 0.0
        prev_edge = 0.0
        for edge, c in zip(BUCKETS, self._counts):
            if c:
                if running + c >= rank:
                    # Linear interpolation within this bucket, clamped to
                    # the observed extremes so estimates never leave the
                    # data's actual range.
                    frac = (rank - running) / c
                    est = prev_edge + frac * (edge - prev_edge)
                    return float(min(max(est, self._min), self._max))
                running += c
            prev_edge = edge
        # Landed in the +Inf bucket: the best point estimate is the max.
        return float(self._max)

    def as_dict(self) -> dict:
        observed = self._count > 0
        return {
            "name": self.name,
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min if observed else None,
            "max": self._max if observed else None,
            "buckets": {str(k): v for k, v in self.bucket_counts().items()},
            "p50": self.percentile(50) if observed else None,
            "p90": self.percentile(90) if observed else None,
            "p99": self.percentile(99) if observed else None,
        }


class MetricRegistry:
    """Lazily creates and stores instruments keyed by name."""

    def __init__(self) -> None:
        self._metrics: dict[str, object] = {}
        self._lock = threading.Lock()
        self.spans = SpanTracker(self)

    def _get_or_create(self, cls, name: str):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = self._metrics[name] = cls(name)
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(Histogram, name)

    def metrics(self) -> list:
        """All registered instruments, sorted by name."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def get(self, name: str):
        """Look up an instrument without creating it (None if absent)."""
        return self._metrics.get(name)


# ----------------------------------------------------------------------
# Active-registry plumbing
# ----------------------------------------------------------------------
#: Process-wide kill switch; when False every instrumentation helper in
#: :mod:`repro.obs` short-circuits to a no-op.
_enabled = True

_default_registry = MetricRegistry()
_active_registry: ContextVar[Optional[MetricRegistry]] = ContextVar(
    "repro_obs_registry", default=None
)


def get_registry() -> MetricRegistry:
    """The active registry: context-local if set, else the process default.

    Components that own their metrics (e.g. ``StreamingScrubber``)
    activate a private registry with :func:`use_registry` around their
    work; library code lower in the stack then records into it without
    having to thread a registry argument through every call.
    """
    reg = _active_registry.get()
    return reg if reg is not None else _default_registry


@contextmanager
def use_registry(registry: MetricRegistry) -> Iterator[MetricRegistry]:
    """Make ``registry`` the active one within the ``with`` block."""
    token = _active_registry.set(registry)
    try:
        yield registry
    finally:
        _active_registry.reset(token)


def enable() -> None:
    """Turn instrumentation on (the default)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn every obs helper into a no-op (overhead-sensitive runs)."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


# ----------------------------------------------------------------------
# Null instrument + convenience accessors on the active registry
# ----------------------------------------------------------------------
class _NullInstrument:
    """Shared no-op stand-in returned while instrumentation is disabled."""

    __slots__ = ()
    name = "<disabled>"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


_NULL = _NullInstrument()


def counter(name: str):
    """Counter on the active registry (no-op instrument when disabled)."""
    if not _enabled:
        return _NULL
    return get_registry().counter(name)


def gauge(name: str):
    """Gauge on the active registry (no-op instrument when disabled)."""
    if not _enabled:
        return _NULL
    return get_registry().gauge(name)


@contextmanager
def span(name: str) -> Iterator[None]:
    """Time a phase against the *active* registry (no-op when disabled)."""
    if not _enabled:
        yield
        return
    with get_registry().spans.span(name):
        yield
