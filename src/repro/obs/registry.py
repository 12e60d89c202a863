"""Dependency-free metrics registry: counters, gauges, histograms.

The registry is the in-process store behind every number the pipeline
emits. Three instrument types cover the needs of the scrubber's
operating mode (per-minute classification, daily retraining):

* :class:`Counter` — monotonically increasing event counts
  (flows ingested, bins closed, retrainings);
* :class:`Gauge` — point-in-time levels that move both ways
  (open bins, training-set size);
* :class:`Histogram` — fixed-bucket distributions with percentile
  estimates (span durations, batch sizes).

Instruments are keyed by ``(name, labels)`` and created lazily on first
use, so instrumented code never has to pre-declare anything::

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

import math
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "DEFAULT_BUCKETS",
    "LabelSet",
    "get_registry",
    "use_registry",
    "enable",
    "disable",
    "is_enabled",
    "counter",
    "gauge",
    "histogram",
]

#: Canonical label representation: a sorted tuple of (key, value) pairs.
LabelSet = tuple[tuple[str, str], ...]

#: Default histogram bucket upper edges, in seconds — tuned for span
#: durations from sub-millisecond numpy ops up to multi-minute retrains.
DEFAULT_BUCKETS: tuple[float, ...] = (
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


def _labelset(labels: Optional[Mapping[str, str]]) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
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
        return {
            "name": self.name,
            "type": "counter",
            "labels": dict(self.labels),
            "value": self._value,
        }


class Gauge:
    """A level that can go up and down (open bins, buffer sizes)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: LabelSet = ()):
        self.name = name
        self.labels = labels
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
        return {
            "name": self.name,
            "type": "gauge",
            "labels": dict(self.labels),
            "value": self._value,
        }


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    Buckets are defined by their upper edges (inclusive), with an
    implicit final ``+Inf`` bucket. Percentiles are estimated by linear
    interpolation inside the bucket containing the requested rank —
    the standard Prometheus ``histogram_quantile`` approach, so the
    estimate is exact at bucket edges and conservative in between.
    """

    __slots__ = ("name", "labels", "buckets", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelSet = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if list(edges) != sorted(edges):
            raise ValueError("bucket edges must be sorted ascending")
        if len(set(edges)) != len(edges):
            raise ValueError("bucket edges must be distinct")
        self.name = name
        self.labels = labels
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # +1 for the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        # Binary search over the (short, fixed) edge list.
        lo, hi = 0, len(self.buckets)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

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
        for edge, c in zip(self.buckets, self._counts[:-1]):
            running += c
            out[edge] = running
        out[math.inf] = running + self._counts[-1]
        return out

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            return float("nan")
        rank = (q / 100.0) * self._count
        running = 0.0
        prev_edge = 0.0 if self.buckets[0] > 0 else self.buckets[0]
        for edge, c in zip(self.buckets, self._counts[:-1]):
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
        return {
            "name": self.name,
            "type": "histogram",
            "labels": dict(self.labels),
            "count": self._count,
            "sum": self._sum,
            "min": self.min if self._count else None,
            "max": self.max if self._count else None,
            "buckets": {str(k): v for k, v in self.bucket_counts().items()},
            "p50": self.percentile(50) if self._count else None,
            "p90": self.percentile(90) if self._count else None,
            "p99": self.percentile(99) if self._count else None,
        }


class MetricRegistry:
    """Lazily creates and stores instruments keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, LabelSet], object] = {}
        self._lock = threading.Lock()
        # Imported lazily to avoid a module cycle (spans needs registry).
        from repro.obs.spans import SpanTracker

        self.spans = SpanTracker(self)

    # -- instrument accessors ------------------------------------------
    def _get_or_create(self, cls, name: str, labels: Optional[Mapping[str, str]], **kwargs):
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(key)
                if metric is None:
                    metric = cls(name, key[1], **kwargs)
                    self._metrics[key] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, labels: Optional[Mapping[str, str]] = None) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, labels, buckets=buckets)

    # -- inspection ----------------------------------------------------
    def metrics(self) -> list:
        """All registered instruments, sorted by (name, labels)."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def get(self, name: str, labels: Optional[Mapping[str, str]] = None):
        """Look up an instrument without creating it (None if absent)."""
        return self._metrics.get((name, _labelset(labels)))

    def names(self) -> set[str]:
        return {name for name, _ in self._metrics}

    def reset(self) -> None:
        """Drop all instruments and span state (tests, CLI reruns)."""
        with self._lock:
            self._metrics.clear()
        self.spans.reset()

    def __len__(self) -> int:
        return len(self._metrics)


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
# Null instruments + convenience accessors
# ----------------------------------------------------------------------
class _NullInstrument:
    """Shared no-op stand-in returned while instrumentation is disabled."""

    __slots__ = ()
    name = "<disabled>"
    labels: LabelSet = ()
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


def counter(name: str, labels: Optional[Mapping[str, str]] = None):
    """Counter on the active registry (no-op instrument when disabled)."""
    if not _enabled:
        return _NULL
    return get_registry().counter(name, labels)


def gauge(name: str, labels: Optional[Mapping[str, str]] = None):
    """Gauge on the active registry (no-op instrument when disabled)."""
    if not _enabled:
        return _NULL
    return get_registry().gauge(name, labels)


def histogram(
    name: str,
    labels: Optional[Mapping[str, str]] = None,
    buckets: Sequence[float] = DEFAULT_BUCKETS,
):
    """Histogram on the active registry (no-op instrument when disabled)."""
    if not _enabled:
        return _NULL
    return get_registry().histogram(name, labels, buckets=buckets)
