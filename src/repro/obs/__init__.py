"""Observability layer for the scrubber pipeline (``repro.obs``).

A dependency-free metrics-and-tracing substrate for the continuously
learning scrubber (paper §6.3): an operator running daily retraining and
per-minute classification needs counters, latency distributions, and
phase timings to trust verdicts. The layer has three parts:

* :mod:`repro.obs.registry` — counters, gauges and fixed-bucket
  histograms with percentile estimates, keyed by name in a
  :class:`MetricRegistry`; a contextvar selects the *active* registry
  so components can own their metrics (``StreamingScrubber``) while
  library code below them records transparently into whichever
  registry is active;
* :mod:`repro.obs.spans` — nested phase timers tracing the
  ingest → bin-close → aggregate → encode → classify → retrain path;
  a span is one histogram observation plus one parent count;
* :mod:`repro.obs.export` — snapshots and their renderings: JSON
  lines, Prometheus-style text exposition, and the human-readable
  table behind ``repro stats``.

Every emitted name lives in :mod:`repro.obs.names` and is documented in
``docs/METRICS.md`` (enforced by ``tests/test_docs_lint.py``). A global
:func:`disable` switch turns all instrumentation into no-ops; the
benchmark ``benchmarks/test_bench_obs_overhead.py`` keeps the enabled
cost under 5 % on the core-ops path.

Quick tour::

    from repro import obs
    from repro.obs import names

    reg = obs.MetricRegistry()
    with obs.use_registry(reg):
        with obs.span(names.SPAN_STREAMING_INGEST):
            obs.counter(names.C_STREAMING_FLOWS_INGESTED).inc(1024)
    print(obs.format_snapshot(reg))
"""

from repro.obs import names
from repro.obs.export import (
    JsonLinesExporter,
    format_snapshot,
    merge_snapshots,
    prometheus_text,
    snapshot,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    is_enabled,
    span,
    use_registry,
)
from repro.obs.spans import SpanTracker

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesExporter",
    "MetricRegistry",
    "SpanTracker",
    "counter",
    "disable",
    "enable",
    "format_snapshot",
    "gauge",
    "get_registry",
    "is_enabled",
    "merge_snapshots",
    "names",
    "prometheus_text",
    "snapshot",
    "span",
    "use_registry",
]
