"""Observability layer for the scrubber pipeline (``repro.obs``).

A dependency-free metrics-and-tracing substrate for the continuously
learning scrubber (paper §6.3): an operator running daily retraining and
per-minute classification needs counters, latency distributions, and
phase timings to trust verdicts. The layer has three parts:

* :mod:`repro.obs.registry` — counters, gauges, fixed-bucket histograms
  with percentile estimates, collected in a :class:`MetricRegistry`;
  a contextvar selects the *active* registry so components can own
  their metrics (``StreamingScrubber``) while library code below them
  records transparently into whichever registry is active;
* :mod:`repro.obs.spans` — nested phase timers tracing the
  ingest → bin-close → aggregate → encode → classify → retrain path;
* :mod:`repro.obs.export` — pluggable sinks: JSON-lines snapshots,
  Prometheus-style text exposition, and the human-readable rendering
  behind ``repro stats``.

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
    read_jsonl,
    snapshot,
)
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    counter,
    disable,
    enable,
    gauge,
    get_registry,
    histogram,
    is_enabled,
    use_registry,
)
from repro.obs.spans import SpanAggregate, SpanTracker, span

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLinesExporter",
    "MetricRegistry",
    "SpanAggregate",
    "SpanTracker",
    "counter",
    "disable",
    "enable",
    "format_snapshot",
    "gauge",
    "get_registry",
    "histogram",
    "is_enabled",
    "merge_snapshots",
    "names",
    "prometheus_text",
    "read_jsonl",
    "snapshot",
    "span",
    "use_registry",
]
