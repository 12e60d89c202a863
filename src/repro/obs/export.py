"""Snapshots and their renderings: JSON lines, Prometheus text, tables.

A snapshot is one JSON-serialisable dict of a registry's state: its
counters, gauges and histograms, plus a ``spans`` table that is derived
from the span histograms and the tracker's parent counts. Around it:

* :class:`JsonLinesExporter` appends one self-contained snapshot object
  per line — the right shape for log shippers and offline analysis;
* :func:`prometheus_text` renders the classic ``# TYPE`` exposition so a
  scrape endpoint (or a ``textfile`` collector) can serve the registry
  to an existing monitoring stack without adding any dependency here;
* :func:`format_snapshot` is the human-facing third sibling used by
  ``repro stats``: counters, gauges, histogram percentiles, and the
  per-phase span table in fixed-width text.

The renderers also accept an already-taken snapshot *dict* in place of
a registry, and :func:`merge_snapshots` folds several snapshots into one
— the reduction the sharded streaming engine uses to present its
coordinator plus N worker-shard registries as a single operator view.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence, Union

from repro.obs.registry import Counter, Gauge, Histogram, MetricRegistry

__all__ = [
    "snapshot",
    "merge_snapshots",
    "JsonLinesExporter",
    "prometheus_text",
    "format_snapshot",
]

#: Either a live registry or a dict previously produced by :func:`snapshot`.
SnapshotSource = Union[MetricRegistry, dict]


def _assemble(counters, gauges, histograms, parents: dict) -> dict:
    """A snapshot dict; one ``spans`` entry per span histogram."""
    by_name = {h["name"]: h for h in histograms}
    spans = []
    for name, counts in parents.items():
        h = by_name[name]
        spans.append({
            "name": name,
            "count": h["count"],
            "total_seconds": h["sum"],
            "min_seconds": h["min"],
            "max_seconds": h["max"],
            "mean_seconds": h["sum"] / h["count"],
            "parents": counts,
        })
    spans.sort(key=lambda s: (-s["total_seconds"], s["name"]))
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "spans": spans,
    }


def snapshot(registry: MetricRegistry) -> dict:
    """One JSON-serialisable dict of the registry's entire state."""
    parents = registry.spans.parents()  # before the instruments; see SpanTracker
    kinds = {Counter: [], Gauge: [], Histogram: []}
    for metric in registry.metrics():
        kinds[type(metric)].append(metric.as_dict())
    return _assemble(kinds[Counter], kinds[Gauge], kinds[Histogram], parents)


def _as_snapshot(source: SnapshotSource) -> dict:
    return source if isinstance(source, dict) else snapshot(source)


def merge_snapshots(sources: Sequence[SnapshotSource]) -> dict:
    """Fold several snapshots (or registries) into one snapshot dict.

    Counters and gauges with the same name sum; histograms merge
    bucket-wise (every histogram shares :data:`~repro.obs.registry.BUCKETS`)
    with percentiles re-estimated from the merged buckets; span parent
    counts sum, and the span table is derived from the merged
    histograms. This is how per-shard registries roll up into the
    single operator snapshot of ``repro stream``.
    """
    counters: dict[str, dict] = {}
    gauges: dict[str, dict] = {}
    histograms: dict[str, Histogram] = {}
    parents: dict[str, dict[str, int]] = {}
    for source in sources:
        snap = _as_snapshot(source)
        for merged, entries in ((counters, snap["counters"]), (gauges, snap["gauges"])):
            for entry in entries:
                if entry["name"] in merged:
                    merged[entry["name"]]["value"] += entry["value"]
                else:
                    merged[entry["name"]] = dict(entry)
        for entry in snap["histograms"]:
            name = entry["name"]
            histograms.setdefault(name, Histogram(name)).absorb(entry)
        for entry in snap["spans"]:
            counts = parents.setdefault(entry["name"], {})
            for parent, n in entry["parents"].items():
                counts[parent] = counts.get(parent, 0) + n
    return _assemble(
        [counters[k] for k in sorted(counters)],
        [gauges[k] for k in sorted(gauges)],
        [histograms[k].as_dict() for k in sorted(histograms)],
        parents,
    )


class JsonLinesExporter:
    """Append registry snapshots to a ``.jsonl`` file, one per call."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)

    def export(self, registry: MetricRegistry, **extra: object) -> dict:
        """Write one snapshot line (plus ``extra`` top-level fields)."""
        record = dict(extra)
        record.update(snapshot(registry))
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        return record


# ----------------------------------------------------------------------
# Prometheus-style text exposition
# ----------------------------------------------------------------------
def _prom_name(name: str) -> str:
    sanitized = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _fmt(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def prometheus_text(source: SnapshotSource) -> str:
    """Render a registry or snapshot dict in Prometheus text format."""
    snap = _as_snapshot(source)
    entries = sorted(
        ((entry["name"], kind, entry)
         for kind in ("counters", "gauges", "histograms")
         for entry in snap[kind]),
        key=lambda item: item[0],
    )
    lines: list[str] = []
    for name, kind, entry in entries:
        base = _prom_name(name)
        if kind == "counters":
            lines.append(f"# TYPE {base}_total counter")
            lines.append(f"{base}_total {_fmt(entry['value'])}")
        elif kind == "gauges":
            lines.append(f"# TYPE {base} gauge")
            lines.append(f"{base} {_fmt(entry['value'])}")
        else:
            lines.append(f"# TYPE {base} histogram")
            for edge in sorted(float(k) for k in entry["buckets"]):
                cumulative = entry["buckets"][str(edge)]
                lines.append(f'{base}_bucket{{le="{_fmt(edge)}"}} {cumulative}')
            lines.append(f"{base}_sum {_fmt(entry['sum'])}")
            lines.append(f"{base}_count {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Human-readable snapshot (the `repro stats` output)
# ----------------------------------------------------------------------
def format_snapshot(source: SnapshotSource) -> str:
    """Fixed-width text rendering: counters, gauges, histograms, spans."""
    snap = _as_snapshot(source)
    lines: list[str] = []

    if snap["counters"]:
        lines.append("== counters ==")
        for c in snap["counters"]:
            lines.append(f"  {c['name']:<42s} {c['value']:>14.0f}")
    if snap["gauges"]:
        lines.append("== gauges ==")
        for g in snap["gauges"]:
            lines.append(f"  {g['name']:<42s} {g['value']:>14.2f}")

    span_names = {s["name"] for s in snap["spans"]}
    plain_hists = [h for h in snap["histograms"] if h["name"] not in span_names]
    if plain_hists:
        lines.append("== histograms ==")
        for h in plain_hists:
            lines.append(
                f"  {h['name']:<42s} n={h['count']:<8d} "
                f"p50={h['p50']:.4g} p90={h['p90']:.4g} p99={h['p99']:.4g}"
            )

    if snap["spans"]:
        lines.append("== spans (per phase) ==")
        lines.append(
            f"  {'phase':<28s} {'count':>7s} {'total_s':>10s} "
            f"{'mean_s':>10s} {'p90_s':>10s} {'max_s':>10s}"
        )
        p90 = {h["name"]: h["p90"] for h in snap["histograms"]}
        for s in snap["spans"]:
            lines.append(
                f"  {s['name']:<28s} {s['count']:>7d} {s['total_seconds']:>10.3f} "
                f"{s['mean_seconds']:>10.4f} {p90[s['name']]:>10.4f} {s['max_seconds']:>10.4f}"
            )
    return "\n".join(lines)
