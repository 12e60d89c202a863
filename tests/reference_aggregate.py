"""The per-record loop the aggregation kernel must equal bit for bit.

This is the first implementation of paper §5.2.1 / Fig. 7: group flows
by (bin, target), then rank every categorical by every metric one record
at a time. It is slow (≈ 15 ms per 1000 flows) and lives in the test
tree as the oracle for ``repro.core.features.aggregation.aggregate``;
rule tags come from the definitional ``match_matrix``.
:func:`assert_bitwise_equal` is the comparison every oracle test makes.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from repro.core.rules.matcher import match_matrix
from repro.core.rules.model import TaggingRule
from repro.netflow.dataset import FlowDataset


def restricted(data: AggregatedDataset, columns: Sequence[str]) -> AggregatedDataset:
    """``data`` holding only the feature ``columns`` (in schema order)."""
    return AggregatedDataset(
        bins=data.bins, targets=data.targets, labels=data.labels,
        categorical={k: v for k, v in data.categorical.items() if k in columns},
        metrics={k: v for k, v in data.metrics.items() if k in columns},
        n_flows=data.n_flows, rule_tags=data.rule_tags,
    )


def assert_bitwise_equal(
    a: AggregatedDataset,
    b: AggregatedDataset,
    label,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Bit equality: same dtypes, same bytes (so NaN == NaN, 0.0 != -0.0).

    Both must hold exactly the feature ``columns``, in schema order (all
    150 when ``None``)."""
    for name in ("bins", "targets", "labels", "n_flows"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), f"{label}: {name} differ"
    assert a.rule_tags == b.rule_tags, f"{label}: rule tags differ"
    keys, values = schema.key_columns(), schema.value_columns()
    if columns is not None:
        keys = [name for name in keys if name in columns]
        values = [name for name in values if name in columns]
    assert list(a.categorical) == list(b.categorical) == keys, f"{label}: key columns differ"
    assert list(a.metrics) == list(b.metrics) == values, f"{label}: value columns differ"
    for mapping_a, mapping_b in ((a.categorical, b.categorical), (a.metrics, b.metrics)):
        for name, x in mapping_a.items():
            y = mapping_b[name]
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (
                f"{label}: column {name} differs"
            )


def _rank_group(
    keys: np.ndarray,
    bytes_: np.ndarray,
    packets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Aggregate one categorical within one record.

    Returns (unique keys, per-key bytes, per-key packets, per-key mean
    packet size). The mean packet size per key is byte-weighted
    (total bytes / total packets), which is what a flow exporter's
    counters support.
    """
    unique, inverse = np.unique(keys, return_inverse=True)
    key_bytes = np.bincount(inverse, weights=bytes_)
    key_packets = np.bincount(inverse, weights=packets)
    with np.errstate(divide="ignore", invalid="ignore"):
        key_size = np.where(key_packets > 0, key_bytes / key_packets, 0.0)
    return unique, key_bytes, key_packets, key_size


def reference_aggregate(
    flows: FlowDataset,
    rules: Sequence[TaggingRule] = (),
) -> AggregatedDataset:
    n = len(flows)
    if n == 0:
        raise ValueError("cannot aggregate an empty flow dataset")

    bins = flows.time_bin()
    dst = flows.dst_ip

    # Group by (bin, target): sort once, then slice per group.
    order = np.lexsort((dst, bins))
    bins_s = bins[order]
    dst_s = dst[order]
    boundaries = np.flatnonzero((np.diff(bins_s) != 0) | (np.diff(dst_s) != 0)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [n]])
    n_groups = starts.shape[0]

    cat_values = {
        "src_ip": flows.src_ip[order].astype(np.int64),
        "src_port": flows.src_port[order].astype(np.int64),
        "dst_port": flows.dst_port[order].astype(np.int64),
        "src_mac": flows.src_mac[order].astype(np.int64),
        "protocol": flows.protocol[order].astype(np.int64),
    }
    f_bytes = flows.bytes[order].astype(np.float64)
    f_packets = flows.packets[order].astype(np.float64)
    labels_s = flows.blackhole[order]

    rule_matrix = None
    rule_ids: list[str] = []
    if rules:
        rule_matrix = match_matrix(rules, flows)[order]
        rule_ids = [r.rule_id for r in rules]

    r = schema.RANKS
    categorical = {
        name: np.full(n_groups, schema.MISSING_KEY, dtype=np.int64)
        for name in schema.key_columns()
    }
    metrics = {
        name: np.full(n_groups, np.nan, dtype=np.float64)
        for name in schema.value_columns()
    }
    out_bins = np.empty(n_groups, dtype=np.int64)
    out_targets = np.empty(n_groups, dtype=np.uint32)
    out_labels = np.empty(n_groups, dtype=bool)
    out_nflows = np.empty(n_groups, dtype=np.int64)
    out_tags: Optional[list[tuple[str, ...]]] = [] if rules else None

    metric_arrays = {}
    for g in range(n_groups):
        lo, hi = int(starts[g]), int(ends[g])
        out_bins[g] = bins_s[lo]
        out_targets[g] = dst_s[lo]
        out_labels[g] = bool(labels_s[lo:hi].any())
        out_nflows[g] = hi - lo
        if out_tags is not None:
            hit = rule_matrix[lo:hi].any(axis=0)
            out_tags.append(tuple(rule_ids[k] for k in np.flatnonzero(hit)))

        g_bytes = f_bytes[lo:hi]
        g_packets = f_packets[lo:hi]
        for cat in schema.CATEGORICALS:
            unique, key_bytes, key_packets, key_size = _rank_group(
                cat_values[cat][lo:hi], g_bytes, g_packets
            )
            metric_arrays["bytes"] = key_bytes
            metric_arrays["packets"] = key_packets
            metric_arrays["packet_size"] = key_size
            for metric in schema.METRICS:
                values = metric_arrays[metric]
                top = np.argsort(values, kind="stable")[::-1][:r]
                for rank, idx in enumerate(top):
                    categorical[schema.key_column(cat, metric, rank)][g] = unique[idx]
                    metrics[schema.value_column(cat, metric, rank)][g] = values[idx]

    return AggregatedDataset(
        bins=out_bins,
        targets=out_targets,
        labels=out_labels,
        categorical=categorical,
        metrics=metrics,
        n_flows=out_nflows,
        rule_tags=out_tags,
    )
