"""Flow -> per-target record aggregation (paper §5.2.1, Fig. 7).

Flows are grouped by (one-minute bin, target IP). Within each group,
every categorical property is ranked by every metric; the top-``RANKS``
keys and their metric values become the record's features. A record is
labeled blackhole when any of its flows carries the blackhole label.
Matched tagging rules are carried through aggregation as annotations
(they explain classifications later and feed the RBC baseline — they are
*not* classifier features, which would leak the label construction).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.features import schema
from repro.obs import names as metric_names
from repro.core.rules.matcher import CompiledMatcher
from repro.core.rules.model import TaggingRule
from repro.netflow.dataset import FlowDataset
from repro.netflow.grouping import stable_argsort


@dataclass
class AggregatedDataset:
    """Per-(bin, target IP) records with rank features.

    ``categorical`` maps key-column names to int64 arrays
    (``schema.MISSING_KEY`` marks absent ranks); ``metrics`` maps
    value-column names to float64 arrays (NaN marks absent ranks).
    """

    bins: np.ndarray
    targets: np.ndarray
    labels: np.ndarray
    categorical: dict[str, np.ndarray]
    metrics: dict[str, np.ndarray]
    n_flows: np.ndarray
    #: Per-record tuple of tagging-rule ids matched by any flow.
    rule_tags: Optional[list[tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        n = self.bins.shape[0]
        for name, arr in [("targets", self.targets), ("labels", self.labels), ("n_flows", self.n_flows)]:
            if arr.shape[0] != n:
                raise ValueError(f"column {name} length mismatch")
        for mapping in (self.categorical, self.metrics):
            for name, arr in mapping.items():
                if arr.shape[0] != n:
                    raise ValueError(f"column {name} length mismatch")
        if self.rule_tags is not None and len(self.rule_tags) != n:
            raise ValueError("rule_tags length mismatch")

    def __len__(self) -> int:
        return int(self.bins.shape[0])

    @property
    def feature_names(self) -> list[str]:
        return list(self.categorical) + list(self.metrics)

    def select(self, mask_or_index: np.ndarray) -> "AggregatedDataset":
        """Subset records by boolean mask or index array."""
        idx = np.asarray(mask_or_index)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        tags = None
        if self.rule_tags is not None:
            tags = [self.rule_tags[i] for i in idx]
        return AggregatedDataset(
            bins=self.bins[idx],
            targets=self.targets[idx],
            labels=self.labels[idx],
            categorical={k: v[idx] for k, v in self.categorical.items()},
            metrics={k: v[idx] for k, v in self.metrics.items()},
            n_flows=self.n_flows[idx],
            rule_tags=tags,
        )

    @classmethod
    def concat(cls, parts: Sequence["AggregatedDataset"]) -> "AggregatedDataset":
        """Concatenate aggregated datasets with identical schemas."""
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            raise ValueError("nothing to concatenate")
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        tags: Optional[list[tuple[str, ...]]] = None
        if all(p.rule_tags is not None for p in parts):
            tags = [t for p in parts for t in p.rule_tags]  # type: ignore[union-attr]
        return cls(
            bins=np.concatenate([p.bins for p in parts]),
            targets=np.concatenate([p.targets for p in parts]),
            labels=np.concatenate([p.labels for p in parts]),
            categorical={
                k: np.concatenate([p.categorical[k] for p in parts]) for k in first.categorical
            },
            metrics={
                k: np.concatenate([p.metrics[k] for p in parts]) for k in first.metrics
            },
            n_flows=np.concatenate([p.n_flows for p in parts]),
            rule_tags=tags,
        )

    def time_split(self, boundary_bin: int) -> tuple["AggregatedDataset", "AggregatedDataset"]:
        """Split records into (before, from) ``boundary_bin``."""
        before = self.bins < boundary_bin
        return self.select(before), self.select(~before)

    @property
    def blackhole_share(self) -> float:
        if len(self) == 0:
            return 0.0
        return float(self.labels.mean())


def aggregate(
    flows: FlowDataset,
    rules: Sequence[TaggingRule] | CompiledMatcher = (),
    min_flows: int = 1,
    columns: Optional[Sequence[str]] = None,
) -> AggregatedDataset:
    """Aggregate labeled flows into per-(bin, target) rank features.

    ``rules`` may be an already compiled matcher: a caller with batch
    after batch under one rule set (the scrubber) compiles it once.

    ``min_flows`` and ``columns`` are what a classifier asks for: the
    records of at least ``min_flows`` flows, holding only ``columns``
    (schema names; all 150 when ``None``). Smaller records are dropped
    before any per-record work, and only the categoricals and metrics
    ``columns`` name are ranked. The result is
    ``aggregate(flows, rules).select(n_flows >= min_flows)`` restricted
    to ``columns``, bit for bit, and holds no other column: a consumer
    of the full schema fails on it with a ``KeyError``.
    """
    with obs.span(metric_names.SPAN_FEATURES_AGGREGATE):
        data = _aggregate_batch(flows, rules, min_flows, columns)
    obs.counter(metric_names.C_FEATURES_RECORDS_AGGREGATED).inc(len(data))
    return data


#: The name the batch/shard classification path looks the kernel up by.
aggregate_batch = aggregate


#: Most segments one ranking pass stacks. Stacking amortises numpy's
#: per-call cost over the categoricals of a small batch, but the radix
#: passes slow per element once their arrays outgrow the cache, and the
#: stacked copies raise the memory peak, so a large batch ranks its
#: categoricals in several passes (at least one categorical each); the
#: ranks are the same either way. One-bin classify batches fit in one
#: pass. Ranking the 5-28 k-flow training batches of the benchmark's
#: ``retrain_daily`` in one pass instead raised its ``peak_rss_mb`` by
#: 3 % in each of ten paired runs and its retrain stall by 1 %.
_RANK_PASS_SEGMENTS = 1 << 14


def rank_segments(
    segments: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    n_records: int,
    metrics: Sequence[str] = schema.METRICS,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank categoricals' keys per record by each of ``metrics``.

    The ranking rule of both aggregation kernels. ``segments`` holds one
    ``(record, key, bytes, packets)`` tuple of arrays per categorical
    ranked (all of ``schema.CATEGORICALS``, or the ones a caller reads):
    segment ``j`` says that key ``key[j]`` of record ``record[j]``
    carries ``bytes[j]`` bytes in ``packets[j]`` packets; segments come
    sorted by (record, key), every record with at least one. Returns the
    ``(len(segments) * len(metrics) * RANKS, n_records)`` key block and
    its value block: row (categorical, metric, rank) receives the key
    and the value at that rank,
    ``argsort(values, kind="stable")[::-1][:RANKS]`` over a record's
    ascending keys (ties go to the *larger* key), absent ranks filled
    with ``MISSING_KEY`` / NaN.
    """
    per_cat = len(metrics) * schema.RANKS
    key_block = np.empty((len(segments), per_cat, n_records), dtype=np.int64)
    value_block = np.empty((len(segments), per_cat, n_records), dtype=np.float64)
    start = 0
    while start < len(segments):
        stop, size = start + 1, segments[start][0].shape[0]
        while (
            stop < len(segments)
            and size + segments[stop][0].shape[0] <= _RANK_PASS_SEGMENTS
        ):
            size += segments[stop][0].shape[0]
            stop += 1
        _rank_pass(
            segments[start:stop], n_records, metrics,
            key_block[start:stop].swapaxes(0, 1), value_block[start:stop].swapaxes(0, 1),
        )
        start = stop
    rows = len(segments) * per_cat
    return key_block.reshape(rows, n_records), value_block.reshape(rows, n_records)


def _rank_pass(
    segments: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    n_records: int,
    metrics: Sequence[str],
    key_out: np.ndarray,
    value_out: np.ndarray,
) -> None:
    """:func:`rank_segments` over a few categoricals at once, into the
    ``(metric * rank, categorical, record)`` views ``key_out``/``value_out``.

    Record ``r`` of the ``c``-th categorical is group ``c * n_records +
    r``, so the stacked segments are in (group, key) order already, and
    one stable sort by (group, value) ranks them all.
    """
    seg_group = np.concatenate(
        [records + c * n_records for c, (records, *_) in enumerate(segments)]
    )
    seg_key, seg_bytes, seg_packets = (
        np.concatenate([segment[i] for segment in segments]) for i in (1, 2, 3)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        seg_size = np.where(seg_packets > 0, seg_bytes / seg_packets, 0.0)
    by_metric = {"bytes": seg_bytes, "packets": seg_packets, "packet_size": seg_size}

    ranks = np.arange(schema.RANKS)[:, None]
    seg_counts = np.bincount(seg_group, minlength=len(segments) * n_records)
    absent = ranks >= seg_counts
    # Where rank k of each group sits once its segments are sorted
    # ascending by value (slot 0 stands in for an absent rank).
    slots = np.cumsum(seg_counts) - 1 - ranks
    slots[absent] = 0
    by_group = (schema.RANKS, len(segments), n_records)
    absent = absent.reshape(by_group)

    for i, metric in enumerate(metrics):
        values = by_metric[metric]
        top = stable_argsort(values, seg_group).take(slots).reshape(by_group)
        rows = slice(i * schema.RANKS, (i + 1) * schema.RANKS)
        key_out[rows] = seg_key.take(top)
        value_out[rows] = values.take(top)
        key_out[rows][absent] = schema.MISSING_KEY
        value_out[rows][absent] = np.nan


_Rows = tuple[tuple[str, int], ...]


@functools.lru_cache(maxsize=32)
def column_plan(
    columns: Optional[frozenset[str]],
) -> tuple[tuple[str, ...], tuple[str, ...], _Rows, _Rows]:
    """What both kernels rank for a column set (every column when ``None``):
    the categoricals and the metrics ``columns`` name, and each key and
    value column's row in :func:`rank_segments`' blocks over just those,
    in schema order."""
    names = schema.all_columns()
    if columns is not None:
        if not columns <= set(names):
            raise ValueError(f"not schema columns: {sorted(columns - set(names))}")
        names = [name for name in names if name in columns]
    cells = [schema.parse_column(name) for name in names]
    ranked = tuple(c for c in schema.CATEGORICALS if any(cell[0] == c for cell in cells))
    metrics = tuple(m for m in schema.METRICS if any(cell[1] == m for cell in cells))

    def rows(values: bool) -> _Rows:
        return tuple(
            (name, (ranked.index(cat) * len(metrics) + metrics.index(metric)) * schema.RANKS + rank)
            for name, (cat, metric, rank, is_value) in zip(names, cells)
            if is_value == values
        )

    return ranked, metrics, rows(False), rows(True)


def _aggregate_batch(
    flows: FlowDataset,
    rules: Sequence[TaggingRule] | CompiledMatcher,
    min_flows: int,
    columns: Optional[Sequence[str]],
) -> AggregatedDataset:
    """The aggregation kernel: global sorts and segment reductions.

    Bit-equal to the per-record loop in ``tests/reference_aggregate.py``
    on two invariants:

    * per-(record, key) byte/packet sums go through ``np.bincount``,
      whose sequential accumulation matches the loop's as long as
      equal-key flows keep their order (every sort here is stable);
    * ranking (:func:`rank_segments`) reproduces
      ``argsort(values, kind="stable")[::-1][:r]`` over a record's
      ascending keys: the (record, key) segments sorted stably by
      (record, value) and read from each record's end, so ties go to
      the *larger* key.

    Both hold record by record, so dropping whole records (``min_flows``)
    or whole categoricals (``columns``) changes no bit of what is left.
    """
    n = len(flows)
    if n == 0:
        raise ValueError("cannot aggregate an empty flow dataset")
    ranked, metrics, key_rows, value_rows = column_plan(
        None if columns is None else frozenset(columns)
    )

    bins = flows.time_bin()
    dst = flows.dst_ip

    order = stable_argsort(dst, bins)
    bins_s = bins.take(order)
    dst_s = dst.take(order)
    group_new = np.empty(n, dtype=bool)
    group_new[0] = True
    group_new[1:] = (bins_s[1:] != bins_s[:-1]) | (dst_s[1:] != dst_s[:-1])
    starts = np.flatnonzero(group_new)
    group_sizes = np.diff(starts, append=n)
    if min_flows > 1:
        kept = group_sizes >= min_flows
        # Records go whole, so what is left of ``group_new`` still
        # marks each kept record's first flow.
        flow_kept = np.flatnonzero(np.repeat(kept, group_sizes))
        order, bins_s, dst_s, group_new = (
            a.take(flow_kept) for a in (order, bins_s, dst_s, group_new)
        )
        group_sizes = group_sizes[kept]
        starts = np.flatnonzero(group_new)
    n_groups = starts.shape[0]
    group_ids = np.repeat(np.arange(n_groups), group_sizes)

    f_bytes = flows.bytes.take(order).astype(np.float64)
    f_packets = flows.packets.take(order).astype(np.float64)

    out_tags: Optional[list[tuple[str, ...]]] = None
    if rules:
        matcher = rules if isinstance(rules, CompiledMatcher) else CompiledMatcher(rules)
        words = matcher.flow_words(flows, order)
        out_tags = matcher.tags(np.bitwise_or.reduceat(words, starts, axis=1))

    segments = []
    for cat in ranked:
        # Segment the batch by (record, key), keys ascending.
        keys = flows.column(cat).take(order).astype(np.int64)
        order2 = stable_argsort(keys, group_ids)
        keys = keys.take(order2)
        seg_new = group_new.copy()
        seg_new[1:] |= keys[1:] != keys[:-1]
        seg_starts = np.flatnonzero(seg_new)
        seg_id = np.cumsum(seg_new) - 1
        n_seg = seg_starts.shape[0]

        segments.append((
            group_ids.take(seg_starts),
            keys.take(seg_starts),
            np.bincount(seg_id, weights=f_bytes.take(order2), minlength=n_seg),
            np.bincount(seg_id, weights=f_packets.take(order2), minlength=n_seg),
        ))
    # Row (categorical, metric, rank) of each block is that cell's column.
    key_block, value_block = rank_segments(segments, n_groups, metrics)

    return AggregatedDataset(
        bins=bins_s[starts].astype(np.int64),
        targets=dst_s[starts].astype(np.uint32),
        labels=np.logical_or.reduceat(flows.blackhole.take(order), starts),
        categorical={name: key_block[row] for name, row in key_rows},
        metrics={name: value_block[row] for name, row in value_rows},
        n_flows=group_sizes.astype(np.int64),
        rule_tags=out_tags,
    )
