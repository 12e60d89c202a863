"""The per-row sketch path ``repro.core.features.sketches`` must equal bit for bit.

This is the first vectorised implementation of the sketch aggregation
(docs/SKETCHES.md): every count-min row updated by its own ``bincount``
and queried by its own gather, candidate admission by two ``np.lexsort``
merge sorts, every merge through that admission rule, and records ranked
one record at a time by the rule of ``tests/reference_aggregate.py``
over values queried from the pair sketches. It lives in the test tree as
the oracle for ``SketchAggregator``; the hash function and the seed
derivation are the module's own, so what the oracle pins is everything
built on them.

It always counts every categorical. An aggregator built for a column
subset must hold this oracle's tables and candidates for the
categoricals the subset names (:func:`counted`) and build its records
restricted to the subset (``build_records(columns=...)``): a column
plan may skip work, never change a bit of what it keeps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from tests.reference_aggregate import restricted
from repro.core.features.sketches import (
    _ROLE_CAT_SALT_BASE,
    _ROLE_PAIR_BASE,
    _ROLE_TARGET,
    SketchParams,
    _role_seed,
    _splitmix64,
)
from repro.netflow.dataset import FlowDataset


class ReferenceCountMin:
    """A ``(depth, width)`` int64 count-min table, one row at a time."""

    def __init__(self, width: int, depth: int, seed: int):
        self.width, self.depth, self.seed = width, depth, seed
        self.salt_a = np.uint64(_role_seed(seed, 0))
        self.salt_b = np.uint64(_role_seed(seed, 1))
        self.table = np.zeros((depth, width), dtype=np.int64)
        self.total = 0

    def hash_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        return _splitmix64(keys ^ self.salt_a), _splitmix64(keys ^ self.salt_b)

    def _buckets(self, h1: np.ndarray, h2: np.ndarray, d: int) -> np.ndarray:
        return ((h1 + np.uint64(d) * h2) % np.uint64(self.width)).astype(np.intp)

    def update_hashed(
        self, h1: np.ndarray, h2: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> None:
        if h1.shape[0] == 0:
            return
        w = None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        for d in range(self.depth):
            idx = self._buckets(h1, h2, d)
            if w is None:
                self.table[d] += np.bincount(idx, minlength=self.width)
            else:
                self.table[d] += np.bincount(
                    idx, weights=w, minlength=self.width
                ).astype(np.int64)
        self.total += int(h1.shape[0]) if w is None else int(w.sum())

    def query(self, keys: np.ndarray) -> np.ndarray:
        h1, h2 = self.hash_keys(keys)
        est = np.full(h1.shape, np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(self.depth):
            np.minimum(est, self.table[d][self._buckets(h1, h2, d)], out=est)
        return est

    def merge(self, other: "ReferenceCountMin") -> None:
        self.table += other.table
        self.total += other.total


def counted(columns: Optional[Sequence[str]]) -> tuple[str, ...]:
    """The categoricals a column set names (all of them for ``None``), in
    schema order: those an aggregator of ``columns`` counts."""
    if columns is None:
        return schema.CATEGORICALS
    named = {schema.parse_column(name)[0] for name in columns}
    return tuple(cat for cat in schema.CATEGORICALS if cat in named)


class ReferenceBinSketch:
    """One bin: 11 tables plus candidate arrays in admission order."""

    def __init__(self, params: SketchParams):
        self.params = params
        w, d = params.width, params.depth
        self.flows = ReferenceCountMin(w, d, _role_seed(params.seed, _ROLE_TARGET))
        self.pair_bytes, self.pair_packets, self.cat_salt = {}, {}, {}
        for i, cat in enumerate(schema.CATEGORICALS):
            pair_seed = _role_seed(params.seed, _ROLE_PAIR_BASE + i)
            self.pair_bytes[cat] = ReferenceCountMin(w, d, pair_seed)
            self.pair_packets[cat] = ReferenceCountMin(w, d, pair_seed)
            self.cat_salt[cat] = np.uint64(_role_seed(params.seed, _ROLE_CAT_SALT_BASE + i))
        self.targets = np.zeros(0, dtype=np.uint64)
        self.blackhole = np.zeros(0, dtype=bool)
        self.candidates = {
            cat: (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            for cat in schema.CATEGORICALS
        }

    def tables(self, cats: Sequence[str] = schema.CATEGORICALS) -> list[ReferenceCountMin]:
        """The flow table, then the byte and the packet pair tables of ``cats``."""
        return [
            self.flows,
            *(self.pair_bytes[cat] for cat in cats),
            *(self.pair_packets[cat] for cat in cats),
        ]

    def pair_codes(self, targets: np.ndarray, cat: str, keys: np.ndarray) -> np.ndarray:
        return _splitmix64(targets ^ self.cat_salt[cat]) ^ keys.astype(np.uint64)

    def absorb(self, flows: FlowDataset) -> None:
        dst = flows.dst_ip.astype(np.uint64)
        f_bytes = flows.bytes.astype(np.float64)
        f_packets = flows.packets.astype(np.float64)
        cats = {cat: flows.column(cat).astype(np.int64) for cat in schema.CATEGORICALS}
        self.flows.update_hashed(*self.flows.hash_keys(dst))
        for cat in schema.CATEGORICALS:
            p1, p2 = self.pair_bytes[cat].hash_keys(self.pair_codes(dst, cat, cats[cat]))
            self.pair_bytes[cat].update_hashed(p1, p2, f_bytes)
            self.pair_packets[cat].update_hashed(p1, p2, f_packets)

        unique, first = np.unique(dst, return_index=True)
        arrivals = unique[np.argsort(first, kind="stable")]
        self.admit_targets(arrivals, max(self.params.hh_capacity - self.targets.shape[0], 0))
        slots = self.slots_of(dst)
        tracked = slots >= 0
        slots = slots[tracked]
        self.blackhole[slots[flows.blackhole[tracked]]] = True
        for cat in schema.CATEGORICALS:
            self.admit_keys(cat, slots, cats[cat][tracked])

    def slots_of(self, targets: np.ndarray) -> np.ndarray:
        if self.targets.shape[0] == 0:
            return np.full(targets.shape, -1, dtype=np.intp)
        sorter = np.argsort(self.targets, kind="stable")
        pos = np.searchsorted(self.targets, targets, sorter=sorter)
        slots = sorter[np.minimum(pos, sorter.shape[0] - 1)]
        return np.where(self.targets[slots] == targets, slots, -1)

    def admit_targets(self, arrivals: np.ndarray, room: int) -> None:
        fresh = arrivals[self.slots_of(arrivals) < 0]
        admitted = fresh[:room]
        self.targets = np.concatenate([self.targets, admitted])
        self.blackhole = np.concatenate(
            [self.blackhole, np.zeros(admitted.shape[0], dtype=bool)]
        )

    def admit_keys(self, cat: str, slots: np.ndarray, keys: np.ndarray) -> None:
        """A slot keeps its first ``key_capacity`` distinct keys in
        arrival order, the held pairs arriving first."""
        held_slots, held_keys = self.candidates[cat]
        slots = np.concatenate([held_slots, slots])
        keys = np.concatenate([held_keys, keys])
        order = np.lexsort((keys, slots))
        s, k = slots[order], keys[order]
        first = np.ones(order.shape, dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (k[1:] != k[:-1])
        arrived, s = order[first], s[first]
        by_arrival = arrived[np.lexsort((arrived, s))]
        counts = np.bincount(s)
        rank = np.arange(s.shape[0]) - (np.cumsum(counts) - counts)[s]
        keep = by_arrival[rank < self.params.key_capacity]
        keep.sort()
        self.candidates[cat] = (slots[keep], keys[keep])

    def merge(self, other: "ReferenceBinSketch") -> None:
        for mine, theirs in zip(self.tables(), other.tables()):
            mine.merge(theirs)
        self.admit_targets(other.targets, other.targets.shape[0])
        slots = self.slots_of(other.targets)
        self.blackhole[slots] |= other.blackhole
        for cat in schema.CATEGORICALS:
            their_slots, their_keys = other.candidates[cat]
            self.admit_keys(cat, slots[their_slots], their_keys)


class ReferenceSketchAggregator:
    """Per-bin reference sketches; records built one at a time."""

    def __init__(self, params: SketchParams):
        self.params = params
        self.bins: dict[int, ReferenceBinSketch] = {}

    def absorb(self, flows: FlowDataset) -> "ReferenceSketchAggregator":
        bins = flows.time_bin()
        for b in np.unique(bins).tolist():
            sketch = self.bins.setdefault(b, ReferenceBinSketch(self.params))
            sketch.absorb(flows.select(bins == b))
        return self

    def merge(self, other: "ReferenceSketchAggregator") -> "ReferenceSketchAggregator":
        for b in sorted(other.bins):
            if b in self.bins:
                self.bins[b].merge(other.bins[b])
            else:
                self.bins[b] = other.bins[b]
        return self

    def build_records(
        self, min_flows: int = 1, columns: Optional[Sequence[str]] = None
    ) -> Optional[AggregatedDataset]:
        """The records, or None where the aggregator builds an empty set;
        built full width, then restricted to ``columns`` (all when None)."""
        parts = [
            part for b in sorted(self.bins)
            if (part := self._build_bin(b, min_flows)) is not None
        ]
        if not parts:
            return None
        data = AggregatedDataset.concat(parts)
        return data if columns is None else restricted(data, columns)

    def _build_bin(self, b: int, min_flows: int) -> Optional[AggregatedDataset]:
        sketch = self.bins[b]
        est_flows = sketch.flows.query(sketch.targets)
        slots = np.flatnonzero(est_flows >= min_flows)
        cap = self.params.hh_capacity
        if slots.shape[0] > cap:
            slots = slots[np.lexsort((sketch.targets[slots], -est_flows[slots]))[:cap]]
        slots = slots[np.argsort(sketch.targets[slots], kind="stable")]
        n = slots.shape[0]
        if n == 0:
            return None
        categorical = {
            name: np.full(n, schema.MISSING_KEY, dtype=np.int64)
            for name in schema.key_columns()
        }
        metrics = {
            name: np.full(n, np.nan, dtype=np.float64) for name in schema.value_columns()
        }
        for g, slot in enumerate(slots):
            target = sketch.targets[slot : slot + 1]
            for cat in schema.CATEGORICALS:
                cand_slots, cand_keys = sketch.candidates[cat]
                keys = np.sort(cand_keys[cand_slots == slot])
                codes = sketch.pair_codes(np.repeat(target, keys.shape[0]), cat, keys)
                key_bytes = sketch.pair_bytes[cat].query(codes).astype(np.float64)
                key_packets = sketch.pair_packets[cat].query(codes).astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    key_size = np.where(key_packets > 0, key_bytes / key_packets, 0.0)
                by_metric = {
                    "bytes": key_bytes, "packets": key_packets, "packet_size": key_size
                }
                for metric in schema.METRICS:
                    values = by_metric[metric]
                    top = np.argsort(values, kind="stable")[::-1][: schema.RANKS]
                    for rank, idx in enumerate(top):
                        categorical[schema.key_column(cat, metric, rank)][g] = keys[idx]
                        metrics[schema.value_column(cat, metric, rank)][g] = values[idx]
        return AggregatedDataset(
            bins=np.full(n, b, dtype=np.int64),
            targets=sketch.targets[slots].astype(np.uint32),
            labels=sketch.blackhole[slots],
            categorical=categorical,
            metrics=metrics,
            n_flows=est_flows[slots],
        )
