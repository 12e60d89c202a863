"""Mergeable sketches for approximate per-target aggregation.

The exact aggregation path (:mod:`repro.core.features.aggregation`)
materialises every flow of a bin before grouping, so per-bin memory
grows linearly with flow *and* distinct-target count — exactly what
carpet-bombing and mass-blackhole workloads explode. This module is the
``sketch`` setting of the aggregation knob: per-worker, per-bin
**count-min sketches** absorb flows in bounded memory, shard sketches
merge bitwise-deterministically at the coordinator, and records are
built once from the merged state (OctoSketch-style counting workers
under a scoring coordinator).

Structures
----------
:class:`CountMinSketch`
    Integer count-min table with Kirsch–Mitzenmacher double hashing on
    a SplitMix64 finisher (platform-stable; ``hash()`` is salted per
    process and banned by lint rule RS104). Estimates are one-sided:
    ``query(k) >= true(k)`` always, and the overshoot exceeds
    ``(e / width) * total`` with probability at most ``exp(-depth)``.
:class:`SketchAggregator`
    Per-bin sketch sets plus bounded exact *candidate* tracking (the
    first ``hh_capacity`` distinct targets per bin, and per tracked
    target the first ``key_capacity`` distinct keys per categorical —
    both arrival-order semantics, which target-disjoint sharding keeps
    partition-invariant). :meth:`SketchAggregator.build_records`
    re-queries the merged sketches to emit a schema-compatible
    :class:`~repro.core.features.aggregation.AggregatedDataset`.

Merge determinism
-----------------
Count-min tables hold exact int64 sums (bincount accumulates integer
weights in float64, exact below 2**53, cast back per update), so merged
tables are **bitwise identical** to a single-stream sketch for any
partition of the input and any merge order. That is what keeps
sketch-mode verdicts identical across shard counts; the full contract
(and the capacity caveats) is documented in ``docs/SKETCHES.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset, rank_segments
from repro.netflow.dataset import FlowDataset
from repro.obs import names as metric_names

__all__ = [
    "SketchParams",
    "CountMinSketch",
    "SketchAggregator",
    "sketch_aggregate",
]

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """Scalar SplitMix64 finisher (python-int port of the vector mix)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finisher, vectorised — the same platform-stable mix
    :mod:`repro.core.parallel.sharding` uses for shard assignment."""
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


#: Seed-derivation roles: each sketch family inside one aggregator gets
#: decorrelated hash salts from the single user-facing seed.
_ROLE_TARGET = 1
_ROLE_PAIR_BASE = 16
_ROLE_CAT_SALT_BASE = 64


def _role_seed(seed: int, role: int) -> int:
    return _mix64((seed & _MASK64) ^ _mix64(role))


@dataclass(frozen=True)
class SketchParams:
    """Accuracy/memory knob for sketch-mode aggregation.

    ``epsilon``/``delta`` set the count-min dimensions to the textbook
    ``width = ceil(e / epsilon)``, ``depth = ceil(ln(1 / delta))``,
    giving the one-sided guarantee ``est - true <= epsilon * N`` with
    probability at least ``1 - delta`` per query (N = the bin's total
    weight). ``hh_capacity``/``key_capacity`` bound the exact candidate
    tracking (first-arrival semantics, see ``docs/SKETCHES.md``).
    """

    epsilon: float = 0.005
    delta: float = 0.01
    seed: int = 0x1CE
    hh_capacity: int = 4096
    key_capacity: int = 32

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.hh_capacity < 1:
            raise ValueError("hh_capacity must be >= 1")
        if self.key_capacity < schema.RANKS:
            raise ValueError(f"key_capacity must be >= RANKS ({schema.RANKS})")

    @property
    def width(self) -> int:
        return int(math.ceil(math.e / self.epsilon))

    @property
    def depth(self) -> int:
        return int(math.ceil(math.log(1.0 / self.delta)))

    def error_bound(self, total: int) -> float:
        """The asserted bound: ``est - true <= epsilon * total``."""
        return self.epsilon * float(total)


class CountMinSketch:
    """Mergeable integer count-min sketch.

    The table is ``(depth, width)`` int64; row buckets come from
    Kirsch–Mitzenmacher double hashing, ``(h1 + d * h2) % width``, with
    both base hashes derived from the seed through SplitMix64. Updates
    add, merges add — both exact integer operations — so any partition
    of a stream merges back to the bitwise-identical table.
    """

    __slots__ = ("width", "depth", "seed", "table", "total", "_salt_a", "_salt_b")

    def __init__(
        self,
        width: int,
        depth: int,
        seed: int,
        table: Optional[np.ndarray] = None,
        total: int = 0,
    ):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        self.width = int(width)
        self.depth = int(depth)
        self.seed = int(seed)
        self._salt_a = np.uint64(_role_seed(seed, 0))
        self._salt_b = np.uint64(_role_seed(seed, 1))
        if table is None:
            table = np.zeros((self.depth, self.width), dtype=np.int64)
        elif table.shape != (self.depth, self.width):
            raise ValueError("table shape does not match (depth, width)")
        self.table = table
        self.total = int(total)

    # -- hashing --------------------------------------------------------
    def hash_keys(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two base hashes for ``keys`` (reusable across updates of
        sketches constructed with the same seed)."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        return _splitmix64(keys ^ self._salt_a), _splitmix64(keys ^ self._salt_b)

    def _buckets(self, h1: np.ndarray, h2: np.ndarray, d: int) -> np.ndarray:
        return ((h1 + np.uint64(d) * h2) % np.uint64(self.width)).astype(np.intp)

    # -- updates --------------------------------------------------------
    def update(self, keys: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Add ``weights`` (default: 1 per key) under each key."""
        h1, h2 = self.hash_keys(keys)
        self.update_hashed(h1, h2, weights)

    def update_hashed(
        self,
        h1: np.ndarray,
        h2: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ) -> None:
        """Like :meth:`update` but reusing precomputed base hashes."""
        if h1.shape[0] == 0:
            return
        w = None if weights is None else np.ascontiguousarray(weights, dtype=np.float64)
        for d in range(self.depth):
            idx = self._buckets(h1, h2, d)
            if w is None:
                self.table[d] += np.bincount(idx, minlength=self.width)
            else:
                # Integer weights sum exactly in float64 below 2**53;
                # the cast back to int64 keeps merges bit-exact.
                self.table[d] += np.bincount(
                    idx, weights=w, minlength=self.width
                ).astype(np.int64)
        self.total += int(h1.shape[0]) if w is None else int(w.sum())

    # -- queries --------------------------------------------------------
    def query(self, keys: np.ndarray) -> np.ndarray:
        """Point estimates (int64, one-sided: never below the truth)."""
        h1, h2 = self.hash_keys(keys)
        est = np.full(h1.shape, np.iinfo(np.int64).max, dtype=np.int64)
        for d in range(self.depth):
            np.minimum(est, self.table[d][self._buckets(h1, h2, d)], out=est)
        return est

    def error_bound(self) -> float:
        """Additive bound not exceeded with probability ``1 - delta``."""
        return math.e / self.width * self.total

    # -- merge / state --------------------------------------------------
    def _check_compatible(self, other: "CountMinSketch") -> None:
        if (self.width, self.depth, self.seed) != (other.width, other.depth, other.seed):
            raise ValueError("cannot merge sketches with different geometry or seed")

    def merge(self, other: "CountMinSketch") -> "CountMinSketch":
        """Fold another sketch in (exact int64 addition — associative,
        commutative, and bitwise order-independent)."""
        self._check_compatible(other)
        self.table += other.table
        self.total += other.total
        return self

    @property
    def memory_bytes(self) -> int:
        return int(self.table.nbytes)

    def to_state(self) -> dict:
        """Plain-array state for pipe transport / restart re-broadcast."""
        return {
            "width": self.width,
            "depth": self.depth,
            "seed": self.seed,
            "table": self.table,
            "total": self.total,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CountMinSketch":
        return cls(
            state["width"], state["depth"], state["seed"],
            table=state["table"], total=state["total"],
        )


class _BinSketch:
    """All sketch state for one time bin (internal to the aggregator).

    Candidate tracking is held in the form it ships in, numpy arrays in
    admission order: ``targets``/``blackhole`` have one entry per
    tracked target (its index is the target's *slot*), and
    ``candidates[cat]`` is the ``(slots, keys)`` pair of arrays listing
    the candidate keys admitted for that categorical.
    """

    __slots__ = (
        "params", "flows", "bytes", "packets",
        "pair_bytes", "pair_packets", "_cat_salt",
        "targets", "blackhole", "candidates",
    )

    def __init__(self, params: SketchParams):
        self.params = params
        target_seed = _role_seed(params.seed, _ROLE_TARGET)
        self.flows = CountMinSketch(params.width, params.depth, target_seed)
        self.bytes = CountMinSketch(params.width, params.depth, target_seed)
        self.packets = CountMinSketch(params.width, params.depth, target_seed)
        self.pair_bytes: dict[str, CountMinSketch] = {}
        self.pair_packets: dict[str, CountMinSketch] = {}
        self._cat_salt: dict[str, np.uint64] = {}
        for i, cat in enumerate(schema.CATEGORICALS):
            pair_seed = _role_seed(params.seed, _ROLE_PAIR_BASE + i)
            self.pair_bytes[cat] = CountMinSketch(params.width, params.depth, pair_seed)
            self.pair_packets[cat] = CountMinSketch(params.width, params.depth, pair_seed)
            self._cat_salt[cat] = np.uint64(
                _role_seed(params.seed, _ROLE_CAT_SALT_BASE + i)
            )
        self.targets = np.zeros(0, dtype=np.uint64)
        self.blackhole = np.zeros(0, dtype=bool)
        self.candidates: dict[str, tuple[np.ndarray, np.ndarray]] = {
            cat: (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
            for cat in schema.CATEGORICALS
        }

    def _tables(self) -> list[CountMinSketch]:
        return [
            self.flows, self.bytes, self.packets,
            *self.pair_bytes.values(), *self.pair_packets.values(),
        ]

    # -- ingest ---------------------------------------------------------
    def _pair_codes(self, targets: np.ndarray, cat: str, keys: np.ndarray) -> np.ndarray:
        """Combine (target, key) into one 64-bit sketch key."""
        return _splitmix64(targets ^ self._cat_salt[cat]) ^ keys.astype(np.uint64)

    def absorb(self, flows: FlowDataset) -> int:
        """Count one batch of the bin's flows; returns how many of its
        targets found no slot.

        A target admitted on its first appearance sees *all* its flows
        from then on (selection never reorders a target's own flows),
        so first-``key_capacity``-distinct candidate keys are the same
        for the full stream and for any target-disjoint shard of it —
        the partition-invariance the engine relies on.
        """
        dst = flows.dst_ip.astype(np.uint64)
        f_bytes = flows.bytes.astype(np.float64)
        f_packets = flows.packets.astype(np.float64)
        cats = {
            cat: flows.column(cat).astype(np.int64) for cat in schema.CATEGORICALS
        }
        h1, h2 = self.flows.hash_keys(dst)
        self.flows.update_hashed(h1, h2)
        self.bytes.update_hashed(h1, h2, f_bytes)
        self.packets.update_hashed(h1, h2, f_packets)
        for cat in schema.CATEGORICALS:
            codes = self._pair_codes(dst, cat, cats[cat])
            p1, p2 = self.pair_bytes[cat].hash_keys(codes)
            self.pair_bytes[cat].update_hashed(p1, p2, f_bytes)
            self.pair_packets[cat].update_hashed(p1, p2, f_packets)

        unique, first = np.unique(dst, return_index=True)
        arrivals = unique[np.argsort(first, kind="stable")]
        room = max(self.params.hh_capacity - self.targets.shape[0], 0)
        untracked = self._admit_targets(arrivals, room)
        slots = self._slots_of(dst)
        tracked = slots >= 0
        slots = slots[tracked]
        self.blackhole[slots[flows.blackhole[tracked]]] = True
        for cat in schema.CATEGORICALS:
            self._admit_keys(cat, slots, cats[cat][tracked])
        return untracked

    # -- candidate tracking ---------------------------------------------
    def _slots_of(self, targets: np.ndarray) -> np.ndarray:
        """Slot of each of ``targets``, -1 for an untracked one."""
        if self.targets.shape[0] == 0:
            return np.full(targets.shape, -1, dtype=np.intp)
        sorter = np.argsort(self.targets, kind="stable")
        pos = np.searchsorted(self.targets, targets, sorter=sorter)
        slots = sorter[np.minimum(pos, sorter.shape[0] - 1)]
        return np.where(self.targets[slots] == targets, slots, -1)

    def _admit_targets(self, arrivals: np.ndarray, room: int) -> int:
        """Give the first ``room`` untracked of ``arrivals`` (distinct
        targets in arrival order) a slot; returns how many got none."""
        fresh = arrivals[self._slots_of(arrivals) < 0]
        admitted = fresh[:room]
        self.targets = np.concatenate([self.targets, admitted])
        self.blackhole = np.concatenate(
            [self.blackhole, np.zeros(admitted.shape[0], dtype=bool)]
        )
        return fresh.shape[0] - admitted.shape[0]

    def _admit_keys(self, cat: str, slots: np.ndarray, keys: np.ndarray) -> None:
        """The one admission rule, for ingest and merge alike: a slot
        keeps its first ``key_capacity`` distinct keys in arrival order.

        ``slots``/``keys`` are observations in arrival order, behind
        the pairs already held — which therefore all stay, in place.
        """
        held_slots, held_keys = self.candidates[cat]
        slots = np.concatenate([held_slots, slots])
        keys = np.concatenate([held_keys, keys])
        # Stable, so the first of each run of equal pairs arrived first.
        order = np.lexsort((keys, slots))
        s, k = slots[order], keys[order]
        first = np.ones(order.shape, dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (k[1:] != k[:-1])
        arrived, s = order[first], s[first]
        # Rank each distinct pair within its slot by arrival (``s`` is
        # sorted already, so sorting by (slot, arrival) leaves it as is).
        by_arrival = arrived[np.lexsort((arrived, s))]
        counts = np.bincount(s)
        rank = np.arange(s.shape[0]) - (np.cumsum(counts) - counts)[s]
        keep = by_arrival[rank < self.params.key_capacity]
        keep.sort()
        self.candidates[cat] = (slots[keep], keys[keep])

    # -- merge ----------------------------------------------------------
    def merge(self, other: "_BinSketch") -> None:
        for mine, theirs in zip(self._tables(), other._tables()):
            mine.merge(theirs)
        # Merged unions may exceed ``hh_capacity``; ``_build_bin`` trims.
        self._admit_targets(other.targets, other.targets.shape[0])
        slots = self._slots_of(other.targets)
        self.blackhole[slots] |= other.blackhole
        for cat in schema.CATEGORICALS:
            their_slots, their_keys = other.candidates[cat]
            self._admit_keys(cat, slots[their_slots], their_keys)

    # -- accounting / state ---------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes of every array the bin holds: the tables, 9 per tracked
        target and 16 per candidate pair (see SKETCHES.md §6)."""
        arrays = [self.targets, self.blackhole]
        for pair in self.candidates.values():
            arrays.extend(pair)
        return sum(t.memory_bytes for t in self._tables()) + sum(
            int(a.nbytes) for a in arrays
        )

    def to_state(self) -> dict:
        """A view of the live sketch: its arrays, shared, not copied."""
        return {
            "flows": self.flows.to_state(),
            "bytes": self.bytes.to_state(),
            "packets": self.packets.to_state(),
            "pairs": {
                cat: (
                    self.pair_bytes[cat].to_state(),
                    self.pair_packets[cat].to_state(),
                )
                for cat in schema.CATEGORICALS
            },
            "targets": self.targets,
            "blackhole": self.blackhole,
            "candidates": self.candidates,
        }

    @classmethod
    def from_state(cls, params: SketchParams, state: dict) -> "_BinSketch":
        """Adopt ``state``'s arrays (the caller gives them up)."""
        out = cls(params)
        out.flows = CountMinSketch.from_state(state["flows"])
        out.bytes = CountMinSketch.from_state(state["bytes"])
        out.packets = CountMinSketch.from_state(state["packets"])
        for cat in schema.CATEGORICALS:
            b_state, p_state = state["pairs"][cat]
            out.pair_bytes[cat] = CountMinSketch.from_state(b_state)
            out.pair_packets[cat] = CountMinSketch.from_state(p_state)
        out.targets = state["targets"]
        out.blackhole = state["blackhole"]
        out.candidates = state["candidates"]
        return out


class SketchAggregator:
    """Streaming sketch aggregation over (bin, target) groups.

    One aggregator per worker absorbs that shard's flows; the
    coordinator folds worker states with :meth:`merge` (order-
    independent) and calls :meth:`build_records` once on the merged
    state. Buffers are handed over, not copied: ``merge`` may adopt the
    other aggregator's arrays and ``from_state`` adopts the state's —
    do not reuse an aggregator after merging it into another one, nor
    a state after :meth:`from_state`.
    """

    def __init__(self, params: Optional[SketchParams] = None):
        self.params = params if params is not None else SketchParams()
        self._bins: dict[int, _BinSketch] = {}

    # -- ingest ---------------------------------------------------------
    def absorb(self, flows: FlowDataset) -> "SketchAggregator":
        """Absorb a (possibly multi-bin) flow batch into the sketches.

        (Named ``absorb`` rather than ``ingest`` so the RS2xx race
        detector's name-based call-graph fallback does not conflate the
        worker counting path with the coordinator engines' ``ingest``.)
        """
        if len(flows) == 0:
            return self
        with obs.span(metric_names.SPAN_SKETCH_INGEST):
            bins = flows.time_bin()
            untracked = 0
            for b in np.unique(bins).tolist():
                sketch = self._bins.get(b)
                if sketch is None:
                    sketch = self._bins[b] = _BinSketch(self.params)
                untracked += sketch.absorb(flows.select(bins == b))
            obs.counter(metric_names.C_SKETCH_FLOWS_ABSORBED).inc(len(flows))
            obs.counter(metric_names.C_SKETCH_TARGETS_UNTRACKED).inc(untracked)
            obs.gauge(metric_names.G_SKETCH_MEMORY_BYTES).set(self.memory_bytes())
        return self

    # -- merge ----------------------------------------------------------
    def merge(self, other: "SketchAggregator") -> "SketchAggregator":
        """Fold another aggregator's state in (bitwise deterministic)."""
        if self.params != other.params:
            raise ValueError("cannot merge aggregators with different parameters")
        with obs.span(metric_names.SPAN_SKETCH_MERGE):
            for b in sorted(other._bins):
                mine = self._bins.get(b)
                if mine is None:
                    self._bins[b] = other._bins[b]
                else:
                    mine.merge(other._bins[b])
            obs.counter(metric_names.C_SKETCH_MERGES).inc()
        return self

    # -- queries --------------------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes of the arrays holding all per-bin sketch state."""
        return sum(s.memory_bytes() for s in self._bins.values())

    def error_bound(self) -> float:
        """Worst per-bin additive flow-count bound (``epsilon * N``)."""
        if not self._bins:
            return 0.0
        return max(s.flows.error_bound() for s in self._bins.values())

    # -- record building -------------------------------------------------
    def _empty_records(self) -> AggregatedDataset:
        return AggregatedDataset(
            bins=np.zeros(0, dtype=np.int64),
            targets=np.zeros(0, dtype=np.uint32),
            labels=np.zeros(0, dtype=bool),
            categorical={
                name: np.zeros(0, dtype=np.int64) for name in schema.key_columns()
            },
            metrics={
                name: np.zeros(0, dtype=np.float64) for name in schema.value_columns()
            },
            n_flows=np.zeros(0, dtype=np.int64),
        )

    def _build_bin(self, b: int, min_flows: int) -> Optional[AggregatedDataset]:
        sketch = self._bins[b]
        est_flows = sketch.flows.query(sketch.targets)
        slots = np.flatnonzero(est_flows >= min_flows)
        cap = self.params.hh_capacity
        if slots.shape[0] > cap:
            # Merged candidate unions can exceed the per-shard cap;
            # deterministically keep the heaviest (count desc, target
            # asc — the same total order the exact ranker uses).
            slots = slots[np.lexsort((sketch.targets[slots], -est_flows[slots]))[:cap]]
        slots = slots[np.argsort(sketch.targets[slots], kind="stable")]
        n = slots.shape[0]
        if n == 0:
            return None
        targets = sketch.targets[slots]
        record_of = np.full(sketch.targets.shape[0], -1, dtype=np.intp)
        record_of[slots] = np.arange(n)

        # Row (categorical, metric, rank) of each block is that cell's column.
        key_block = np.empty((len(schema.key_columns()), n), dtype=np.int64)
        value_block = np.empty((len(schema.value_columns()), n), dtype=np.float64)
        per_cat = len(schema.METRICS) * schema.RANKS
        for i, cat in enumerate(schema.CATEGORICALS):
            # The categorical's (record, candidate key) pairs, keys
            # ascending, valued by one query of each pair sketch.
            cand_slots, keys = sketch.candidates[cat]
            records = record_of[cand_slots]
            reported = records >= 0
            records, keys = records[reported], keys[reported]
            order = np.lexsort((keys, records))
            records, keys = records[order], keys[order]
            codes = sketch._pair_codes(targets[records], cat, keys)
            rows = slice(i * per_cat, (i + 1) * per_cat)
            rank_segments(
                records, keys,
                sketch.pair_bytes[cat].query(codes).astype(np.float64),
                sketch.pair_packets[cat].query(codes).astype(np.float64),
                key_block[rows], value_block[rows],
            )

        return AggregatedDataset(
            bins=np.full(n, b, dtype=np.int64),
            targets=targets.astype(np.uint32),
            labels=sketch.blackhole[slots],
            categorical=dict(zip(schema.key_columns(), key_block)),
            metrics=dict(zip(schema.value_columns(), value_block)),
            n_flows=est_flows[slots],
        )

    def build_records(self, min_flows: int = 1) -> AggregatedDataset:
        """Build per-(bin, target) records from the merged sketches.

        Records cover the tracked (candidate) targets with estimated
        flow count ``>= min_flows``, ordered by (bin, target) — the
        reducer's emission order. Rank features re-query the pair
        sketches, so estimates inherit the documented ε/δ contract.
        ``rule_tags`` are not carried in sketch mode (rule matching
        needs exact flows).
        """
        with obs.span(metric_names.SPAN_SKETCH_BUILD):
            parts = []
            for b in sorted(self._bins):
                part = self._build_bin(b, min_flows)
                if part is not None:
                    parts.append(part)
            data = (
                AggregatedDataset.concat(parts) if parts else self._empty_records()
            )
            obs.counter(metric_names.C_SKETCH_RECORDS_BUILT).inc(len(data))
            obs.gauge(metric_names.G_SKETCH_ERROR_BOUND).set(self.error_bound())
            obs.gauge(metric_names.G_SKETCH_MEMORY_BYTES).set(self.memory_bytes())
        return data

    # -- state ----------------------------------------------------------
    def to_state(self) -> dict:
        """Picklable plain-array state (what workers ship back)."""
        return {
            "params": self.params,
            "bins": {b: self._bins[b].to_state() for b in sorted(self._bins)},
        }

    @classmethod
    def from_state(cls, state: dict) -> "SketchAggregator":
        out = cls(state["params"])
        for b, bin_state in state["bins"].items():
            out._bins[int(b)] = _BinSketch.from_state(out.params, bin_state)
        return out


def sketch_aggregate(
    flows: FlowDataset,
    params: Optional[SketchParams] = None,
    min_flows: int = 1,
) -> AggregatedDataset:
    """One-shot sketch aggregation (ingest + build) of a flow batch."""
    return SketchAggregator(params).absorb(flows).build_records(min_flows=min_flows)
