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
target-disjoint partition of the input and any merge order. Each key is hashed once per
hash family: its ``(depth, n)`` block of flat cell indices feeds one
``bincount`` per table that shares the family's seed. That is what keeps
sketch-mode verdicts identical across shard counts; the full contract
(and the capacity caveats) is documented in ``docs/SKETCHES.md``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import obs
from repro.core.features import schema
from repro.core.features.aggregation import (
    AggregatedDataset,
    rank_segments,
    stable_argsort,
)
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


@functools.lru_cache(maxsize=256)
def _salts(seed: int) -> tuple[np.uint64, np.uint64]:
    """The salts of the two base hashes of a table seeded ``seed``."""
    return np.uint64(_role_seed(seed, 0)), np.uint64(_role_seed(seed, 1))


@functools.lru_cache(maxsize=16)
def _family_seeds(seed: int) -> tuple[int, tuple[int, ...], tuple[np.uint64, ...]]:
    """What an aggregator seeded ``seed`` derives from it: the seed of the
    three target tables, and per categorical the seed of its two pair
    tables and the salt of its (target, key) pair codes."""
    cats = range(len(schema.CATEGORICALS))
    return (
        _role_seed(seed, _ROLE_TARGET),
        tuple(_role_seed(seed, _ROLE_PAIR_BASE + i) for i in cats),
        tuple(np.uint64(_role_seed(seed, _ROLE_CAT_SALT_BASE + i)) for i in cats),
    )


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

    Sketches of one seed and geometry hash a key to the same cells, so
    a caller counting several tables over the same keys computes
    :meth:`cells` once and hands the block to :meth:`update_cells` /
    :meth:`query_cells` of each.
    """

    __slots__ = ("width", "depth", "seed", "table", "total")

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
        if table is None:
            table = np.zeros((self.depth, self.width), dtype=np.int64)
        elif table.shape != (self.depth, self.width):
            raise ValueError("table shape does not match (depth, width)")
        self.table = table
        self.total = int(total)

    # -- hashing --------------------------------------------------------
    def cells(self, keys: np.ndarray) -> np.ndarray:
        """The ``(depth, len(keys))`` block of flat table indices of
        ``keys``: row ``d`` holds ``d * width`` plus the key's bucket."""
        salt_a, salt_b = _salts(self.seed)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        h1 = _splitmix64(keys ^ salt_a)
        rows = np.arange(self.depth, dtype=np.uint64)[:, None]
        width = np.uint64(self.width)
        cells = rows * _splitmix64(keys ^ salt_b)
        cells += h1
        # ``cells % width``, spelled with the floor division numpy runs
        # by a multiply-shift (the uint64 remainder is a hardware divide).
        cells -= cells // width * width
        cells += rows * width
        return cells.astype(np.intp)

    # -- updates --------------------------------------------------------
    def update(self, keys: np.ndarray, weights: Optional[np.ndarray] = None) -> None:
        """Add ``weights`` (default: 1 per key) under each key."""
        self.update_cells(self.cells(keys), weights)

    def update_cells(
        self, cells: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> None:
        """Like :meth:`update`, for keys already turned into :meth:`cells`
        (by this sketch or one of the same seed and geometry)."""
        if cells.shape[1] == 0:
            return
        if weights is None:
            counts = np.bincount(cells.ravel(), minlength=self.table.size)
            self.total += int(cells.shape[1])
        else:
            w = np.ascontiguousarray(weights, dtype=np.float64)
            # Integer weights sum exactly in float64 below 2**53; the
            # cast back to int64 keeps merges bit-exact.
            counts = np.bincount(
                cells.ravel(), weights=np.tile(w, self.depth), minlength=self.table.size
            ).astype(np.int64)
            self.total += int(w.sum())
        self.table += counts.reshape(self.table.shape)

    # -- queries --------------------------------------------------------
    def query(self, keys: np.ndarray) -> np.ndarray:
        """Point estimates (int64, one-sided: never below the truth)."""
        return self.query_cells(self.cells(keys))

    def query_cells(self, cells: np.ndarray) -> np.ndarray:
        """Like :meth:`query`, for keys already turned into :meth:`cells`."""
        return self.table.ravel()[cells].min(axis=0)

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
        "pair_bytes", "pair_packets",
        "targets", "blackhole", "candidates",
    )

    def __init__(self, params: SketchParams):
        self.params = params
        width, depth = params.width, params.depth
        target_seed, pair_seeds, _ = _family_seeds(params.seed)
        self.flows = CountMinSketch(width, depth, target_seed)
        self.bytes = CountMinSketch(width, depth, target_seed)
        self.packets = CountMinSketch(width, depth, target_seed)
        self.pair_bytes = {
            cat: CountMinSketch(width, depth, seed)
            for cat, seed in zip(schema.CATEGORICALS, pair_seeds)
        }
        self.pair_packets = {
            cat: CountMinSketch(width, depth, seed)
            for cat, seed in zip(schema.CATEGORICALS, pair_seeds)
        }
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
    def _pair_codes(self, targets: np.ndarray, cat_index: int, keys: np.ndarray) -> np.ndarray:
        """Combine (target, key) of categorical ``cat_index`` into one
        64-bit sketch key."""
        salt = _family_seeds(self.params.seed)[2][cat_index]
        return _splitmix64(targets ^ salt) ^ keys.astype(np.uint64)

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
        cats = [flows.column(cat).astype(np.int64) for cat in schema.CATEGORICALS]
        # One cell block per hash family: the three target tables share
        # a seed, and so do each categorical's two pair tables.
        cells = self.flows.cells(dst)
        self.flows.update_cells(cells)
        self.bytes.update_cells(cells, f_bytes)
        self.packets.update_cells(cells, f_packets)
        for i, cat in enumerate(schema.CATEGORICALS):
            cells = self.pair_bytes[cat].cells(self._pair_codes(dst, i, cats[i]))
            self.pair_bytes[cat].update_cells(cells, f_bytes)
            self.pair_packets[cat].update_cells(cells, f_packets)

        unique, first, inverse = np.unique(dst, return_index=True, return_inverse=True)
        by_arrival = np.argsort(first, kind="stable")
        room = max(self.params.hh_capacity - self.targets.shape[0], 0)
        slot_of = np.empty(unique.shape, dtype=np.intp)
        slot_of[by_arrival] = self._track(unique[by_arrival], room)
        slots = slot_of[inverse]
        tracked = slots >= 0
        slots = slots[tracked]
        self.blackhole[slots[flows.blackhole[tracked]]] = True
        for i, cat in enumerate(schema.CATEGORICALS):
            self._admit_keys(cat, slots, cats[i][tracked])
        return int(np.count_nonzero(slot_of < 0))

    # -- candidate tracking ---------------------------------------------
    def _slots_of(self, targets: np.ndarray) -> np.ndarray:
        """Slot of each of ``targets``, -1 for an untracked one."""
        if self.targets.shape[0] == 0:
            return np.full(targets.shape, -1, dtype=np.intp)
        sorter = np.argsort(self.targets, kind="stable")
        pos = np.searchsorted(self.targets, targets, sorter=sorter)
        slots = sorter[np.minimum(pos, sorter.shape[0] - 1)]
        return np.where(self.targets[slots] == targets, slots, -1)

    def _track(self, arrivals: np.ndarray, room: int) -> np.ndarray:
        """Slots of ``arrivals`` (distinct targets in arrival order),
        after giving the first ``room`` untracked ones the next slots;
        -1 for those left without one."""
        slots = self._slots_of(arrivals)
        admitted = np.flatnonzero(slots < 0)[:room]
        slots[admitted] = self.targets.shape[0] + np.arange(admitted.shape[0])
        self.targets = np.concatenate([self.targets, arrivals[admitted]])
        self.blackhole = np.concatenate(
            [self.blackhole, np.zeros(admitted.shape[0], dtype=bool)]
        )
        return slots

    def _admit_keys(self, cat: str, slots: np.ndarray, keys: np.ndarray) -> None:
        """The admission rule: a slot keeps its first ``key_capacity``
        distinct keys in arrival order (:meth:`merge` appends what it
        returns for a target-disjoint merge).

        ``slots``/``keys`` are observations in arrival order, behind
        the pairs already held — which therefore all stay, in place.
        """
        held_slots, held_keys = self.candidates[cat]
        slots = np.concatenate([held_slots, slots])
        keys = np.concatenate([held_keys, keys])
        # Stable, so the first of each run of equal pairs arrived first.
        order = stable_argsort(keys, slots)
        s, k = slots[order], keys[order]
        first = np.ones(order.shape, dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (k[1:] != k[:-1])
        keep = np.zeros(order.shape, dtype=bool)
        keep[order[first]] = True
        counts = np.bincount(s[first], minlength=1)
        if counts.max() > self.params.key_capacity:
            # The distinct pairs in arrival order, then stably by slot:
            # each slot's distinct keys by arrival, ranked from 0.
            arrived = np.flatnonzero(keep)
            by_slot = arrived[stable_argsort(slots[arrived])]
            s = slots[by_slot]
            rank = np.arange(s.shape[0]) - (np.cumsum(counts) - counts)[s]
            keep[by_slot[rank >= self.params.key_capacity]] = False
        self.candidates[cat] = (slots[keep], keys[keep])

    # -- merge ----------------------------------------------------------
    def merge(self, other: "_BinSketch") -> None:
        """Fold in the sketch of a stream whose targets this one has not
        seen (see :meth:`SketchAggregator.merge`).

        Their targets take the next slots in their order and their
        ``(slot, key)`` pairs follow the held ones, renumbered. That is
        what the admission rule returns for such a merge: their pairs
        are distinct and within ``key_capacity`` per slot, under slots
        no held pair uses, so the rule would keep them all.
        """
        for mine, theirs in zip(self._tables(), other._tables()):
            mine.merge(theirs)
        base = self.targets.shape[0]
        # Merged unions may exceed ``hh_capacity``; ``_build_bin`` trims.
        self.targets = np.concatenate([self.targets, other.targets])
        self.blackhole = np.concatenate([self.blackhole, other.blackhole])
        for cat in schema.CATEGORICALS:
            held_slots, held_keys = self.candidates[cat]
            their_slots, their_keys = other.candidates[cat]
            self.candidates[cat] = (
                np.concatenate([held_slots, their_slots + base]),
                np.concatenate([held_keys, their_keys]),
            )

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
        out = cls.__new__(cls)
        out.params = params
        out.flows = CountMinSketch.from_state(state["flows"])
        out.bytes = CountMinSketch.from_state(state["bytes"])
        out.packets = CountMinSketch.from_state(state["packets"])
        pairs = state["pairs"]
        out.pair_bytes = {
            cat: CountMinSketch.from_state(pairs[cat][0]) for cat in schema.CATEGORICALS
        }
        out.pair_packets = {
            cat: CountMinSketch.from_state(pairs[cat][1]) for cat in schema.CATEGORICALS
        }
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
            distinct = np.unique(bins)
            untracked = 0
            for b in distinct.tolist():
                sketch = self._bins.get(b)
                if sketch is None:
                    sketch = self._bins[b] = _BinSketch(self.params)
                part = flows if distinct.shape[0] == 1 else flows.select(bins == b)
                untracked += sketch.absorb(part)
            obs.counter(metric_names.C_SKETCH_FLOWS_ABSORBED).inc(len(flows))
            obs.counter(metric_names.C_SKETCH_TARGETS_UNTRACKED).inc(untracked)
            obs.gauge(metric_names.G_SKETCH_MEMORY_BYTES).set(self.memory_bytes())
        return self

    # -- merge ----------------------------------------------------------
    def merge(self, other: "SketchAggregator") -> "SketchAggregator":
        """Fold in the aggregator of a target-disjoint stream (bitwise
        deterministic), as the engine's shards are.

        Raises ``ValueError``, before changing anything, if a bin of
        ``other`` tracks a target the same bin here tracks: first-arrival
        candidates have no single-stream order to follow across streams
        that share a target.
        """
        if self.params != other.params:
            raise ValueError("cannot merge aggregators with different parameters")
        for b, theirs in other._bins.items():
            if b in self._bins and np.isin(theirs.targets, self._bins[b].targets).any():
                raise ValueError(f"bin {b}: cannot merge sketches of overlapping targets")
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

        segments = []
        for i, cat in enumerate(schema.CATEGORICALS):
            # The categorical's (record, candidate key) pairs, keys
            # ascending, valued by both pair sketches off one cell block.
            cand_slots, keys = sketch.candidates[cat]
            records = record_of[cand_slots]
            reported = records >= 0
            records, keys = records[reported], keys[reported]
            order = stable_argsort(keys, records)
            records, keys = records[order], keys[order]
            cells = sketch.pair_bytes[cat].cells(
                sketch._pair_codes(targets[records], i, keys)
            )
            segments.append((
                records,
                keys,
                sketch.pair_bytes[cat].query_cells(cells).astype(np.float64),
                sketch.pair_packets[cat].query_cells(cells).astype(np.float64),
            ))
        # Row (categorical, metric, rank) of each block is that cell's column.
        key_block, value_block = rank_segments(segments, n)

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
