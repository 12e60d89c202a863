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
:class:`CardinalitySketch`
    Count-min-of-HyperLogLog: per-target distinct-count estimation
    (distinct source IPs per victim) in sub-linear memory. Registers
    merge by elementwise ``max``.
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
partition of the input and any merge order. HLL registers merge by
``max`` — associative, commutative, idempotent. That is what keeps
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
from repro.core.features.aggregation import AggregatedDataset
from repro.netflow.dataset import BIN_SECONDS, FlowDataset
from repro.obs import names as metric_names

__all__ = [
    "SketchParams",
    "CountMinSketch",
    "CardinalitySketch",
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


def _bit_length(w: np.ndarray) -> np.ndarray:
    """Vectorised ``int.bit_length`` for uint64 arrays (0 -> 0)."""
    w = w.copy()
    out = np.zeros(w.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = w >= (np.uint64(1) << np.uint64(shift))
        out[mask] += shift
        w[mask] >>= np.uint64(shift)
    out += (w > 0).astype(np.int64)
    return out


#: Seed-derivation roles: each sketch family inside one aggregator gets
#: decorrelated hash salts from the single user-facing seed.
_ROLE_TARGET = 1
_ROLE_CARDINALITY = 2
_ROLE_CARD_ITEM = 3
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
    tracking (first-arrival semantics, see ``docs/SKETCHES.md``);
    cardinality knobs size the distinct-source estimator.
    """

    epsilon: float = 0.005
    delta: float = 0.01
    seed: int = 0x1CE
    hh_capacity: int = 4096
    key_capacity: int = 32
    cardinality_registers: int = 64
    cardinality_depth: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.hh_capacity < 1:
            raise ValueError("hh_capacity must be >= 1")
        if self.key_capacity < schema.RANKS:
            raise ValueError(f"key_capacity must be >= RANKS ({schema.RANKS})")
        m = self.cardinality_registers
        if m < 16 or m & (m - 1):
            raise ValueError("cardinality_registers must be a power of two >= 16")
        if self.cardinality_depth < 1:
            raise ValueError("cardinality_depth must be >= 1")

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


class CardinalitySketch:
    """Count-min-of-HyperLogLog distinct-count estimator.

    ``table`` is ``(depth, width, registers)`` uint8. A (key, item)
    update routes the key to one bucket per row (same double hashing as
    :class:`CountMinSketch`) and folds the item into that bucket's HLL
    registers. Colliding keys only *raise* registers, so taking the
    minimum estimate across rows bounds the overshoot; registers merge
    by elementwise ``max``, which is order-independent and idempotent.
    """

    __slots__ = (
        "width", "depth", "registers", "seed", "table",
        "_salt_a", "_salt_b", "_item_salt", "_log2m",
    )

    def __init__(
        self,
        width: int,
        depth: int,
        registers: int,
        seed: int,
        table: Optional[np.ndarray] = None,
    ):
        if width < 1 or depth < 1:
            raise ValueError("width and depth must be >= 1")
        if registers < 16 or registers & (registers - 1):
            raise ValueError("registers must be a power of two >= 16")
        self.width = int(width)
        self.depth = int(depth)
        self.registers = int(registers)
        self.seed = int(seed)
        self._salt_a = np.uint64(_role_seed(seed, 0))
        self._salt_b = np.uint64(_role_seed(seed, 1))
        self._item_salt = np.uint64(_role_seed(seed, 2))
        self._log2m = int(registers).bit_length() - 1
        if table is None:
            table = np.zeros((self.depth, self.width, self.registers), dtype=np.uint8)
        elif table.shape != (self.depth, self.width, self.registers):
            raise ValueError("table shape does not match (depth, width, registers)")
        self.table = table

    def update(self, keys: np.ndarray, items: np.ndarray) -> None:
        """Fold one item observation per key into the registers."""
        if keys.shape[0] == 0:
            return
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        items = np.ascontiguousarray(items, dtype=np.uint64)
        h1 = _splitmix64(keys ^ self._salt_a)
        h2 = _splitmix64(keys ^ self._salt_b)
        hs = _splitmix64(items ^ self._item_salt)
        reg = (hs & np.uint64(self.registers - 1)).astype(np.intp)
        w = hs >> np.uint64(self._log2m)
        rho = ((64 - self._log2m + 1) - _bit_length(w)).astype(np.uint8)
        for d in range(self.depth):
            bucket = ((h1 + np.uint64(d) * h2) % np.uint64(self.width)).astype(np.intp)
            np.maximum.at(self.table[d], (bucket, reg), rho)

    def query(self, keys: np.ndarray) -> np.ndarray:
        """Distinct-count estimates (float64) per key, min across rows."""
        if keys.shape[0] == 0:
            return np.zeros(0, dtype=np.float64)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        h1 = _splitmix64(keys ^ self._salt_a)
        h2 = _splitmix64(keys ^ self._salt_b)
        m = self.registers
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = np.full(keys.shape, np.inf, dtype=np.float64)
        for d in range(self.depth):
            bucket = ((h1 + np.uint64(d) * h2) % np.uint64(self.width)).astype(np.intp)
            regs = self.table[d][bucket].astype(np.float64)
            raw = alpha * m * m / np.power(2.0, -regs).sum(axis=1)
            zeros = (regs == 0).sum(axis=1)
            with np.errstate(divide="ignore"):
                linear = m * np.log(np.where(zeros > 0, m / np.maximum(zeros, 1), 1.0))
            row = np.where((raw <= 2.5 * m) & (zeros > 0), linear, raw)
            np.minimum(est, row, out=est)
        return est

    def merge(self, other: "CardinalitySketch") -> "CardinalitySketch":
        if (self.width, self.depth, self.registers, self.seed) != (
            other.width, other.depth, other.registers, other.seed
        ):
            raise ValueError("cannot merge sketches with different geometry or seed")
        np.maximum(self.table, other.table, out=self.table)
        return self

    @property
    def memory_bytes(self) -> int:
        return int(self.table.nbytes)

    def to_state(self) -> dict:
        return {
            "width": self.width,
            "depth": self.depth,
            "registers": self.registers,
            "seed": self.seed,
            "table": self.table,
        }

    @classmethod
    def from_state(cls, state: dict) -> "CardinalitySketch":
        return cls(
            state["width"], state["depth"], state["registers"],
            state["seed"], table=state["table"],
        )


class _BinSketch:
    """All sketch state for one time bin (internal to the aggregator)."""

    __slots__ = (
        "params", "flows", "bytes", "packets", "cardinality",
        "pair_bytes", "pair_packets", "_cat_salt",
        "_slots", "_blackhole", "_keys",
    )

    def __init__(self, params: SketchParams):
        self.params = params
        target_seed = _role_seed(params.seed, _ROLE_TARGET)
        self.flows = CountMinSketch(params.width, params.depth, target_seed)
        self.bytes = CountMinSketch(params.width, params.depth, target_seed)
        self.packets = CountMinSketch(params.width, params.depth, target_seed)
        self.cardinality = CardinalitySketch(
            params.width,
            params.cardinality_depth,
            params.cardinality_registers,
            _role_seed(params.seed, _ROLE_CARDINALITY),
        )
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
        # Candidate tracking: first-arrival target slots and, per slot
        # and categorical, insertion-ordered candidate key dicts (dicts
        # double as deterministic ordered sets — RS103 keeps real sets
        # away from anything order-sensitive).
        self._slots: dict[int, int] = {}
        self._blackhole: list[bool] = []
        self._keys: dict[str, list[dict[int, None]]] = {
            cat: [] for cat in schema.CATEGORICALS
        }

    # -- ingest ---------------------------------------------------------
    def _pair_codes(self, targets: np.ndarray, cat: str, keys: np.ndarray) -> np.ndarray:
        """Combine (target, key) into one 64-bit sketch key."""
        return _splitmix64(targets ^ self._cat_salt[cat]) ^ keys.astype(np.uint64)

    def absorb(
        self,
        dst: np.ndarray,
        src: np.ndarray,
        cats: dict[str, np.ndarray],
        f_bytes: np.ndarray,
        f_packets: np.ndarray,
        blackhole: np.ndarray,
    ) -> None:
        h1, h2 = self.flows.hash_keys(dst)
        self.flows.update_hashed(h1, h2)
        self.bytes.update_hashed(h1, h2, f_bytes)
        self.packets.update_hashed(h1, h2, f_packets)
        self.cardinality.update(dst, src)
        for cat in schema.CATEGORICALS:
            codes = self._pair_codes(dst, cat, cats[cat])
            p1, p2 = self.pair_bytes[cat].hash_keys(codes)
            self.pair_bytes[cat].update_hashed(p1, p2, f_bytes)
            self.pair_packets[cat].update_hashed(p1, p2, f_packets)
        self._track(dst, cats, blackhole)

    def _register_targets(self, dst: np.ndarray) -> None:
        """Admit first-appearance targets up to ``hh_capacity``."""
        cap = self.params.hh_capacity
        if len(self._slots) >= cap:
            return
        unique, first = np.unique(dst, return_index=True)
        for t in unique[np.argsort(first, kind="stable")].tolist():
            if t in self._slots:
                continue
            if len(self._slots) >= cap:
                break
            self._slots[t] = len(self._slots)
            self._blackhole.append(False)
            for cat in schema.CATEGORICALS:
                self._keys[cat].append({})

    def _track(
        self, dst: np.ndarray, cats: dict[str, np.ndarray], blackhole: np.ndarray
    ) -> None:
        """Exact bounded bookkeeping for tracked targets.

        A target admitted on its first appearance sees *all* its flows
        from then on (selection never reorders a target's own flows),
        so first-``key_capacity``-distinct candidate keys are the same
        for the full stream and for any target-disjoint shard of it —
        the partition-invariance the engine relies on.
        """
        self._register_targets(dst)
        if not self._slots:
            return
        tracked = np.fromiter(self._slots, dtype=np.uint64, count=len(self._slots))
        sorter = np.argsort(tracked, kind="stable")
        ordered = tracked[sorter]
        pos = np.minimum(np.searchsorted(ordered, dst), len(ordered) - 1)
        mask = ordered[pos] == dst
        if not mask.any():
            return
        slots = sorter[pos[mask]]
        hit = (
            np.bincount(slots, weights=blackhole[mask].astype(np.float64),
                        minlength=len(tracked)) > 0
        )
        for i in np.flatnonzero(hit).tolist():
            self._blackhole[i] = True
        cap = self.params.key_capacity
        for cat in schema.CATEGORICALS:
            keys = cats[cat][mask]
            order = np.lexsort((keys, slots))
            s2, k2 = slots[order], keys[order]
            new = np.empty(s2.shape, dtype=bool)
            new[0] = True
            new[1:] = (np.diff(s2) != 0) | (np.diff(k2) != 0)
            seg_start = np.flatnonzero(new)
            # First arrival position of each distinct (slot, key) pair,
            # so cap admission keeps stream-arrival order across chunks.
            first_pos = np.minimum.reduceat(order, seg_start)
            arrival = np.argsort(first_pos, kind="stable")
            for slot_i, key in zip(
                s2[seg_start][arrival].tolist(), k2[seg_start][arrival].tolist()
            ):
                candidates = self._keys[cat][slot_i]
                if key not in candidates and len(candidates) < cap:
                    candidates[key] = None

    # -- merge ----------------------------------------------------------
    def merge(self, other: "_BinSketch") -> None:
        self.flows.merge(other.flows)
        self.bytes.merge(other.bytes)
        self.packets.merge(other.packets)
        self.cardinality.merge(other.cardinality)
        for cat in schema.CATEGORICALS:
            self.pair_bytes[cat].merge(other.pair_bytes[cat])
            self.pair_packets[cat].merge(other.pair_packets[cat])
        cap = self.params.key_capacity
        for t, oslot in other._slots.items():
            mine = self._slots.get(t)
            if mine is None:
                self._slots[t] = len(self._blackhole)
                self._blackhole.append(other._blackhole[oslot])
                for cat in schema.CATEGORICALS:
                    self._keys[cat].append(dict(other._keys[cat][oslot]))
                continue
            self._blackhole[mine] = self._blackhole[mine] or other._blackhole[oslot]
            for cat in schema.CATEGORICALS:
                candidates = self._keys[cat][mine]
                for key in other._keys[cat][oslot]:
                    if key not in candidates and len(candidates) < cap:
                        candidates[key] = None

    # -- accounting / state ---------------------------------------------
    def memory_bytes(self) -> int:
        """Payload accounting: sketch tables plus 8 bytes per candidate
        key and 9 per tracked target (object overhead excluded — the
        same basis the exact-mode comparison uses, see SKETCHES.md)."""
        total = (
            self.flows.memory_bytes + self.bytes.memory_bytes
            + self.packets.memory_bytes + self.cardinality.memory_bytes
        )
        for cat in schema.CATEGORICALS:
            total += self.pair_bytes[cat].memory_bytes
            total += self.pair_packets[cat].memory_bytes
            total += 8 * sum(len(d) for d in self._keys[cat])
        return total + 9 * len(self._slots)

    def to_state(self) -> dict:
        keys_state = {}
        for cat in schema.CATEGORICALS:
            per_slot = self._keys[cat]
            counts = np.array([len(d) for d in per_slot], dtype=np.int64)
            flat = np.array(
                [k for d in per_slot for k in d], dtype=np.int64
            )
            keys_state[cat] = (flat, counts)
        return {
            "flows": self.flows.to_state(),
            "bytes": self.bytes.to_state(),
            "packets": self.packets.to_state(),
            "cardinality": self.cardinality.to_state(),
            "pairs": {
                cat: (
                    self.pair_bytes[cat].to_state(),
                    self.pair_packets[cat].to_state(),
                )
                for cat in schema.CATEGORICALS
            },
            "targets": np.fromiter(self._slots, dtype=np.uint64, count=len(self._slots)),
            "blackhole": np.array(self._blackhole, dtype=bool),
            "keys": keys_state,
        }

    @classmethod
    def from_state(cls, params: SketchParams, state: dict) -> "_BinSketch":
        out = cls(params)
        out.flows = CountMinSketch.from_state(state["flows"])
        out.bytes = CountMinSketch.from_state(state["bytes"])
        out.packets = CountMinSketch.from_state(state["packets"])
        out.cardinality = CardinalitySketch.from_state(state["cardinality"])
        for cat in schema.CATEGORICALS:
            b_state, p_state = state["pairs"][cat]
            out.pair_bytes[cat] = CountMinSketch.from_state(b_state)
            out.pair_packets[cat] = CountMinSketch.from_state(p_state)
        targets = state["targets"].tolist()
        out._slots = {t: i for i, t in enumerate(targets)}
        out._blackhole = state["blackhole"].tolist()
        for cat in schema.CATEGORICALS:
            flat, counts = state["keys"][cat]
            bounds = np.cumsum(counts)[:-1]
            out._keys[cat] = [
                {int(k): None for k in part}
                for part in np.split(flat, bounds)
            ] if len(counts) else []
        return out


class SketchAggregator:
    """Streaming sketch aggregation over (bin, target) groups.

    One aggregator per worker absorbs that shard's flows; the
    coordinator folds worker states with :meth:`merge` (order-
    independent) and calls :meth:`build_records` once on the merged
    state. ``merge`` may adopt the other aggregator's buffers by
    reference — do not reuse an aggregator after merging it into
    another one.
    """

    def __init__(
        self,
        params: Optional[SketchParams] = None,
        bin_seconds: int = BIN_SECONDS,
    ):
        self.params = params if params is not None else SketchParams()
        self.bin_seconds = int(bin_seconds)
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
            bins = flows.time_bin(self.bin_seconds)
            for b in np.unique(bins).tolist():
                mask = bins == b
                sketch = self._bins.get(b)
                if sketch is None:
                    sketch = self._bins[b] = _BinSketch(self.params)
                cats = {
                    "src_ip": flows.src_ip[mask].astype(np.int64),
                    "src_port": flows.src_port[mask].astype(np.int64),
                    "dst_port": flows.dst_port[mask].astype(np.int64),
                    "src_mac": flows.src_mac[mask].astype(np.int64),
                    "protocol": flows.protocol[mask].astype(np.int64),
                }
                sketch.absorb(
                    dst=flows.dst_ip[mask].astype(np.uint64),
                    src=flows.src_ip[mask].astype(np.uint64),
                    cats=cats,
                    f_bytes=flows.bytes[mask].astype(np.float64),
                    f_packets=flows.packets[mask].astype(np.float64),
                    blackhole=flows.blackhole[mask],
                )
            obs.counter(metric_names.C_SKETCH_FLOWS_ABSORBED).inc(len(flows))
            obs.gauge(metric_names.G_SKETCH_MEMORY_BYTES).set(self.memory_bytes())
        return self

    # -- merge ----------------------------------------------------------
    def merge(self, other: "SketchAggregator") -> "SketchAggregator":
        """Fold another aggregator's state in (bitwise deterministic)."""
        if self.params != other.params or self.bin_seconds != other.bin_seconds:
            raise ValueError("cannot merge aggregators with different parameters")
        with obs.span(metric_names.SPAN_SKETCH_MERGE):
            for b in sorted(other._bins):
                mine = self._bins.get(b)
                if mine is None:
                    self._bins[b] = other._bins[b]
                else:
                    mine.merge(other._bins[b])
            obs.counter(metric_names.C_SKETCH_MERGES).inc()
            obs.gauge(metric_names.G_SKETCH_MEMORY_BYTES).set(self.memory_bytes())
        return self

    # -- queries --------------------------------------------------------
    def target_cardinality(self, b: int, targets: np.ndarray) -> np.ndarray:
        """Estimated distinct source IPs per target in one bin."""
        sketch = self._bins.get(b)
        if sketch is None:
            return np.zeros(np.asarray(targets).shape, dtype=np.float64)
        return sketch.cardinality.query(np.asarray(targets, dtype=np.uint64))

    def memory_bytes(self) -> int:
        """Payload bytes of all per-bin sketch state."""
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
        if not sketch._slots:
            return None
        targets = np.fromiter(
            sketch._slots, dtype=np.uint64, count=len(sketch._slots)
        )
        slots = np.arange(targets.shape[0])
        est_flows = sketch.flows.query(targets)
        keep = est_flows >= min_flows
        targets, slots, est_flows = targets[keep], slots[keep], est_flows[keep]
        if targets.shape[0] == 0:
            return None
        cap = self.params.hh_capacity
        if targets.shape[0] > cap:
            # Merged candidate unions can exceed the per-shard cap;
            # deterministically keep the heaviest (count desc, target
            # asc — the same total order the exact ranker uses).
            top = np.lexsort((targets, -est_flows))[:cap]
            targets, slots, est_flows = targets[top], slots[top], est_flows[top]
        order = np.argsort(targets, kind="stable")
        targets, slots, est_flows = targets[order], slots[order], est_flows[order]

        n = targets.shape[0]
        categorical = {
            name: np.full(n, schema.MISSING_KEY, dtype=np.int64)
            for name in schema.key_columns()
        }
        metrics = {
            name: np.full(n, np.nan, dtype=np.float64)
            for name in schema.value_columns()
        }
        r = schema.RANKS
        for cat in schema.CATEGORICALS:
            per_slot = sketch._keys[cat]
            pair_bytes = sketch.pair_bytes[cat]
            pair_packets = sketch.pair_packets[cat]
            for i in range(n):
                candidates = per_slot[slots[i]]
                if not candidates:
                    continue
                cand = np.fromiter(candidates, dtype=np.int64, count=len(candidates))
                codes = sketch._pair_codes(
                    np.full(cand.shape, targets[i], dtype=np.uint64), cat, cand
                )
                key_bytes = pair_bytes.query(codes).astype(np.float64)
                key_packets = pair_packets.query(codes).astype(np.float64)
                with np.errstate(divide="ignore", invalid="ignore"):
                    key_size = np.where(key_packets > 0, key_bytes / key_packets, 0.0)
                values = {
                    "bytes": key_bytes,
                    "packets": key_packets,
                    "packet_size": key_size,
                }
                for metric in schema.METRICS:
                    vals = values[metric]
                    # Metric descending, ties by descending key — the
                    # exact ranker's order (reversed stable argsort).
                    top_keys = np.lexsort((cand, vals))[::-1][:r]
                    for rank, j in enumerate(top_keys):
                        categorical[schema.key_column(cat, metric, rank)][i] = cand[j]
                        metrics[schema.value_column(cat, metric, rank)][i] = vals[j]

        labels = np.zeros(n, dtype=bool)
        for i in range(n):
            labels[i] = sketch._blackhole[slots[i]]
        return AggregatedDataset(
            bins=np.full(n, b, dtype=np.int64),
            targets=targets.astype(np.uint32),
            labels=labels,
            categorical=categorical,
            metrics=metrics,
            n_flows=est_flows.astype(np.int64),
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
                if part is not None and len(part) > 0:
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
            "bin_seconds": self.bin_seconds,
            "bins": {b: self._bins[b].to_state() for b in sorted(self._bins)},
        }

    @classmethod
    def from_state(cls, state: dict) -> "SketchAggregator":
        out = cls(state["params"], bin_seconds=state["bin_seconds"])
        for b, bin_state in state["bins"].items():
            out._bins[int(b)] = _BinSketch.from_state(out.params, bin_state)
        return out


def sketch_aggregate(
    flows: FlowDataset,
    params: Optional[SketchParams] = None,
    bin_seconds: int = BIN_SECONDS,
    min_flows: int = 1,
) -> AggregatedDataset:
    """One-shot sketch aggregation (ingest + build) of a flow batch."""
    return SketchAggregator(params, bin_seconds=bin_seconds).absorb(flows).build_records(
        min_flows=min_flows
    )
