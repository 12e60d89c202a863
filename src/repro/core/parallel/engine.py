"""Sharded streaming coordinator: parallel classification, serial brain.

:class:`ShardedStreamingScrubber` *is* a
:class:`~repro.core.streaming.StreamingScrubber` — the *coordinator* —
and inherits everything order-sensitive unchanged: bin bookkeeping,
grace-period labeling, balancing (the only RNG consumer) and the daily
retrain. Only the per-bin classification of closed bins is overridden
to fan out: flows are partitioned by hashed target prefix
(:class:`~repro.core.parallel.sharding.ShardPlan`), each shard batch is
aggregated/encoded/scored independently, and the reducer merges the
per-shard verdict lists by sorting on ``(bin, target_ip)``.

Because targets are disjoint across shards, per-shard aggregation is
exactly the restriction of the global aggregation, WoE encoding and tree
scoring are row-wise, and the reduce order equals the serial emission
order — so verdicts are **bit-identical** for any shard count and either
backend. ``equivalence_check=True`` (the CLI's ``--check``, a debug
mode) verifies that claim on every ingest against a shadow serial
engine and raises :class:`EquivalenceError` on the first divergence.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro import obs
from repro.bgp.messages import Update
from repro.core.features.sketches import SketchAggregator, SketchParams
from repro.core.parallel.backends import make_backend
from repro.core.parallel.sharding import ShardPlan
from repro.core.scrubber import IXPScrubber, ScrubberConfig, TargetVerdict
from repro.core.streaming import StreamingScrubber
from repro.netflow.dataset import FlowDataset
from repro.obs import names

#: Aggregation modes of the sharded engine (see docs/SKETCHES.md).
AGG_MODES = ("exact", "sketch")

__all__ = ["ShardedStreamingScrubber", "EquivalenceError", "AGG_MODES"]

#: Metric-name prefix owned by the coordinator. Shard registries are
#: stripped of any such entries before merging so stream-level counts
#: (``streaming.flows_ingested`` etc.) are never double-counted in the
#: merged operator snapshot.
_COORDINATOR_PREFIX = "streaming."


class EquivalenceError(AssertionError):
    """Sharded and serial execution disagreed on a verdict."""


def _strip_coordinator_names(snap: dict) -> dict:
    """Drop coordinator-owned metric names from a shard snapshot."""
    out = dict(snap)
    for kind in ("counters", "gauges", "histograms", "spans"):
        out[kind] = [
            entry
            for entry in snap.get(kind, ())
            if not entry["name"].startswith(_COORDINATOR_PREFIX)
        ]
    return out


class ShardedStreamingScrubber(StreamingScrubber):
    """Sharded drop-in for :class:`StreamingScrubber`.

    Parameters beyond the coordinator's (which are forwarded verbatim):

    n_shards:
        Shard count.
    backend:
        ``"serial"`` (in-process, the default) or ``"supervised"``
        (persistent worker processes under the fault-tolerant
        supervisor of :mod:`repro.core.resilience`). Verdicts do not
        depend on this.
    backend_options:
        Extra keyword arguments forwarded to the ``supervised`` backend
        constructor — ``start_method``, ``ipc`` (``"pipe"``/``"shm"`` —
        per-shard shared-memory batch rings, see ``docs/IPC.md``),
        ``ring_bytes``, ``shard_timeout``,
        ``max_restarts`` and ``fault_plan``.
    equivalence_check:
        Run a shadow serial engine on the same input and assert verdict
        equality on every call. Debug aid — it doubles the work. Exact
        mode only: sketch-mode verdicts are approximate by design and
        would always diverge from the shadow.
    agg / sketch_params:
        Aggregation mode of the counting path. ``"exact"`` (default)
        preserves today's outputs bit-for-bit; ``"sketch"`` turns the
        workers into sketch counters whose states merge at the
        coordinator (see :mod:`repro.core.features.sketches` and
        ``docs/SKETCHES.md`` for the ε/δ accuracy contract the
        ``sketch_params`` knob controls).
    """

    def __init__(
        self,
        config: Optional[ScrubberConfig] = None,
        n_shards: int = 2,
        backend: str = "serial",
        equivalence_check: bool = False,
        registry: Optional[obs.MetricRegistry] = None,
        backend_options: Optional[dict] = None,
        agg: str = "exact",
        sketch_params: Optional[SketchParams] = None,
        **engine_kwargs,
    ):
        if agg not in AGG_MODES:
            raise ValueError(f"unknown agg mode {agg!r}; expected one of {AGG_MODES}")
        if sketch_params is not None and agg != "sketch":
            raise ValueError("sketch_params requires agg='sketch'")
        if equivalence_check and agg == "sketch":
            raise ValueError(
                "equivalence_check requires exact aggregation: sketch-mode "
                "verdicts are approximate and cannot match the serial shadow"
            )
        super().__init__(config=config, registry=registry, **engine_kwargs)
        self._sketch_params = (
            (sketch_params or SketchParams()) if agg == "sketch" else None
        )
        self.plan = ShardPlan(n_shards)
        self._broadcast_model: Optional[IXPScrubber] = None
        self._shadow = (
            StreamingScrubber(config=config, **engine_kwargs)
            if equivalence_check
            else None
        )
        with obs.use_registry(self.registry):
            obs.gauge(names.G_PARALLEL_SHARDS).set(self.plan.n_shards)
        # Last, once every argument is validated: the backend owns
        # worker processes and shared segments, and an __init__ that
        # raised after creating it would strand them until the GC.
        self._backend = make_backend(
            backend, self.plan.n_shards, **(backend_options or {})
        )

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards

    @property
    def ipc_mode(self) -> str:
        return getattr(self._backend, "ipc", "inline")

    def warm_start(self, scrubber: IXPScrubber) -> "ShardedStreamingScrubber":
        super().warm_start(scrubber)
        if self._shadow is not None:
            self._shadow.warm_start(scrubber)
        return self

    def capture_state(self) -> dict:
        """JSON-safe snapshot of coordinator + shadow state."""
        from repro.core.recovery.state_codec import capture_sharded_state

        return capture_sharded_state(self)

    def restore_state(self, state: dict) -> "ShardedStreamingScrubber":
        """Restore a snapshot; the model re-broadcasts on the next bin."""
        from repro.core.recovery.state_codec import restore_sharded_state

        restore_sharded_state(self, state)
        return self

    def ingest(
        self, flows: FlowDataset, updates: Iterable[Update] = ()
    ) -> list[TargetVerdict]:
        updates = list(updates)
        verdicts = super().ingest(flows, updates)
        if self._shadow is not None:
            self._assert_equivalent(self._shadow.ingest(flows, updates), verdicts)
        return verdicts

    def flush(self) -> list[TargetVerdict]:
        verdicts = super().flush()
        if self._shadow is not None:
            self._assert_equivalent(self._shadow.flush(), verdicts)
        return verdicts

    # -- sharded classification ----------------------------------------
    def _classify_closed(
        self, closed: list[tuple[int, FlowDataset]]
    ) -> list[TargetVerdict]:
        scrubber = self._scrubber
        nonempty = [(b, flows) for b, flows in closed if len(flows)]
        if scrubber is None or not nonempty:
            return []
        with obs.span(names.SPAN_PARALLEL_CLASSIFY):
            parts: list[list[FlowDataset]] = [[] for _ in range(self.plan.n_shards)]
            total = 0
            for _, bin_flows in nonempty:
                ids = self.plan.assign(bin_flows.dst_ip)
                total += len(bin_flows)
                for shard in range(self.plan.n_shards):
                    selected = bin_flows.select(ids == shard)
                    if len(selected):
                        parts[shard].append(selected)
            shard_flows = [
                FlowDataset.concat(p) if p else None for p in parts
            ]
            obs.counter(names.C_PARALLEL_FLOWS_DISPATCHED).inc(total)
            if scrubber is not self._broadcast_model:
                self._backend.broadcast(scrubber)
                self._broadcast_model = scrubber
                obs.counter(names.C_PARALLEL_MODEL_BROADCASTS).inc()
            results = self._backend.classify(
                shard_flows,
                self.min_flows_per_verdict,
                agg=self._sketch_params,
            )
            with obs.span(names.SPAN_PARALLEL_MERGE):
                if self._sketch_params is not None:
                    merged = self._merge_sketch_states(results, scrubber)
                else:
                    merged = [v for shard_verdicts in results for v in shard_verdicts]
                    merged.sort(key=lambda v: (v.bin, v.target_ip))
            self._count_verdicts(merged)
        return merged

    def _merge_sketch_states(
        self, states: list, scrubber: IXPScrubber
    ) -> list[TargetVerdict]:
        """Fold per-shard sketch states, build records once, score them.

        The merge is elementwise integer addition over identically-
        seeded tables, so the folded state — and every verdict derived
        from it — is bitwise independent of shard count and merge
        order. Records come out ordered by (bin, target), the same
        emission order the exact reducer sorts into. Each state's
        arrays are adopted, not copied: ``states`` is spent afterwards.
        """
        merged = SketchAggregator(self._sketch_params)
        for state in states:
            if not state:
                continue
            merged.merge(SketchAggregator.from_state(state))
        data = merged.build_records(min_flows=self.min_flows_per_verdict)
        verdicts = scrubber.classify_aggregated(data)
        verdicts.sort(key=lambda v: (v.bin, v.target_ip))
        return verdicts

    # -- equivalence ----------------------------------------------------
    def _assert_equivalent(
        self, expected: list[TargetVerdict], actual: list[TargetVerdict]
    ) -> None:
        with obs.use_registry(self.registry):
            obs.counter(names.C_PARALLEL_EQUIVALENCE_CHECKS).inc()
        if len(expected) != len(actual):
            raise EquivalenceError(
                f"sharded run emitted {len(actual)} verdicts, "
                f"serial emitted {len(expected)}"
            )
        for serial_v, sharded_v in zip(expected, actual):
            if serial_v != sharded_v:
                raise EquivalenceError(
                    f"verdict divergence at bin {serial_v.bin} "
                    f"target {serial_v.target_ip}: "
                    f"serial={serial_v} sharded={sharded_v}"
                )

    # -- observability --------------------------------------------------
    def merged_snapshot(self) -> dict:
        """Coordinator + all shard registries folded into one snapshot."""
        # The registry is active while fetching so supervised-backend
        # bookkeeping during the fetch (deadline misses on a dead
        # worker) lands in the coordinator's series, not the default's.
        with obs.use_registry(self.registry):
            shard_snaps = [
                _strip_coordinator_names(snap) for snap in self._backend.snapshots()
            ]
        return obs.merge_snapshots([obs.snapshot(self.registry), *shard_snaps])

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down backend workers (idempotent)."""
        self._backend.close()
