"""Per-layer metrics of the traced lap.

The layers are the repo's modules. ``TARGETS`` is the declared table of
public callables the span recorder wraps; ``LAYER_METRICS`` names every
per-layer metric with its unit and direction (``BENCHMARK.json`` lists
the same, ``test_harness.py`` keeps the two equal). Every workload
reports every metric; a layer a workload does not use reads 0.

Worker-side time is *read*, not traced: the engine already returns the
shard registries through ``merged_snapshot()``, and spans inside the
program are a later issue. So on ``detect_sharded`` the aggregate /
encode / score rows read 0 and ``parallel.worker_busy_share`` stands
for them.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path

import numpy as np

from spans import Span, Target, self_times

# -- what gets wrapped ---------------------------------------------------


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_nbytes(v) for v in obj)
    return 0


def _len_arg(position: int):
    return lambda args, kwargs, result: (len(args[position]), 0)


def _len_arg_and_result(position: int):
    return lambda args, kwargs, result: (len(args[position]), len(result))


def _shard_sizes(args, kwargs, result) -> tuple[int, int]:
    return len(result), int(np.bincount(result).max()) if len(result) else 0


_ENGINE = "repro.core.parallel.engine"
_SCRUBBER = "repro.core.scrubber"
_SKETCH = "repro.core.features.sketches"
_BACKENDS = (
    ("repro.core.parallel.backends", "SerialBackend"),
    ("repro.core.resilience.supervisor", "SupervisedProcessBackend"),
)

TARGETS: list[Target] = [
    Target(_ENGINE, "ShardedStreamingScrubber.ingest", "streaming.ingest", _len_arg(1)),
    Target(_ENGINE, "ShardedStreamingScrubber.flush", "streaming.ingest"),
    Target("repro.bgp.blackhole", "BlackholeRegistry.label_flows", "bgp.label", _len_arg(1)),
    # `balance`, `aggregate*`, `assemble` and `build_verdicts` are looked
    # up in their caller's module, so that is where they are replaced.
    Target("repro.core.streaming", "balance", "labeling.balance",
           lambda a, k, r: (len(a[0]), len(r.flows))),
    Target(_SCRUBBER, "aggregate_batch", "features.aggregate", _len_arg_and_result(0)),
    Target(_SCRUBBER, "aggregate", "features.fit_aggregate", _len_arg_and_result(0)),
    Target(_SKETCH, "SketchAggregator.absorb", "sketch.absorb", _len_arg(1)),
    Target(_SKETCH, "SketchAggregator.to_state", "sketch.to_state",
           lambda a, k, r: (0, _nbytes(r))),
    Target(_SKETCH, "SketchAggregator.from_state", "sketch.from_state"),
    Target(_SKETCH, "SketchAggregator.merge", "sketch.merge"),
    Target(_SKETCH, "SketchAggregator.build_records", "sketch.build",
           lambda a, k, r: (0, len(r))),
    Target("repro.core.encoding.matrix", "MatrixAssembler.assemble",
           "encoding.assemble", _len_arg(1)),
    Target(_SCRUBBER, "assemble", "encoding.assemble", _len_arg(0)),
    Target("repro.core.models.pipeline", "ModelPipeline.predict_proba",
           "models.predict", _len_arg(1)),
    Target("repro.core.models.pipeline", "ModelPipeline.fit", "models.fit"),
    Target(_SCRUBBER, "build_verdicts", "scrubber.build_verdicts", _len_arg(0)),
    Target(_SCRUBBER, "IXPScrubber.fit", "scrubber.fit", _len_arg(1)),
    Target(_SCRUBBER, "IXPScrubber.mine_tagging_rules", "rules.mine"),
    Target("repro.core.encoding.woe", "WoEEncoder.fit", "encoding.woe_fit"),
    Target("repro.core.parallel.sharding", "ShardPlan.assign", "parallel.assign", _shard_sizes),
    Target("repro.netflow.dataset", "FlowDataset.select", "netflow.select"),
    Target("repro.netflow.dataset", "FlowDataset.concat", "netflow.concat"),
    *(
        Target(module, f"{cls}.{method}", span)
        for module, cls in _BACKENDS
        for method, span in (
            ("classify", "parallel.classify_wait"),
            ("broadcast", "parallel.broadcast"),
        )
    ),
]

# -- what gets reported --------------------------------------------------

#: (name, unit, better). Times per tick are means over the traced lap.
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("traffic.generate_s", "s", "lower"),
    ("netflow.chunk_s", "s", "lower"),
    ("scrubber.warm_fit_s", "s", "lower"),
    ("parallel.spawn_s", "s", "lower"),
    ("streaming.ingest_self_ms", "ms", "lower"),
    ("bgp.label_ms_per_kflow", "ms/kflow", "lower"),
    ("labeling.balance_ms_per_kflow", "ms/kflow", "lower"),
    ("labeling.kept_share", "ratio", "lower"),
    ("features.aggregate_ms_per_kflow", "ms/kflow", "lower"),
    ("features.records_per_kflow", "1/kflow", "lower"),
    ("features.fit_aggregate_ms_per_kflow", "ms/kflow", "lower"),
    ("sketch.absorb_ms_per_kflow", "ms/kflow", "lower"),
    ("sketch.state_roundtrip_ms", "ms", "lower"),
    ("sketch.merge_ms", "ms", "lower"),
    ("sketch.build_ms_per_record", "ms/record", "lower"),
    ("sketch.records_per_tick", "count", "lower"),
    ("sketch.state_bytes", "bytes", "lower"),
    ("encoding.assemble_ms_per_krecord", "ms/krecord", "lower"),
    ("models.predict_ms_per_krecord", "ms/krecord", "lower"),
    ("scrubber.build_verdicts_ms_per_krecord", "ms/krecord", "lower"),
    ("scrubber.fit_ms", "ms", "lower"),
    ("rules.mine_ms", "ms", "lower"),
    ("encoding.woe_fit_ms", "ms", "lower"),
    ("models.fit_ms", "ms", "lower"),
    ("streaming.training_flows", "count", "lower"),
    ("parallel.split_ms_per_kflow", "ms/kflow", "lower"),
    ("parallel.classify_wait_ms", "ms", "lower"),
    ("parallel.merge_ms", "ms", "lower"),
    ("parallel.broadcast_ms", "ms", "lower"),
    ("parallel.worker_busy_share", "ratio", "higher"),
    ("parallel.shard_skew", "ratio", "lower"),
    ("parallel.coordinator_cpu_s", "s", "lower"),
    ("parallel.worker_cpu_s", "s", "lower"),
    ("parallel.ring_bytes", "bytes", "lower"),
    ("parallel.ipc_fallbacks", "count", "lower"),
    ("parallel.broadcast_bytes", "bytes", "lower"),
    ("parallel.model_broadcasts", "count", "lower"),
    ("resilience.worker_restarts", "count", "lower"),
    ("resilience.deadline_misses", "count", "lower"),
    ("recovery.journal_append_ms", "ms", "lower"),
    ("recovery.journal_bytes", "bytes", "lower"),
    ("recovery.capture_state_ms", "ms", "lower"),
    ("recovery.checkpoint_save_ms", "ms", "lower"),
    ("recovery.state_bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.speed_factor", "ratio", "lower"),
]

#: Engine counters copied from ``merged_snapshot()`` (metric -> obs name).
SNAPSHOT_COUNTERS = {
    "parallel.ring_bytes": "parallel.ipc_ring_bytes",
    "parallel.ipc_fallbacks": "parallel.ipc_fallbacks",
    "parallel.broadcast_bytes": "parallel.broadcast_bytes",
    "parallel.model_broadcasts": "parallel.model_broadcasts",
    "resilience.worker_restarts": "resilience.worker_restarts",
    "resilience.deadline_misses": "resilience.deadline_misses",
}


def snapshot_counter(snapshot: dict, name: str) -> float:
    return sum(c["value"] for c in snapshot["counters"] if c["name"] == name)


def snapshot_span_seconds(snapshot: dict, name: str) -> float:
    return sum(s["total_seconds"] for s in snapshot["spans"] if s["name"] == name)


class _Totals:
    __slots__ = ("seconds", "self_seconds", "calls", "n_in", "n_out")

    def __init__(self):
        self.seconds = self.self_seconds = 0.0
        self.calls = self.n_in = self.n_out = 0


def summarize(spans: list[Span]) -> dict[str, _Totals]:
    """Totals per span name; spans under ``scrubber.fit`` get a ``fit/`` prefix.

    The prefix keeps the retrain's encode/score calls apart from the
    detection path's, which share callables.
    """
    selfs = self_times(spans)
    in_fit = [False] * len(spans)
    out: dict[str, _Totals] = {}
    for i, span in enumerate(spans):
        in_fit[i] = span.parent >= 0 and (
            in_fit[span.parent] or spans[span.parent].name == "scrubber.fit"
        )
        totals = out.setdefault(("fit/" if in_fit[i] else "") + span.name, _Totals())
        totals.seconds += span.duration
        totals.self_seconds += selfs[i]
        totals.calls += 1
        totals.n_in += span.n_in
        totals.n_out += span.n_out
    return out


def _split_seconds(spans: list[Span]) -> float:
    """Time to split bins across shards: assign plus the per-shard copies.

    The copies are ``select``/``concat`` calls made by the same caller
    between an ``assign`` and the dispatch that follows it.
    """
    total, splitting_for = 0.0, None
    for span in spans:
        if span.name == "parallel.assign":
            splitting_for = span.parent
            total += span.duration
        elif span.name == "parallel.classify_wait":
            splitting_for = None
        elif (
            splitting_for is not None
            and span.parent == splitting_for
            and span.name in ("netflow.select", "netflow.concat")
        ):
            total += span.duration
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span], snapshot: dict, ticks: int, n_shards: int
) -> dict[str, float]:
    """Per-layer metrics the span list and the engine snapshot give."""
    t = summarize(spans)

    def get(name: str) -> _Totals:
        return t.get(name, _Totals())

    def ms_per_k(name: str) -> float:
        return _ratio(get(name).seconds * 1e3, get(name).n_in / 1e3)

    def ms_per_tick(seconds: float) -> float:
        return _ratio(seconds * 1e3, ticks)

    def ms_per_call(name: str) -> float:
        return _ratio(get(name).seconds * 1e3, get(name).calls)

    assign, wait = get("parallel.assign"), get("parallel.classify_wait")
    out = {
        "streaming.ingest_self_ms": ms_per_tick(get("streaming.ingest").self_seconds),
        "bgp.label_ms_per_kflow": ms_per_k("bgp.label"),
        "labeling.balance_ms_per_kflow": ms_per_k("labeling.balance"),
        "labeling.kept_share": _ratio(
            get("labeling.balance").n_out, get("labeling.balance").n_in
        ),
        "features.aggregate_ms_per_kflow": ms_per_k("features.aggregate"),
        "features.records_per_kflow": _ratio(
            get("features.aggregate").n_out, get("features.aggregate").n_in / 1e3
        ),
        "features.fit_aggregate_ms_per_kflow": ms_per_k("fit/features.fit_aggregate"),
        "sketch.absorb_ms_per_kflow": ms_per_k("sketch.absorb"),
        "sketch.state_roundtrip_ms": ms_per_tick(
            get("sketch.to_state").seconds + get("sketch.from_state").seconds
        ),
        "sketch.merge_ms": ms_per_tick(get("sketch.merge").seconds),
        "sketch.build_ms_per_record": _ratio(
            get("sketch.build").seconds * 1e3, get("sketch.build").n_out
        ),
        "sketch.records_per_tick": _ratio(get("sketch.build").n_out, ticks),
        "sketch.state_bytes": _ratio(
            get("sketch.to_state").n_out, get("sketch.to_state").calls
        ),
        "encoding.assemble_ms_per_krecord": ms_per_k("encoding.assemble"),
        "models.predict_ms_per_krecord": ms_per_k("models.predict"),
        "scrubber.build_verdicts_ms_per_krecord": ms_per_k("scrubber.build_verdicts"),
        "scrubber.fit_ms": ms_per_call("scrubber.fit"),
        "rules.mine_ms": _ratio(get("fit/rules.mine").seconds * 1e3, get("scrubber.fit").calls),
        "encoding.woe_fit_ms": _ratio(
            get("fit/encoding.woe_fit").seconds * 1e3, get("scrubber.fit").calls
        ),
        "models.fit_ms": _ratio(get("fit/models.fit").seconds * 1e3, get("scrubber.fit").calls),
        "streaming.training_flows": _ratio(get("scrubber.fit").n_in, get("scrubber.fit").calls),
        "parallel.split_ms_per_kflow": _ratio(_split_seconds(spans) * 1e3, assign.n_in / 1e3),
        "parallel.classify_wait_ms": ms_per_tick(wait.seconds),
        "parallel.merge_ms": ms_per_tick(snapshot_span_seconds(snapshot, "parallel.merge")),
        "parallel.broadcast_ms": ms_per_call("parallel.broadcast"),
        "parallel.worker_busy_share": _ratio(
            snapshot_span_seconds(snapshot, "parallel.shard_classify"),
            n_shards * wait.seconds,
        ),
        "parallel.shard_skew": _ratio(assign.n_out, assign.n_in / n_shards),
    }
    for metric, counter in SNAPSHOT_COUNTERS.items():
        out[metric] = snapshot_counter(snapshot, counter)
    return out


def span_table(spans: list[Span], wall: float) -> list[tuple[str, int, float, float, float]]:
    """(name, calls, seconds, self seconds, share of wall) by seconds, descending."""
    rows = [
        (name, t.calls, t.seconds, t.self_seconds, _ratio(t.seconds, wall))
        for name, t in summarize(spans).items()
    ]
    return sorted(rows, key=lambda r: -r[2])


# -- recovery stage --------------------------------------------------------

CHECKPOINT_EVERY = 8


def recovery_metrics(engine, tick_verdicts: list[list], directory: Path) -> dict[str, float]:
    """Journal every tick's verdicts and checkpoint every eighth tick.

    Runs after the traced lap, on the engine that ran it, so the state
    it captures is the steady state a long-running engine carries. The
    directory is inside the checkout (the benchmark writes nowhere
    else), so the journal's fsync per append is part of the figure.
    """
    from repro.core.recovery import CheckpointStore, VerdictJournal

    clock = time.perf_counter
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    append = capture = save = 0.0
    saves = state_bytes = 0
    try:
        store = CheckpointStore(directory / "ckpt")
        with VerdictJournal.open(directory / "journal.log") as journal:
            for tick, verdicts in enumerate(tick_verdicts):
                t0 = clock()
                journal.append(tick, verdicts)
                append += clock() - t0
                if tick % CHECKPOINT_EVERY == CHECKPOINT_EVERY - 1:
                    t0 = clock()
                    state = engine.capture_state()
                    t1 = clock()
                    manifest = store.save(tick, state)
                    save += clock() - t1
                    capture += t1 - t0
                    saves += 1
                    state_bytes = manifest.with_name(
                        manifest.name.replace(".manifest.", ".state.")
                    ).stat().st_size
        journal_bytes = (directory / "journal.log").stat().st_size
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "recovery.journal_append_ms": _ratio(append * 1e3, len(tick_verdicts)),
        "recovery.journal_bytes": float(journal_bytes),
        "recovery.capture_state_ms": _ratio(capture * 1e3, saves),
        "recovery.checkpoint_save_ms": _ratio(save * 1e3, saves),
        "recovery.state_bytes": float(state_bytes),
    }
