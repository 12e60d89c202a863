"""Unit tests for ``repro.core.parallel``: plan, backends, coordinator."""

from __future__ import annotations

import copy
import gc
import glob
import os

import numpy as np
import pytest

from tests import strategies
from tests.conftest import TINY_PROFILE
from repro import obs
from repro.core.labeling.balancer import balance
from repro.core.parallel import (
    EquivalenceError,
    SerialBackend,
    ShardPlan,
    ShardedStreamingScrubber,
    make_backend,
)
from repro.core.parallel.backends import WorkerPool
from repro.core.recovery import iter_chunks
from repro.core.resilience import FaultPlan, SupervisedProcessBackend
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.ixp.fabric import IXPFabric
from repro.netflow.dataset import FlowDataset
from repro.obs import names
from repro.traffic.workload import WorkloadGenerator

ENGINE_KWARGS = dict(
    window_days=2,
    bins_per_day=48,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)


@pytest.fixture(scope="module")
def fitted_scrubber() -> IXPScrubber:
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


@pytest.fixture()
def workload():
    return strategies.labeled_flows(
        strategies.rng_for(7), n_flows=400, n_targets=10, n_bins=4
    )


class TestShardPlan:
    def test_assign_is_deterministic_and_in_range(self):
        addresses = strategies.rng_for(3).integers(
            0, 2**32, size=2000, dtype=np.uint32
        )
        a = ShardPlan(4).assign(addresses)
        b = ShardPlan(4).assign(addresses)
        assert np.array_equal(a, b)
        assert a.min() >= 0 and a.max() < 4
        # The hash actually spreads load: every shard gets something.
        assert len(np.unique(a)) == 4

    def test_same_slash24_same_shard(self):
        plan = ShardPlan(8)
        base = 0xC6336400  # 198.51.100.0/24
        hosts = np.arange(base, base + 256, dtype=np.uint32)
        assert len(np.unique(plan.assign(hosts))) == 1

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ShardPlan(0)

    def test_split_partitions_completely(self, workload):
        plan = ShardPlan(4)
        parts = plan.split(workload)
        assert sum(len(p) for p in parts) == len(workload)
        for shard, part in enumerate(parts):
            if len(part):
                assert (plan.assign(part.dst_ip) == shard).all()

    def test_split_of_one_shard_is_the_batch(self, workload, monkeypatch):
        plan = ShardPlan(1)
        monkeypatch.setattr(FlowDataset, "select", None)  # no copy is made
        monkeypatch.setattr(plan, "assign", None)  # and no hash
        parts = plan.split(workload)
        assert len(parts) == 1 and parts[0] is workload


def _supervised(n_shards=2, **kwargs):
    """The process backend, no faults planned."""
    return SupervisedProcessBackend(n_shards, min_flows=3, **kwargs)


#: Every way shard work can run. The conformance suite below holds
#: each to the same contract, with SerialBackend the oracle.
BACKEND_CONFIGS = ["serial", "supervised-pipe", "supervised-shm"]


def _make(config: str):
    if config == "serial":
        return make_backend("serial", 2, min_flows=3)
    return _supervised(ipc=config.split("-")[1])


def _segment_names(backend) -> list[str]:
    """Names of every shared segment a backend currently owns."""
    return [ring.name for ring in getattr(backend, "_rings", []) if ring]


def _serial_verdicts(fitted_scrubber, shard_flows):
    """The oracle: what ``SerialBackend`` says about the same batches."""
    serial = make_backend("serial", 2, min_flows=3)
    serial.broadcast(fitted_scrubber)
    return serial.classify(shard_flows)


def _assert_matches_serial(backend, fitted_scrubber, workload):
    shard_flows = ShardPlan(2).split(workload)
    expected = _serial_verdicts(fitted_scrubber, shard_flows)
    try:
        backend.broadcast(fitted_scrubber)
        actual = backend.classify(shard_flows)
    finally:
        backend.close()
    assert actual == expected
    assert any(expected)


@pytest.mark.parametrize("config", BACKEND_CONFIGS)
class TestBackendConformance:
    """One contract for every backend configuration."""

    def test_matches_serial_backend(self, config, fitted_scrubber, workload):
        _assert_matches_serial(_make(config), fitted_scrubber, workload)

    def test_close_is_idempotent_and_unlinks_segments(
        self, config, fitted_scrubber
    ):
        backend = _make(config)
        backend.broadcast(fitted_scrubber)
        segments = _segment_names(backend)
        procs = list(getattr(backend, "_procs", []))
        backend.close()
        backend.close()
        for proc in procs:
            assert not proc.is_alive()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_close_safe_after_partial_init(self, config, monkeypatch):
        started, rings = [], []
        original = WorkerPool._start_worker

        def flaky_start(self, shard):
            if shard == 1:
                raise RuntimeError("injected constructor failure")
            original(self, shard)
            started.append(self._procs[shard])
            rings.extend(_segment_names(self))

        monkeypatch.setattr(WorkerPool, "_start_worker", flaky_start)
        if config == "serial":  # no pool: nothing can half-start
            _make(config).close()
            return
        with pytest.raises(RuntimeError, match="injected"):
            _make(config)
        # The worker that did start was stopped and reaped, and the
        # rings created before the failure unlinked, not leaked.
        assert len(started) == 1 and not started[0].is_alive()
        for name in rings:
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_finalizer_reaps_unclosed_pool(self, config):
        backend = _make(config)
        procs = list(getattr(backend, "_procs", []))
        segments = _segment_names(backend)
        finalizer = getattr(backend, "_finalizer", None)
        del backend
        gc.collect()
        assert finalizer is None or not finalizer.alive
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        for name in segments:
            assert not os.path.exists(f"/dev/shm/{name}")


class TestBackends:
    def test_make_backend_names_and_unknown(self):
        assert isinstance(make_backend("serial", 2), SerialBackend)
        with pytest.raises(ValueError, match="thread"):
            make_backend("thread", 2)
        # The retired unsupervised backend is just another unknown name.
        with pytest.raises(ValueError, match="unknown backend 'process'"):
            make_backend("process", 2)

    def test_serial_backend_rejects_options(self):
        """Regression: ``backend_options`` on the serial backend used to
        raise a ``TypeError`` from the constructor, naming no option."""
        with pytest.raises(ValueError, match=r"no options; got \['ipc'\]"):
            make_backend("serial", 2, ipc="shm")
        with pytest.raises(ValueError, match=r"no options; got \['ipc'\]"):
            ShardedStreamingScrubber(
                n_shards=2, backend="serial", backend_options={"ipc": "shm"},
                **ENGINE_KWARGS,
            )

    def test_classify_before_broadcast_raises(self, workload):
        backend = make_backend("serial", 2)
        with pytest.raises(RuntimeError):
            backend.classify(ShardPlan(2).split(workload))

    def test_process_matches_serial_backend(self, fitted_scrubber, workload):
        # The default construction path (make_backend, ipc default).
        _assert_matches_serial(
            make_backend("supervised", 2, min_flows=3),
            fitted_scrubber, workload,
        )

    def test_process_close_is_idempotent(self):
        # Closing a pool that never received a model.
        backend = _supervised()
        backend.close()
        backend.close()


class TestShmBackend:
    """The shm transport: ring traffic, fallbacks, footprint."""

    def test_shm_matches_serial_backend(self, fitted_scrubber, workload):
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            _assert_matches_serial(
                make_backend("supervised", 2, min_flows=3, ipc="shm"),
                fitted_scrubber, workload,
            )
        # Both batches travelled the ring, not the pipe.
        ring_bytes = registry.get(names.C_PARALLEL_IPC_RING_BYTES)
        assert ring_bytes is not None and ring_bytes.value > 0
        assert registry.get(names.C_PARALLEL_IPC_FALLBACKS) is None

    def test_tiny_ring_falls_back_to_pipe(self, fitted_scrubber, workload):
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            # 1 KiB rings: every batch is oversized -> pickled pipe.
            _assert_matches_serial(
                _supervised(ipc="shm", ring_bytes=1024), fitted_scrubber, workload
            )
        fallbacks = registry.get(names.C_PARALLEL_IPC_FALLBACKS)
        assert fallbacks is not None and fallbacks.value == 2

    def test_dead_worker_is_respawned_at_broadcast(self, fitted_scrubber, workload):
        # The respawned worker receives the new model through the
        # restart path and classifies with it.
        shard_flows = ShardPlan(2).split(workload)
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            backend = _supervised(ipc="shm")
            try:
                backend.broadcast(copy.copy(fitted_scrubber))
                backend._procs[1].terminate()
                backend._procs[1].join(timeout=5)
                backend.broadcast(fitted_scrubber)
                assert all(p.is_alive() for p in backend._procs)
                actual = backend.classify(shard_flows)
            finally:
                backend.close()
        assert actual == _serial_verdicts(fitted_scrubber, shard_flows)
        assert registry.get(names.C_RESILIENCE_WORKER_RESTARTS).value == 1

    def test_segments_are_the_rings_through_two_models_and_a_crash(
        self, fitted_scrubber, workload
    ):
        """The transport's whole footprint: one ring per shard, from
        construction to close, whatever is broadcast or restarted."""
        mine = f"/dev/shm/repro-*-{os.getpid()}-*"
        before = set(glob.glob(mine))
        shard_flows = ShardPlan(2).split(workload)
        expected = _serial_verdicts(fitted_scrubber, shard_flows)
        registry = obs.MetricRegistry()
        with obs.use_registry(registry):
            backend = SupervisedProcessBackend(
                2, min_flows=3, ipc="shm", fault_plan=FaultPlan.parse("crash@0:batch=0")
            )
            try:
                backend.broadcast(fitted_scrubber)
                backend.broadcast(copy.copy(fitted_scrubber))  # a second model
                # Shard 0's worker dies on its batch; the respawn gets the
                # kept model message and the retried batch over its ring.
                actual = backend.classify(shard_flows)
                alive = set(glob.glob(mine)) - before
            finally:
                backend.close()
        assert actual == expected and any(expected)
        assert registry.get(names.C_RESILIENCE_WORKER_RESTARTS).value == 1
        assert len(alive) == 2
        assert all(os.path.basename(p).startswith("repro-ring-") for p in alive)
        assert set(glob.glob(mine)) == before

    def test_close_unlinks_all_segments(self, fitted_scrubber):
        # Two broadcast models, then close: the rings are gone.
        backend = _supervised(ipc="shm")
        backend.broadcast(fitted_scrubber)
        segments = _segment_names(backend)
        backend.broadcast(copy.copy(fitted_scrubber))
        segments += _segment_names(backend)
        backend.close()
        assert len(set(segments)) == 2
        for name in set(segments):
            assert not os.path.exists(f"/dev/shm/{name}")

    def test_invalid_ipc_mode_raises(self):
        with pytest.raises(ValueError, match="ipc mode"):
            SupervisedProcessBackend(2, ipc="carrier-pigeon")
        with pytest.raises(ValueError, match="ipc mode"):
            make_backend("supervised", 2, ipc="tcp")


class TestShardedEngine:
    def test_context_manager_and_double_close(self, fitted_scrubber, workload):
        with ShardedStreamingScrubber(
            n_shards=2, **ENGINE_KWARGS
        ) as engine:
            engine.warm_start(fitted_scrubber)
            assert engine.is_ready and engine.model is fitted_scrubber
            assert engine.n_shards == 2
            assert isinstance(engine._backend, SerialBackend)
            verdicts = engine.ingest(workload) + engine.flush()
            assert verdicts
        engine.close()  # second close is a no-op

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_n_shards_is_the_only_shard_count(self, n):
        """Regression: ``plan=ShardPlan(4)`` next to ``n_shards=2`` used
        to build four shards without a word."""
        with ShardedStreamingScrubber(n_shards=n, **ENGINE_KWARGS) as engine:
            assert engine.n_shards == n
            assert engine._backend.n_shards == n
            assert engine.registry.get("parallel.shards").value == n
        with pytest.raises(TypeError):
            ShardedStreamingScrubber(n_shards=2, plan=ShardPlan(4), **ENGINE_KWARGS)

    def test_equivalence_check_counts_and_passes(self, fitted_scrubber, workload):
        engine = ShardedStreamingScrubber(
            n_shards=2, equivalence_check=True, **ENGINE_KWARGS
        ).warm_start(fitted_scrubber)
        engine.ingest(workload)
        engine.flush()
        checks = engine.registry.get("parallel.equivalence_checks")
        assert checks is not None and checks.value == 2

    def test_equivalence_error_on_divergence(self, fitted_scrubber, workload):
        engine = ShardedStreamingScrubber(
            n_shards=2, equivalence_check=True, **ENGINE_KWARGS
        ).warm_start(fitted_scrubber)
        # Sabotage the shadow: no model -> it emits no verdicts while
        # the sharded engine does, so the first ingest must trip.
        engine._shadow._scrubber = None
        with pytest.raises(EquivalenceError):
            engine.ingest(workload)

    def test_rejected_arguments_spawn_nothing(self):
        """Regression: arguments are validated before the backend exists.

        The shadow/sketch conflict used to be detected after the
        backend was built, so the ValueError left live workers and
        /dev/shm segments to the GC finalizer.
        """
        import glob
        import multiprocessing

        mine = f"/dev/shm/repro-*-{os.getpid()}-*"
        children = set(multiprocessing.active_children())
        segments = set(glob.glob(mine))
        with pytest.raises(ValueError, match="exact aggregation"):
            ShardedStreamingScrubber(
                n_shards=2, backend="supervised",
                backend_options={"ipc": "shm"},
                equivalence_check=True, agg="sketch", **ENGINE_KWARGS
            )
        assert set(multiprocessing.active_children()) == children
        assert set(glob.glob(mine)) == segments

    def test_merged_snapshot_counts_stream_totals_once(
        self, fitted_scrubber, workload
    ):
        engine = ShardedStreamingScrubber(
            n_shards=4, **ENGINE_KWARGS
        ).warm_start(fitted_scrubber)
        engine.ingest(workload)
        engine.flush()
        snap = engine.merged_snapshot()
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        # Coordinator-owned stream totals appear exactly once, not once
        # per shard registry.
        assert counters["streaming.flows_ingested"] == len(workload)
        # Every dispatched flow reached exactly one shard.
        assert counters["parallel.shard_flows"] == counters[
            "parallel.flows_dispatched"
        ]
        assert counters["parallel.model_broadcasts"] == 1
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges["parallel.shards"] == 4
        span_names = {s["name"] for s in snap["spans"]}
        assert {"parallel.classify", "parallel.shard_classify",
                "parallel.merge"} <= span_names

    def test_min_flows_threshold_respected(self, fitted_scrubber, workload):
        engine = ShardedStreamingScrubber(
            n_shards=2, **{**ENGINE_KWARGS, "min_flows_per_verdict": 10**9}
        ).warm_start(fitted_scrubber)
        assert engine.ingest(workload) + engine.flush() == []


@pytest.fixture(scope="module", params=BACKEND_CONFIGS)
def driven_engine(request, fitted_scrubber):
    """An engine driven over three days of the tiny capture.

    Warm-started, retrained daily, and restored from its own snapshot
    halfway. Returns the merged counters, the retrain count and the
    shard snapshots.
    """
    capture = WorkloadGenerator(IXPFabric(TINY_PROFILE)).generate(0, 3)
    backend, _, ipc = request.param.partition("-")
    options = dict(ipc=ipc) if ipc else {}
    with ShardedStreamingScrubber(
        config=ScrubberConfig(model="XGB", model_params={"n_estimators": 5}),
        window_days=2, bins_per_day=TINY_PROFILE.bins_per_day, seed=1,
        n_shards=2, backend=backend, backend_options=options,
    ) as engine:
        engine.warm_start(fitted_scrubber)
        chunks = list(iter_chunks(capture.flows, capture.updates))
        for tick, chunk, updates in chunks:
            if tick == len(chunks) // 2:
                engine.restore_state(engine.capture_state())
            engine.ingest(chunk, updates)
        engine.flush()
        snap = engine.merged_snapshot()
        shard_snaps = engine._backend.snapshots()
    counters = {c["name"]: c["value"] for c in snap["counters"]}
    return counters, engine.stats.retrainings, shard_snaps


class TestShardedEngineProtocol:
    """What the backend protocol looks like from a driven engine."""

    def test_one_broadcast_per_deployed_model(self, driven_engine):
        counters, retrainings, _ = driven_engine
        assert retrainings >= 2
        # The warm start, every retrain, and the model restore_state
        # brought back: the engine's epoch check is the only one.
        assert counters[names.C_PARALLEL_MODEL_BROADCASTS] == 1 + retrainings + 1

    def test_shard_snapshots_carry_no_coordinator_names(self, driven_engine):
        """Stream totals are the coordinator's alone, so the merged
        snapshot counts each of them once."""
        _, _, shard_snaps = driven_engine
        seen = set()
        for snap in shard_snaps:
            for kind in ("counters", "gauges", "histograms", "spans"):
                entries = {entry["name"] for entry in snap[kind]}
                assert not any(n.startswith("streaming.") for n in entries), kind
                seen |= entries
        assert names.SPAN_PARALLEL_SHARD_CLASSIFY in seen
