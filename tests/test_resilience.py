"""Failure-path tests for ``repro.core.resilience`` and backend hardening.

Every chaos scenario here is *deterministic*: faults come from a seeded
:class:`FaultPlan` evaluated per dispatch attempt, so a failing run
replays identically. The invariant under test throughout is the
repository's tentpole guarantee — worker crashes, hangs, corrupted
pipes, quarantines and degradation must never change a verdict.
"""

from __future__ import annotations

import multiprocessing
import numpy as np
import pytest

from tests import strategies
from repro import obs
from repro.core.labeling.balancer import balance
from repro.core.parallel import (
    ShardPlan,
    ShardedStreamingScrubber,
    make_backend,
)
from repro.core.parallel.backends import WorkerPool
from repro.core.resilience import (
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    SupervisedProcessBackend,
)
from repro.core.scrubber import IXPScrubber, ScrubberConfig
from repro.core.streaming import StreamingScrubber
from repro.netflow.dataset import BIN_SECONDS
from repro.obs import names

ENGINE_KWARGS = dict(
    window_days=2,
    bins_per_day=48,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)

#: Generous deadline for tests where nothing is meant to time out.
SAFE_TIMEOUT = 30.0


@pytest.fixture(scope="module")
def fitted_scrubber() -> IXPScrubber:
    rng = strategies.rng_for(999)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


@pytest.fixture(scope="module")
def second_scrubber(fitted_scrubber) -> IXPScrubber:
    """A distinct model: deploying it mid-stream starts a new epoch."""
    rng = strategies.rng_for(998)
    labeled = strategies.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(8)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 12})
    return IXPScrubber(config).fit(balanced)


@pytest.fixture()
def workload():
    return strategies.labeled_flows(
        strategies.rng_for(7), n_flows=400, n_targets=10, n_bins=4
    )


@pytest.fixture()
def expected(fitted_scrubber, workload):
    """The serial-backend verdicts every chaos run must reproduce."""
    shard_flows = ShardPlan(2).split(workload)
    backend = make_backend("serial", 2, min_flows=3)
    backend.broadcast(fitted_scrubber)
    verdicts = backend.classify(shard_flows)
    assert any(v for v in verdicts)
    return verdicts


def _supervised(plan=None, **kwargs):
    kwargs.setdefault("shard_timeout", SAFE_TIMEOUT)
    return SupervisedProcessBackend(
        2, min_flows=3, fault_plan=plan if plan is not None else FaultPlan(), **kwargs
    )


def _counter(registry, name):
    metric = registry.get(name)
    return 0 if metric is None else metric.value


class TestFaultPlanParsing:
    def test_empty_inputs_yield_falsy_plan(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse("  ;  ")
        assert not FaultPlan()

    def test_single_spec_fields(self):
        plan = FaultPlan.parse("crash@0:batch=3:count=2")
        assert plan and len(plan) == 1
        assert plan.specs[0] == FaultSpec(kind="crash", shard=0, batch=3, count=2)

    def test_multi_spec_with_wildcards_and_params(self):
        plan = FaultPlan.parse(
            "hang@1:batch=5:secs=30; slow@*:secs=0.05; corrupt@2:batch=*"
        )
        hang, slow, corrupt = plan.specs
        assert hang == FaultSpec(kind="hang", shard=1, batch=5, seconds=30.0)
        assert slow.shard is None and slow.batch is None and slow.seconds == 0.05
        assert corrupt.kind == "corrupt" and corrupt.batch is None

    @pytest.mark.parametrize(
        "bad",
        [
            "explode@0",            # unknown kind
            "crash0:batch=1",       # missing @
            "crash@x",              # non-int shard
            "crash@0:batch=",       # empty value
            "crash@0:nope=1",       # unknown key
            "crash@0:count=0",      # count < 1
            "crash@0:scope=weekly", # unknown scope
            "hang@0:secs=soon",     # non-float secs
        ],
    )
    def test_malformed_specs_raise_value_error(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@1:batch=2")
        assert FaultPlan.from_env() == FaultPlan.parse("crash@1:batch=2")
        monkeypatch.delenv(FAULTS_ENV)
        assert not FaultPlan.from_env()

    def test_directive_matching(self):
        plan = FaultPlan.parse("crash@0:batch=3:count=2")
        assert plan.directive(0, 3, 0, 0) == ("crash", 0.0)
        assert plan.directive(0, 3, 0, 1) == ("crash", 0.0)  # retry dies too
        assert plan.directive(0, 3, 0, 2) is None  # third attempt passes
        assert plan.directive(1, 3, 0, 0) is None  # other shard untouched
        assert plan.directive(0, 2, 0, 0) is None  # other batch untouched

    def test_epoch_scope_uses_epoch_counter(self):
        plan = FaultPlan.parse("crash@0:batch=0:scope=epoch")
        # Lifetime batch 7, but first of its epoch: fires.
        assert plan.directive(0, 7, 0, 0) is not None
        # First lifetime batch but not first of the epoch: does not.
        assert plan.directive(0, 0, 3, 0) is None

    def test_hang_and_slow_default_seconds(self):
        hang = FaultPlan.parse("hang@0").directive(0, 0, 0, 0)
        slow = FaultPlan.parse("slow@0").directive(0, 0, 0, 0)
        assert hang[1] >= 3600
        assert 0 < slow[1] < 1


class TestProcessBackendHardening:
    """Construction and teardown hardening of the process backend."""

    def test_make_backend_forwards_start_method(self):
        backend = make_backend(
            "supervised", 1, start_method="spawn", fault_plan=FaultPlan()
        )
        try:
            spawn_cls = multiprocessing.get_context("spawn").Process
            assert isinstance(backend._procs[0], spawn_cls)
        finally:
            backend.close()

    def test_make_backend_knows_supervised(self):
        backend = make_backend(
            "supervised", 1, shard_timeout=5.0, fault_plan=FaultPlan()
        )
        try:
            assert isinstance(backend, SupervisedProcessBackend)
            assert backend.shard_timeout == 5.0
        finally:
            backend.close()

    def test_close_idempotent_after_partial_init(self, monkeypatch):
        # (The reaping itself is in test_parallel's conformance suite.)
        # __init__ already closed the half-built pool on its way out;
        # an owner's finally-block close() on top must be harmless.
        pools = []
        original = WorkerPool._start_worker

        def flaky_start(self, shard):
            pools.append(self)
            if shard == 1:
                raise RuntimeError("injected constructor failure")
            original(self, shard)

        monkeypatch.setattr(WorkerPool, "_start_worker", flaky_start)
        with pytest.raises(RuntimeError, match="injected"):
            _supervised()
        pools[0].close()
        pools[0].close()
        assert not pools[0]._finalizer.alive

    def test_supervised_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            _supervised(shard_timeout=0)
        with pytest.raises(ValueError):
            _supervised(max_restarts=-1)


class TestSupervisedBackend:
    def _run(self, plan, fitted_scrubber, workload, n_calls=1, **kwargs):
        """Drive the supervised backend; return (verdict lists, registry)."""
        registry = obs.MetricRegistry()
        shard_flows = ShardPlan(2).split(workload)
        with obs.use_registry(registry):
            backend = _supervised(plan, **kwargs)
            try:
                backend.broadcast(fitted_scrubber)
                results = [
                    backend.classify(shard_flows)
                    for _ in range(n_calls)
                ]
            finally:
                backend.close()
        return results, registry, backend

    def test_no_faults_matches_serial(self, fitted_scrubber, workload, expected):
        results, registry, _ = self._run(FaultPlan(), fitted_scrubber, workload)
        assert results[0] == expected
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 0

    def test_classify_before_broadcast_raises(self, workload):
        backend = _supervised()
        try:
            with pytest.raises(RuntimeError):
                backend.classify(ShardPlan(2).split(workload))
        finally:
            backend.close()

    def test_crash_restarts_and_retries(self, fitted_scrubber, workload, expected):
        plan = FaultPlan.parse("crash@0:batch=0")
        results, registry, _ = self._run(plan, fitted_scrubber, workload)
        assert results[0] == expected
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1
        assert _counter(registry, names.C_RESILIENCE_BATCH_RETRIES) == 1
        assert _counter(registry, names.C_RESILIENCE_FAULTS_INJECTED) == 1
        assert _counter(registry, names.C_RESILIENCE_BATCHES_QUARANTINED) == 0

    def test_poison_batch_is_quarantined(self, fitted_scrubber, workload, expected):
        # count=2: the retry dies too -> the batch is classified by the
        # coordinator, and the stream is not wedged.
        plan = FaultPlan.parse("crash@0:batch=0:count=2")
        results, registry, _ = self._run(plan, fitted_scrubber, workload, n_calls=2)
        assert results == [expected, expected]
        assert _counter(registry, names.C_RESILIENCE_BATCHES_QUARANTINED) == 1
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 2

    def test_hang_is_bounded_by_deadline(self, fitted_scrubber, workload, expected):
        plan = FaultPlan.parse("hang@1:batch=0")
        results, registry, _ = self._run(
            plan, fitted_scrubber, workload, shard_timeout=0.5
        )
        assert results[0] == expected
        assert _counter(registry, names.C_RESILIENCE_DEADLINE_MISSES) == 1
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1

    def test_slow_shard_still_answers_correctly(
        self, fitted_scrubber, workload, expected
    ):
        plan = FaultPlan.parse("slow@*:secs=0.05")
        results, registry, _ = self._run(plan, fitted_scrubber, workload)
        assert results[0] == expected
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 0

    def test_pipe_corruption_recovers(self, fitted_scrubber, workload, expected):
        plan = FaultPlan.parse("corrupt@0:batch=0")
        results, registry, _ = self._run(plan, fitted_scrubber, workload)
        assert results[0] == expected
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1

    def test_permanent_failure_degrades_to_serial(
        self, fitted_scrubber, workload, expected
    ):
        # Every attempt on shard 0 crashes; budget of 1 restart -> the
        # shard degrades and all later batches run in the coordinator.
        plan = FaultPlan.parse("crash@0:count=99")
        results, registry, backend = self._run(
            plan, fitted_scrubber, workload, n_calls=3, max_restarts=1
        )
        assert results == [expected, expected, expected]
        assert backend.degraded_shards == (0,)
        gauge = registry.get(names.G_RESILIENCE_DEGRADED_SHARDS)
        assert gauge is not None and gauge.value == 1
        # Only the in-budget restart counts; the attempt that blew the
        # budget degraded the shard instead, and later calls never
        # touched the respawn path again.
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1

    def test_degraded_snapshots_carry_fallback_work(
        self, fitted_scrubber, workload
    ):
        plan = FaultPlan.parse("crash@0:count=99")
        registry = obs.MetricRegistry()
        shard_flows = ShardPlan(2).split(workload)
        with obs.use_registry(registry):
            backend = _supervised(plan, max_restarts=0)
            try:
                backend.broadcast(fitted_scrubber)
                backend.classify(shard_flows)
                snaps = backend.snapshots()
            finally:
                backend.close()
        assert len(snaps) == 2
        degraded_counters = {
            c["name"]: c["value"] for c in snaps[0]["counters"]
        }
        # The quarantine/degraded path mirrors worker accounting.
        assert degraded_counters.get(names.C_PARALLEL_SHARD_FLOWS, 0) > 0

    def test_model_rebroadcast_after_restart(self, fitted_scrubber, workload):
        # Crash between batches (batch 0 of shard 0), then verify batch 1
        # still classifies: the fresh worker must have received the model
        # again or it would die with AttributeError on a None scrubber.
        plan = FaultPlan.parse("crash@0:batch=0")
        results, registry, _ = self._run(
            plan, fitted_scrubber, workload, n_calls=2
        )
        assert results[0] == results[1]
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1


class TestSupervisedEngine:
    """Full-engine chaos: the acceptance-criterion scenarios."""

    def _drive(self, engine, workload, redeploy=None):
        """Feed the workload bin by bin; optionally swap models mid-stream.

        ``redeploy`` maps a bin index to the scrubber to ``warm_start``
        just before that bin is ingested — each swap triggers a fresh
        broadcast on the next classify, i.e. a new fault-plan epoch,
        exactly like a daily retrain does.
        """
        bins = workload.time // BIN_SECONDS
        verdicts = []
        for b in range(int(bins.min()), int(bins.max()) + 1):
            if redeploy and b in redeploy:
                engine.warm_start(redeploy[b])
            verdicts.extend(engine.ingest(workload.select(bins == b)))
        verdicts.extend(engine.flush())
        return verdicts

    def test_kill_one_worker_per_epoch_is_bit_identical(
        self, fitted_scrubber, second_scrubber
    ):
        """A seeded plan killing one worker per model epoch drifts nothing.

        The mid-stream redeploy reproduces the retrain-epoch mechanics
        (new model -> broadcast -> epoch counter reset) without the
        nondeterminism of generating a multi-day training capture; the
        CI chaos job covers the real daily-retrain path end to end.
        """
        workload = strategies.labeled_flows(
            strategies.rng_for(21), n_flows=900, n_targets=12, n_bins=6
        )
        redeploy = {3: second_scrubber}
        serial = StreamingScrubber(**ENGINE_KWARGS).warm_start(fitted_scrubber)
        expected = self._drive(serial, workload, redeploy)
        assert expected

        plan = FaultPlan.parse("crash@0:batch=0:scope=epoch")
        with ShardedStreamingScrubber(
            n_shards=2,
            backend="supervised",
            backend_options=dict(
                shard_timeout=SAFE_TIMEOUT, fault_plan=plan
            ),
            **ENGINE_KWARGS,
        ) as engine:
            engine.warm_start(fitted_scrubber)
            actual = self._drive(engine, workload, redeploy)
            snap = engine.merged_snapshot()
        assert actual == expected
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        # One crash per epoch: the initial model and the redeployment.
        assert counters.get("parallel.model_broadcasts") == 2
        assert counters.get(names.C_RESILIENCE_WORKER_RESTARTS, 0) == 2
        assert counters.get(names.C_RESILIENCE_BATCH_RETRIES, 0) == 2

    def test_degrading_engine_still_matches_serial(self, fitted_scrubber):
        """A permanently dead shard degrades instead of hanging the run."""
        workload = strategies.labeled_flows(
            strategies.rng_for(33), n_flows=600, n_targets=10, n_bins=5
        )
        serial = StreamingScrubber(**ENGINE_KWARGS).warm_start(fitted_scrubber)
        expected = self._drive(serial, workload)

        plan = FaultPlan.parse("crash@1:count=9999")
        with ShardedStreamingScrubber(
            n_shards=2,
            backend="supervised",
            backend_options=dict(
                shard_timeout=SAFE_TIMEOUT,
                max_restarts=1,
                fault_plan=plan,
            ),
            **ENGINE_KWARGS,
        ) as engine:
            engine.warm_start(fitted_scrubber)
            actual = self._drive(engine, workload)
            snap = engine.merged_snapshot()
        assert actual == expected
        gauges = {g["name"]: g["value"] for g in snap["gauges"]}
        assert gauges.get(names.G_RESILIENCE_DEGRADED_SHARDS) == 1

    def test_equivalence_shadow_passes_under_faults(self, fitted_scrubber):
        """`--check` semantics: the shadow serial engine sees no drift."""
        workload = strategies.labeled_flows(
            strategies.rng_for(44), n_flows=400, n_targets=8, n_bins=4
        )
        plan = FaultPlan.parse("crash@0:batch=1;slow@1:secs=0.02")
        with ShardedStreamingScrubber(
            n_shards=2,
            backend="supervised",
            equivalence_check=True,
            backend_options=dict(
                shard_timeout=SAFE_TIMEOUT, fault_plan=plan
            ),
            **ENGINE_KWARGS,
        ) as engine:
            engine.warm_start(fitted_scrubber)
            verdicts = self._drive(engine, workload)
        assert verdicts


class TestShmResilience:
    """Chaos over the shared-memory transport (satellite of docs/IPC.md).

    The invariant is unchanged from the pipe-mode suites above: crashes,
    reclaims, quarantines and oversized-batch fallbacks must never
    change a verdict — and restart must re-attach the *live* ring and
    model segment, not re-pickle anything.
    """

    def _run_shm(self, plan, fitted_scrubber, workload, n_calls=1, **kwargs):
        registry = obs.MetricRegistry()
        shard_flows = ShardPlan(2).split(workload)
        with obs.use_registry(registry):
            backend = _supervised(plan, ipc="shm", **kwargs)
            try:
                backend.broadcast(fitted_scrubber)
                results = [
                    backend.classify(shard_flows)
                    for _ in range(n_calls)
                ]
            finally:
                backend.close()
        return results, registry, backend

    def test_crash_mid_frame_reclaims_and_retries(
        self, fitted_scrubber, workload, expected
    ):
        # The fault fires before the worker reads the ring, so the
        # frame is orphaned un-acked: the restart path must reclaim it
        # or every later dispatch would fall back to the pipe.
        plan = FaultPlan.parse("crash@0:batch=0")
        results, registry, _ = self._run_shm(
            plan, fitted_scrubber, workload, n_calls=2
        )
        assert results == [expected, expected]
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 1
        assert _counter(registry, names.C_RESILIENCE_BATCH_RETRIES) == 1
        # The retry and the second call both rode the ring: reclaim
        # really did free the orphaned frame.
        assert _counter(registry, names.C_PARALLEL_IPC_FALLBACKS) == 0

    def test_respawned_worker_maps_live_model_segment(
        self, fitted_scrubber, second_scrubber, workload, expected
    ):
        # Republish after the initial broadcast, then crash a worker:
        # the respawn must map the *current* segment version (the old
        # one is unlinked, so a stale re-attach would fail loudly).
        registry = obs.MetricRegistry()
        shard_flows = ShardPlan(2).split(workload)
        plan = FaultPlan.parse("crash@0:batch=0:scope=epoch")
        with obs.use_registry(registry):
            backend = _supervised(plan, ipc="shm")
            try:
                backend.broadcast(fitted_scrubber)
                backend.classify(shard_flows)
                backend.broadcast(second_scrubber)  # epoch 2, version 2
                second = backend.classify(shard_flows)
                third = backend.classify(shard_flows)
            finally:
                backend.close()
        assert second == third
        assert _counter(registry, names.C_RESILIENCE_WORKER_RESTARTS) == 2

    def test_poison_batch_quarantined_under_shm(
        self, fitted_scrubber, workload, expected
    ):
        plan = FaultPlan.parse("crash@0:batch=0:count=2")
        results, registry, _ = self._run_shm(
            plan, fitted_scrubber, workload, n_calls=2
        )
        assert results == [expected, expected]
        assert _counter(registry, names.C_RESILIENCE_BATCHES_QUARANTINED) == 1

    def test_oversized_batches_fall_back_under_supervision(
        self, fitted_scrubber, workload, expected
    ):
        results, registry, _ = self._run_shm(
            FaultPlan(), fitted_scrubber, workload, ring_bytes=1024
        )
        assert results[0] == expected
        assert _counter(registry, names.C_PARALLEL_IPC_FALLBACKS) == 2
        assert _counter(registry, names.C_PARALLEL_IPC_RING_BYTES) == 0

    def test_kill_per_epoch_with_shm_engine_is_bit_identical(
        self, fitted_scrubber, second_scrubber
    ):
        """The acceptance scenario of docs/IPC.md: chaos + shm + redeploy."""
        workload = strategies.labeled_flows(
            strategies.rng_for(21), n_flows=900, n_targets=12, n_bins=6
        )
        redeploy = {3: second_scrubber}
        serial = StreamingScrubber(**ENGINE_KWARGS).warm_start(fitted_scrubber)
        bins = workload.time // BIN_SECONDS
        expected = []
        for b in range(int(bins.min()), int(bins.max()) + 1):
            if b in redeploy:
                serial.warm_start(redeploy[b])
            expected.extend(serial.ingest(workload.select(bins == b)))
        expected.extend(serial.flush())
        assert expected

        plan = FaultPlan.parse("crash@0:batch=0:scope=epoch")
        with ShardedStreamingScrubber(
            n_shards=2,
            backend="supervised",
            backend_options=dict(
                shard_timeout=SAFE_TIMEOUT,
                fault_plan=plan,
                ipc="shm",
            ),
            **ENGINE_KWARGS,
        ) as engine:
            engine.warm_start(fitted_scrubber)
            assert engine._backend.ipc == "shm"
            actual = []
            for b in range(int(bins.min()), int(bins.max()) + 1):
                if b in redeploy:
                    engine.warm_start(redeploy[b])
                actual.extend(engine.ingest(workload.select(bins == b)))
            actual.extend(engine.flush())
            snap = engine.merged_snapshot()
        assert actual == expected
        counters = {c["name"]: c["value"] for c in snap["counters"]}
        assert counters.get(names.C_RESILIENCE_WORKER_RESTARTS, 0) == 2
        assert counters.get(names.C_PARALLEL_IPC_RING_BYTES, 0) > 0
        assert counters.get(names.C_PARALLEL_IPC_FALLBACKS, 0) == 0
