"""Tests for the crash-safe checkpoint/restore subsystem.

Three layers, matching ``src/repro/core/recovery``:

1. the tagged JSON value codec (Hypothesis round-trip properties);
2. the durable on-disk formats — snapshot store + verdict journal —
   including corruption rejection and torn-tail recovery;
3. the resume protocol end to end: kill the driver at an arbitrary
   tick, resume, and require the concatenated verdict stream to be
   bit-identical to an uninterrupted run (exactly once, no loss).

Supervised-backend and sketch-mode crash matrices are
``slow``-marked; tier-1 covers the serial engine at 1 and 2 shards.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests import strategies as local
from repro.core.labeling.balancer import balance
from repro.core.parallel.engine import ShardedStreamingScrubber
from repro.core.recovery import (
    CheckpointConfigError,
    CheckpointStore,
    CorruptJournalError,
    CorruptSnapshotError,
    JournalExistsError,
    NoCheckpointError,
    RecoverySession,
    ResumeDivergenceError,
    VerdictJournal,
    decode_value,
    drive_engine,
    durable_write,
    encode_value,
    iter_chunks,
)
from repro.core.recovery.journal import canonical_entry
from repro.core.resilience import FaultPlan, SupervisedProcessBackend
from repro.core.scrubber import IXPScrubber, ScrubberConfig, TargetVerdict
from repro.core.streaming import StreamingScrubber

# ----------------------------------------------------------------------
# Shared fixtures: a fitted model and a multi-bin workload.
# ----------------------------------------------------------------------

ENGINE_KWARGS = dict(
    window_days=2,
    bins_per_day=24,
    min_flows_per_verdict=3,
    label_grace_bins=10**6,
    seed=1,
)


@pytest.fixture(scope="module")
def scrubber():
    rng = local.rng_for(999)
    labeled = local.labeled_flows(rng, n_flows=6000, n_targets=12, n_bins=20)
    balanced = balance(labeled, np.random.default_rng(7)).flows
    config = ScrubberConfig(model="XGB", model_params={"n_estimators": 10})
    return IXPScrubber(config).fit(balanced)


@pytest.fixture(scope="module")
def workload():
    return local.labeled_flows(
        local.rng_for(321), n_flows=2400, n_targets=10, n_bins=24
    )


def make_engine(scrubber, **overrides):
    kwargs = {**ENGINE_KWARGS, **overrides}
    return StreamingScrubber(**kwargs).warm_start(scrubber)


def make_sharded(scrubber, n_shards=2, **overrides):
    kwargs = {**ENGINE_KWARGS, **overrides}
    engine = ShardedStreamingScrubber(
        n_shards=n_shards, backend=kwargs.pop("backend", "serial"),
        agg=kwargs.pop("agg", "exact"),
        backend_options=kwargs.pop("backend_options", {}), **kwargs,
    )
    engine.warm_start(scrubber)
    return engine


def assert_same_verdicts(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.bin, a.target_ip, a.is_ddos) == (b.bin, b.target_ip, b.is_ddos)
        assert a.score == b.score  # bitwise, not approx
        assert tuple(a.matched_rules) == tuple(b.matched_rules)


# ----------------------------------------------------------------------
# Value codec properties.
# ----------------------------------------------------------------------

_DTYPES = st.sampled_from(["float64", "float32", "int64", "int32",
                           "uint32", "uint8", "bool"])


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(_DTYPES))
    shape = draw(st.lists(st.integers(0, 5), min_size=0, max_size=3))
    n = int(np.prod(shape)) if shape else 1
    raw = draw(st.binary(min_size=n * dtype.itemsize,
                         max_size=n * dtype.itemsize))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


#: Bare (non-array) floats must stay finite: snapshots are serialized
#: with ``allow_nan=False`` so NaN/inf can never hide in a checkpoint.
#: Array payloads travel as raw bytes and may hold any bit pattern.
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**100, 2**100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
)

nested_values = st.recursive(
    st.one_of(json_scalars, arrays()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
        st.dictionaries(st.integers(-10**6, 10**6), children, max_size=4),
        st.sets(st.integers(-10**6, 10**6), max_size=6),
    ),
    max_leaves=12,
)


def equivalent(a, b):
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and a.shape == b.shape and a.tobytes() == b.tobytes())
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(equivalent(x, y) for x, y in zip(a, b)))
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(equivalent(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        # Insertion order is only guaranteed for tagged (non-str-key)
        # maps; plain JSON objects may be reordered by sort_keys.
        str_keyed = all(isinstance(k, str) for k in a)
        if not str_keyed and not (list(a) == list(b)):
            return False
        return (isinstance(b, dict) and set(a) == set(b)
                and all(equivalent(a[k], b[k]) for k in a))
    if isinstance(a, float):
        return isinstance(b, float) and repr(a) == repr(b)
    return type(a) is type(b) and a == b


class TestValueCodec:
    @settings(max_examples=60, deadline=None)
    @given(nested_values)
    def test_round_trip_through_json_text(self, value):
        encoded = encode_value(value)
        text = json.dumps(encoded, sort_keys=True, allow_nan=False)
        assert equivalent(decode_value(json.loads(text)), value)

    @settings(max_examples=60, deadline=None)
    @given(arrays())
    def test_arrays_round_trip_bitwise(self, array):
        back = decode_value(json.loads(json.dumps(encode_value(array))))
        assert back.dtype == array.dtype
        assert back.shape == array.shape
        assert back.tobytes() == array.tobytes()

    def test_int_key_dicts_preserve_insertion_order(self):
        value = {5: "a", 1: "b", 3: "c"}
        back = decode_value(encode_value(value))
        assert list(back) == [5, 1, 3]

    def test_unknown_tag_is_a_typed_error(self):
        with pytest.raises(CorruptSnapshotError):
            decode_value({"__repro__": "mystery"})

    def test_corrupt_base64_is_a_typed_error(self):
        bad = encode_value(np.arange(4.0))
        bad["data"] = "!!not base64!!"
        with pytest.raises(CorruptSnapshotError):
            decode_value(bad)

    def test_unencodable_type_raises_typeerror(self):
        with pytest.raises(TypeError):
            encode_value(object())


# ----------------------------------------------------------------------
# Engine state round trip.
# ----------------------------------------------------------------------

class TestEngineStateRoundTrip:
    def test_restore_is_bitwise_identical(self, scrubber, workload):
        engine = make_engine(scrubber)
        bins = workload.time // 60
        engine.ingest(workload.select(bins < 12))
        state = engine.capture_state()
        text = json.dumps(state, sort_keys=True, allow_nan=False)

        twin = make_engine(scrubber)
        twin.restore_state(json.loads(text))
        assert json.dumps(twin.capture_state(), sort_keys=True,
                          allow_nan=False) == text

        # Both engines continue identically after the hand-off.
        rest = workload.select(bins >= 12)
        assert_same_verdicts(
            twin.ingest(rest) + twin.flush(),
            engine.ingest(rest) + engine.flush(),
        )

    def test_restore_rejects_mismatched_params(self, scrubber, workload):
        engine = make_engine(scrubber)
        state = engine.capture_state()
        other = make_engine(scrubber, bins_per_day=48)
        with pytest.raises(CheckpointConfigError):
            other.restore_state(state)

    def test_snapshot_keeps_the_bin_width_key(self, scrubber):
        # The width is a constant now; the format did not move, so a
        # parent-written checkpoint resumes and any other width is refused.
        engine = make_engine(scrubber)
        state = engine.capture_state()
        assert state["params"]["config"]["bin_seconds"] == 60
        make_engine(scrubber).restore_state(json.loads(json.dumps(state)))
        state["params"]["config"]["bin_seconds"] = 30
        with pytest.raises(CheckpointConfigError):
            make_engine(scrubber).restore_state(state)

    def test_sharded_restore_rejects_plan_mismatch(self, scrubber):
        engine = make_sharded(scrubber, n_shards=2)
        state = engine.capture_state()
        # The entry keeps the shape older checkpoints were written with.
        assert state["plan"] == {"n_shards": 2, "prefix_bits": 24, "pins": []}
        other = make_sharded(scrubber, n_shards=4)
        try:
            with pytest.raises(CheckpointConfigError):
                other.restore_state(state)
        finally:
            engine.close()
            other.close()


# ----------------------------------------------------------------------
# Verdict journal.
# ----------------------------------------------------------------------

def verdict(b, t, score=0.5):
    return TargetVerdict(bin=b, target_ip=t, is_ddos=score >= 0.5,
                         score=score, matched_rules=("r1",))


def jpath(directory):
    return Path(directory) / VerdictJournal.FILENAME


class TestJournal:
    def test_append_and_reopen(self, tmp_path):
        with VerdictJournal.open(jpath(tmp_path)) as journal:
            journal.append(0, [verdict(0, 1)])
            journal.append(1, [])
            journal.append(2, [verdict(2, 9, 0.25)])
        with VerdictJournal.open(jpath(tmp_path)) as journal:
            assert journal.last_tick == 2
            assert [e.tick for e in journal.entries] == [0, 1, 2]
            assert_same_verdicts(journal.entries[2].verdicts(),
                                 [verdict(2, 9, 0.25)])

    def test_ticks_must_increase(self, tmp_path):
        with VerdictJournal.open(jpath(tmp_path)) as journal:
            journal.append(3, [])
            with pytest.raises(ValueError):
                journal.append(3, [])

    def test_torn_tail_is_truncated(self, tmp_path):
        with VerdictJournal.open(jpath(tmp_path)) as journal:
            journal.append(0, [verdict(0, 1)])
            journal.append(1, [verdict(1, 2)])
        path = jpath(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final record
        with VerdictJournal.open(path) as journal:
            assert journal.last_tick == 0
            journal.append(1, [verdict(1, 2)])  # writable after recovery
        assert path.read_bytes() == data

    def test_mid_file_corruption_is_a_typed_error(self, tmp_path):
        with VerdictJournal.open(jpath(tmp_path)) as journal:
            journal.append(0, [verdict(0, 1)])
            journal.append(1, [verdict(1, 2)])
        path = jpath(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[0] = b"00000000 " + lines[0][9:]  # break the first crc
        path.write_bytes(b"".join(lines))
        with pytest.raises(CorruptJournalError):
            VerdictJournal.open(path)

    def test_canonical_entry_is_stable_bytes(self):
        body = canonical_entry(4, [verdict(4, 7, 0.75)])
        assert body == canonical_entry(4, [verdict(4, 7, 0.75)])
        parsed = json.loads(body)
        assert parsed["tick"] == 4
        assert parsed["verdicts"][0]["target"] == 7
        assert zlib.crc32(body.encode("utf-8")) is not None


# ----------------------------------------------------------------------
# Snapshot store.
# ----------------------------------------------------------------------

class TestSnapshotStore:
    def test_save_load_latest_and_retention(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=2)
        for tick in (2, 5, 8, 11):
            store.save(tick, {"tick": tick, "payload": list(range(tick))})
        assert store.ticks() == [8, 11]  # keep=2
        tick, state, rejected = store.latest()
        assert (tick, rejected) == (11, 0)
        assert state["payload"] == list(range(11))
        assert store.load(8)["tick"] == 8

    def test_empty_store_raises(self, tmp_path):
        with pytest.raises(NoCheckpointError):
            CheckpointStore(tmp_path).latest()

    def test_torn_payload_is_rejected_for_older(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(2, {"v": 1})
        path = store.save(5, {"v": 2})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        tick, state, rejected = CheckpointStore(tmp_path).latest()
        assert (tick, state["v"], rejected) == (2, 1, 1)

    def test_corrupt_manifest_is_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(2, {"v": 1})
        store.save(5, {"v": 2})
        manifest = tmp_path / "ckpt-000000000005.manifest.json"
        manifest.write_text("{not json", encoding="utf-8")
        tick, state, rejected = CheckpointStore(tmp_path).latest()
        assert (tick, state["v"], rejected) == (2, 1, 1)

    def test_orphan_payload_without_manifest_is_ignored(self, tmp_path):
        store = CheckpointStore(tmp_path, keep=3)
        store.save(2, {"v": 1})
        orphan = tmp_path / "ckpt-000000000009.state.json"
        orphan.write_text('{"v": 9}', encoding="utf-8")
        tick, state, rejected = CheckpointStore(tmp_path).latest()
        assert (tick, rejected) == (2, 0)

    def test_load_unknown_tick_raises(self, tmp_path):
        with pytest.raises(NoCheckpointError):
            CheckpointStore(tmp_path).load(3)


class TestDurableWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "file.json"
        durable_write(path, b"one")
        durable_write(path, b"two")
        assert path.read_bytes() == b"two"
        assert not (tmp_path / "file.json.tmp").exists()


# ----------------------------------------------------------------------
# Crash/resume equivalence.
# ----------------------------------------------------------------------

def run_with_crash(factory, workload, directory, crash_tick, every=3,
                   chunk_bins=4, fault_specs=(), crash_handler=None):
    """One crashed run + one resumed run; returns combined verdicts."""
    engine = factory()
    try:
        session = RecoverySession(engine, directory, every=every,
                                  fault_specs=fault_specs,
                                  crash_handler=crash_handler)
        first = drive_engine(engine, workload, chunk_bins=chunk_bins,
                             session=session, stop_after_tick=crash_tick)
        # The session is deliberately not closed: every append is
        # already fsynced, so abandoning here models SIGKILL.
    finally:
        engine.close()
    engine = factory()
    try:
        session = RecoverySession(engine, directory, every=every,
                                  resume=True)
        rest = drive_engine(engine, workload, chunk_bins=chunk_bins,
                            session=session)
        session.close()
    finally:
        engine.close()
    return first + rest


class TestCrashResume:
    @pytest.mark.parametrize("crash_tick", [0, 2, 3, 5])
    def test_serial_engine_is_exactly_once(self, scrubber, workload,
                                           tmp_path, crash_tick):
        reference = drive_engine(make_engine(scrubber), workload,
                                 chunk_bins=4)
        combined = run_with_crash(lambda: make_engine(scrubber), workload,
                                  tmp_path, crash_tick)
        assert_same_verdicts(combined, reference)

    def test_journal_matches_uninterrupted_run_bytes(self, scrubber,
                                                     workload, tmp_path):
        ref_dir, crash_dir = tmp_path / "ref", tmp_path / "crash"
        engine = make_engine(scrubber)
        session = RecoverySession(engine, ref_dir, every=3)
        drive_engine(engine, workload, chunk_bins=4, session=session)
        session.close()
        run_with_crash(lambda: make_engine(scrubber), workload,
                       crash_dir, crash_tick=3)
        name = VerdictJournal.FILENAME
        assert (crash_dir / name).read_bytes() == (ref_dir / name).read_bytes()

    def test_sharded_serial_two_shards(self, scrubber, workload, tmp_path):
        ref = make_sharded(scrubber, n_shards=2)
        try:
            reference = drive_engine(ref, workload, chunk_bins=4)
        finally:
            ref.close()
        combined = run_with_crash(
            lambda: make_sharded(scrubber, n_shards=2), workload,
            tmp_path, crash_tick=3,
        )
        assert_same_verdicts(combined, reference)

    def test_resume_without_snapshot_replays_from_scratch(self, scrubber,
                                                          workload, tmp_path):
        reference = drive_engine(make_engine(scrubber), workload,
                                 chunk_bins=4)
        # every=0 disables periodic snapshots: resume has only the journal.
        combined = run_with_crash(lambda: make_engine(scrubber), workload,
                                  tmp_path, crash_tick=2, every=0)
        assert_same_verdicts(combined, reference)

    def test_fresh_session_refuses_existing_journal(self, scrubber,
                                                    workload, tmp_path):
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=3)
        drive_engine(engine, workload, chunk_bins=4, session=session,
                     stop_after_tick=2)
        session.close()
        with pytest.raises(JournalExistsError):
            RecoverySession(make_engine(scrubber), tmp_path, every=3)

    def test_divergent_replay_is_a_typed_error(self, scrubber, workload,
                                               tmp_path):
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=10**6)
        drive_engine(engine, workload, chunk_bins=4, session=session,
                     stop_after_tick=3)
        session.close()
        # Resume with a different workload: the replayed verdicts no
        # longer match the journaled bytes.
        other = local.labeled_flows(
            local.rng_for(77), n_flows=2400, n_targets=10, n_bins=24
        )
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=10**6, resume=True)
        with pytest.raises(ResumeDivergenceError):
            drive_engine(engine, other, chunk_bins=4, session=session)


@pytest.mark.slow
class TestCrashResumeMatrix:
    def test_supervised_backend(self, scrubber, workload, tmp_path):
        def factory():
            return make_sharded(scrubber, n_shards=2, backend="supervised")

        ref = factory()
        try:
            reference = drive_engine(ref, workload, chunk_bins=4)
        finally:
            ref.close()
        combined = run_with_crash(factory, workload, tmp_path, crash_tick=3)
        assert_same_verdicts(combined, reference)

    def test_sketch_aggregation(self, scrubber, workload, tmp_path):
        def factory():
            return make_sharded(scrubber, n_shards=4, agg="sketch")

        ref = factory()
        try:
            reference = drive_engine(ref, workload, chunk_bins=4)
        finally:
            ref.close()
        combined = run_with_crash(factory, workload, tmp_path, crash_tick=4)
        assert_same_verdicts(combined, reference)


# ----------------------------------------------------------------------
# Disk-fault injection.
# ----------------------------------------------------------------------

class _Crash(Exception):
    """In-process stand-in for the crash handler's os._exit."""


class TestDiskFaults:
    def test_enospc_is_survivable_and_counted(self, scrubber, workload,
                                              tmp_path):
        plan = FaultPlan.parse("enospc@1")
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=2,
                                  fault_specs=plan.disk_specs())
        drive_engine(engine, workload, chunk_bins=4, session=session)
        session.close()
        ticks = CheckpointStore(tmp_path).ticks()
        assert ticks  # later checkpoints landed after the failed one
        reference = drive_engine(make_engine(scrubber), workload,
                                 chunk_bins=4)
        combined = run_with_crash(lambda: make_engine(scrubber), workload,
                                  tmp_path / "b", crash_tick=4, every=2,
                                  fault_specs=plan.disk_specs())
        assert_same_verdicts(combined, reference)

    def test_torn_write_fails_closed_to_older_snapshot(self, scrubber,
                                                       workload, tmp_path):
        plan = FaultPlan.parse("torn-write@1")
        reference = drive_engine(make_engine(scrubber), workload,
                                 chunk_bins=4)
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=2,
                                  fault_specs=plan.disk_specs())
        first = drive_engine(engine, workload, chunk_bins=4, session=session,
                             stop_after_tick=3)
        engine.close()
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=2, resume=True)
        assert session.restored_tick == 1  # tick-3 snapshot was torn
        rest = drive_engine(engine, workload, chunk_bins=4, session=session)
        session.close()
        # The torn snapshot cost nothing: replay covers the gap.
        assert_same_verdicts(first + rest, reference)

    def test_crash_at_checkpoint_leaves_no_manifest(self, scrubber,
                                                    workload, tmp_path):
        plan = FaultPlan.parse("crash-at-checkpoint@1")

        def boom():
            raise _Crash()

        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=2,
                                  fault_specs=plan.disk_specs(),
                                  crash_handler=boom)
        with pytest.raises(_Crash):
            drive_engine(engine, workload, chunk_bins=4, session=session)
        assert CheckpointStore(tmp_path).ticks() == [1]  # ordinal 0 only
        # The payload of the aborted ordinal may exist; it is an orphan.
        reference = drive_engine(make_engine(scrubber), workload,
                                 chunk_bins=4)
        engine = make_engine(scrubber)
        session = RecoverySession(engine, tmp_path, every=2, resume=True)
        drive_engine(engine, workload, chunk_bins=4, session=session)
        session.close()
        journaled = [v for e in VerdictJournal.open(jpath(tmp_path)).entries
                     for v in e.verdicts()]
        assert_same_verdicts(journaled, reference)

    def test_disk_specs_reject_worker_options(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("enospc@1:batch=2")


# ----------------------------------------------------------------------
# iter_chunks contract.
# ----------------------------------------------------------------------

class TestIterChunks:
    def test_covers_every_flow_exactly_once(self, workload):
        seen = 0
        for tick, chunk, updates in iter_chunks(workload, (), chunk_bins=4):
            assert updates == []
            seen += len(chunk)
        assert seen == len(workload)

    def test_ticks_are_contiguous_from_zero(self, workload):
        ticks = [t for t, _, _ in iter_chunks(workload, (), chunk_bins=4,
                                              start_bin=0, end_bin=24)]
        assert ticks == list(range(6))


# ----------------------------------------------------------------------
# Orphan-worker reaper (satellite regression).
# ----------------------------------------------------------------------

@pytest.mark.slow
class TestOrphanReaper:
    # Reaping an unclosed pool on GC is tier-1 now: test_parallel's
    # TestBackendConformance::test_finalizer_reaps_unclosed_pool.
    def test_close_detaches_finalizer(self, scrubber):
        backend = SupervisedProcessBackend(n_shards=1)
        backend.close()
        assert not backend._finalizer.alive

    def test_workers_exit_when_coordinator_is_killed(self):
        """kill -9 runs no finalizer: only EOF on its pipe tells a worker.

        Under fork every worker inherits the coordinator's end of its
        own and of every earlier worker's pipe; unless it closes them,
        no pipe ever reads EOF and both workers live on under pid 1.
        """
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the inherited pipe ends are a fork matter")
        script = (
            "import os, sys, time\n"
            "from repro.core.parallel.backends import WorkerPool\n"
            "pool = WorkerPool(2, start_method='fork')\n"
            "print(*(p.pid for p in pool._procs), flush=True)\n"
            "time.sleep(60)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        coordinator = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True, env=env
        )
        try:
            workers = [int(pid) for pid in coordinator.stdout.readline().split()]
            assert len(workers) == 2 and all(_alive(pid) for pid in workers)
            coordinator.kill()
            coordinator.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(_alive(pid) for pid in workers)
        finally:
            coordinator.kill()
            coordinator.stdout.close()
            for pid in locals().get("workers", ()):
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Is ``pid`` running (a zombie waiting for pid 1 to reap it is not)?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False
