"""Unit tests for ``repro.core.parallel.shm``: rings and lifetimes.

The transport contract under test: framed batches round-trip through a
ring **bit-identically** as read-only zero-copy views, every validation
failure raises :class:`ShmProtocolError` (never a hang or a wrong
batch) and reclaim makes an orphaned frame unreachable. Leak
discipline — no ``resource_tracker`` warnings, no ``/dev/shm`` residue —
is asserted in subprocesses so the tracker's atexit output is
observable.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tests import strategies
from repro.core.parallel import shm
from repro.core.resilience import SupervisedProcessBackend
from repro.core.parallel.shm import (
    FrameRef,
    ShmProtocolError,
    ShmRing,
    frame_bytes_for,
)
from repro.netflow.dataset import SCHEMA


@pytest.fixture()
def batch():
    return strategies.flows(strategies.rng_for(11), n_flows=300)


def _roundtrip(ring, consumer, seqno, flows):
    ref = ring.write_flows(seqno, flows)
    assert isinstance(ref, FrameRef) and ref.seqno == seqno
    return consumer.read_flows(ref.seqno, ref.offset, ref.nbytes)


class TestShmRing:
    def test_roundtrip_is_bit_identical_and_readonly(self, batch):
        ring = ShmRing(1 << 20)
        consumer = ShmRing.attach(ring.name)
        try:
            got = _roundtrip(ring, consumer, 1, batch)
            for name in SCHEMA:
                column = got.column(name)
                assert np.array_equal(column, batch.column(name))
                assert not column.flags.writeable
            # Zero-copy: the columns are views into the mapping, not
            # heap copies of it.
            assert got.column("time").base is not None
            # Drop the views before unmapping (the worker protocol's
            # del-before-ack, in miniature).
            del got, column
        finally:
            consumer.close()
            ring.destroy()

    def test_busy_ring_returns_none_until_acked(self, batch):
        ring = ShmRing(1 << 20)
        try:
            ref = ring.write_flows(1, batch)
            assert ref is not None
            assert ring.write_flows(2, batch) is None  # unacked frame
            ring.ack(1)
            assert ring.write_flows(3, batch) is not None
        finally:
            ring.destroy()

    def test_oversized_batch_returns_none(self, batch):
        ring = ShmRing(frame_bytes_for(len(batch)) // 2)
        try:
            assert ring.write_flows(1, batch) is None
        finally:
            ring.destroy()

    def test_frames_never_wrap_the_tail(self, batch):
        # Capacity fits one frame plus change: the second write must
        # restart at offset 0 instead of wrapping mid-frame.
        nbytes = frame_bytes_for(len(batch))
        ring = ShmRing(nbytes + nbytes // 2)
        consumer = ShmRing.attach(ring.name)
        try:
            first = _roundtrip(ring, consumer, 1, batch)
            ring.ack(1)
            ref = ring.write_flows(2, batch)
            assert ref is not None and ref.offset == 0
            again = consumer.read_flows(ref.seqno, ref.offset, ref.nbytes)
            assert np.array_equal(again.column("time"), first.column("time"))
            del first, again  # release views before unmapping
        finally:
            consumer.close()
            ring.destroy()

    def test_corrupted_payload_fails_crc(self, batch):
        ring = ShmRing(1 << 20)
        consumer = ShmRing.attach(ring.name)
        try:
            ref = ring.write_flows(1, batch)
            # Flip one payload byte through the protocol module's own
            # segment handle.
            position = shm._CTRL_BYTES + ref.offset + shm._FRAME_HEADER_BYTES
            ring._shm.buf[position] ^= 0xFF
            with pytest.raises(ShmProtocolError, match="crc"):
                consumer.read_flows(ref.seqno, ref.offset, ref.nbytes)
        finally:
            consumer.close()
            ring.destroy()

    def test_seqno_mismatch_rejected(self, batch):
        ring = ShmRing(1 << 20)
        consumer = ShmRing.attach(ring.name)
        try:
            ref = ring.write_flows(7, batch)
            with pytest.raises(ShmProtocolError, match="seqno"):
                consumer.read_flows(8, ref.offset, ref.nbytes)
        finally:
            consumer.close()
            ring.destroy()

    def test_reclaim_abandons_orphan_and_rejects_stale_frame(self, batch):
        ring = ShmRing(1 << 20)
        consumer = ShmRing.attach(ring.name)
        try:
            ref = ring.write_flows(1, batch)  # never acked: "crash"
            assert ring.write_flows(2, batch) is None  # the orphan holds the ring
            ring.reclaim()
            assert ring.generation == 1
            # The orphaned frame is now from a dead generation.
            with pytest.raises(ShmProtocolError, match="generation"):
                consumer.read_flows(ref.seqno, ref.offset, ref.nbytes)
            # And the ring is immediately usable again.
            got = _roundtrip(ring, consumer, 2, batch)
            assert np.array_equal(got.column("dst_ip"), batch.column("dst_ip"))
            del got  # release views before unmapping
        finally:
            consumer.close()
            ring.destroy()

    def test_attach_validates_control_block(self):
        from multiprocessing import shared_memory

        raw = shared_memory.SharedMemory(create=True, size=1024)
        try:
            with pytest.raises(ShmProtocolError, match="control block"):
                ShmRing.attach(raw.name)
        finally:
            raw.close()
            raw.unlink()

    def test_destroy_unlinks_and_is_idempotent(self, batch):
        ring = ShmRing(1 << 20)
        name = ring.name
        ring.destroy()
        ring.destroy()
        with pytest.raises(FileNotFoundError):
            shm.attach_segment(name)


REPO_ROOT = Path(__file__).resolve().parents[1]


def _run_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO_ROOT,
        env=env,
    )


class TestEcho:
    @pytest.mark.parametrize("ipc", ["pipe", "shm"])
    def test_echo_round_trips_row_counts(self, batch, ipc):
        """The transport self-test outlived its benchmark (the e2e
        harness's own tests name it), so it is checked here."""
        backend = SupervisedProcessBackend(2, ipc=ipc)
        try:
            assert backend.echo([batch, None]) == [len(batch), None]
            assert backend.echo([batch, batch]) == [len(batch)] * 2
        finally:
            backend.close()


class TestLeakDiscipline:
    """Tracker warnings surface at interpreter exit: use subprocesses."""

    def test_backend_lifecycle_leaves_no_residue(self):
        result = _run_python(
            """
            import numpy as np
            from tests import strategies
            from repro.core.parallel import ShardPlan
            from repro.core.resilience import SupervisedProcessBackend
            from repro.core.labeling.balancer import balance
            from repro.core.scrubber import IXPScrubber, ScrubberConfig

            rng = strategies.rng_for(999)
            labeled = strategies.labeled_flows(
                rng, n_flows=3000, n_targets=10, n_bins=10
            )
            balanced = balance(labeled, np.random.default_rng(7)).flows
            scrubber = IXPScrubber(
                ScrubberConfig(model="XGB", model_params={"n_estimators": 4})
            ).fit(balanced)
            backend = SupervisedProcessBackend(2, ipc="shm")
            names = [r.name for r in backend._rings]
            backend.broadcast(scrubber)
            shard_flows = ShardPlan(2).split(
                strategies.flows(strategies.rng_for(5), n_flows=200)
            )
            backend.classify(shard_flows, min_flows=3)
            backend.broadcast(scrubber)  # identity skip: no republish
            backend.close()
            import os
            for name in names:
                if os.path.exists(f"/dev/shm/{name}"):
                    raise SystemExit(f"segment {name} still linked")
            print("OK")
            """
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "leaked" not in result.stderr
        assert "resource_tracker" not in result.stderr

    def test_unclosed_backend_is_reaped_without_leaks(self):
        # No close(): the weakref.finalize reaper must kill workers and
        # unlink the rings at interpreter exit, silently — and the rings
        # are all the process ever put in /dev/shm.
        result = _run_python(
            """
            import os
            from repro.core.resilience import SupervisedProcessBackend

            backend = SupervisedProcessBackend(2, ipc="shm")
            names = [r.name for r in backend._rings]
            print("SPAWNED", os.getpid(), *names)
            """
        )
        assert result.returncode == 0, result.stderr
        pid, *names = result.stdout.split()[1:]
        assert len(names) == 2
        assert "leaked" not in result.stderr
        assert "resource_tracker" not in result.stderr
        assert not glob.glob(f"/dev/shm/repro-*-{pid}-*")

    def test_failed_init_cleans_partial_state(self, monkeypatch):
        # Worker spawn blows up after the rings exist: __init__ must
        # destroy them on the way out.
        created: list = []
        original = shm.ShmRing.__init__

        def tracking_init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            created.append(self.name)

        monkeypatch.setattr(shm.ShmRing, "__init__", tracking_init)

        from repro.core.parallel import backends as backends_mod

        def boom(self, shard):
            raise RuntimeError("spawn failed")

        monkeypatch.setattr(backends_mod.WorkerPool, "_start_worker", boom)
        with pytest.raises(RuntimeError, match="spawn failed"):
            SupervisedProcessBackend(2, ipc="shm")
        assert len(created) == 2
        for name in created:
            with pytest.raises(FileNotFoundError):
                shm.attach_segment(name)
