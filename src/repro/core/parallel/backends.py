"""Execution backends for shard classification.

A backend owns the N per-shard classification contexts: the deployed
model (re-broadcast after every retrain; its compiled rules and matrix
assembler are the model's own, rebuilt wherever it lands) and a
per-shard :class:`~repro.obs.MetricRegistry`. Two implementations:

* :class:`SerialBackend` — runs shards sequentially in-process. The
  default: zero IPC cost, same results, and on a single-core host the
  batched execution alone carries the speedup.
* :class:`~repro.core.resilience.SupervisedProcessBackend` — persistent
  worker processes under per-request deadlines, automatic restart with
  model re-broadcast, poison-batch quarantine and graceful degradation
  to serial execution (see :mod:`repro.core.resilience`). It drives the
  :class:`WorkerPool` defined here: ``fork`` start method when
  available, ``spawn`` otherwise; control messages travel over pipes;
  batch payloads travel either as pickled pipe messages
  (``ipc="pipe"``, the default) or through per-shard shared-memory
  rings (``ipc="shm"``, see :mod:`repro.core.parallel.shm` and
  ``docs/IPC.md``) with the pipe as their doorbell; the model is one
  pickled pipe message per worker in both. Verdicts come back as plain
  dataclass lists either way — the transport can never change results.

Both produce verdicts through the one :func:`classify_shard` function,
so backend choice can never change results — only where the work runs
and how failures are handled.

Sketch mode: when ``classify`` is called with ``agg`` (a
:class:`~repro.core.features.sketches.SketchParams`), workers become
pure *counters* — each builds a per-shard
:class:`~repro.core.features.sketches.SketchAggregator` from its batch
and replies with the picklable sketch state instead of verdicts; the
coordinator merges states and scores the merged records. Sketch builds
are deterministic functions of the batch, so retry-after-restart
reproduces the identical state (see ``docs/SKETCHES.md``).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import weakref
from typing import Optional, Sequence

from repro import obs
from repro.core.features.sketches import SketchAggregator, SketchParams
from repro.core.parallel import shm
from repro.core.scrubber import IXPScrubber, TargetVerdict
from repro.netflow.dataset import FlowDataset
from repro.obs import names

__all__ = [
    "SerialBackend",
    "WorkerPool",
    "classify_shard",
    "make_backend",
    "BACKENDS",
    "IPC_MODES",
]

#: Worker transports of the process backend (see docs/IPC.md).
IPC_MODES = ("pipe", "shm")

#: Reply tag a worker sends when a shared-memory frame fails
#: validation (crc/seqno/generation); the supervisor restarts and retries.
_IPC_ERROR = "__ipc_error__"


def _is_ipc_error(reply) -> bool:
    return (
        isinstance(reply, tuple) and len(reply) == 2 and reply[0] == _IPC_ERROR
    )


def classify_shard(
    scrubber: Optional[IXPScrubber],
    registry: obs.MetricRegistry,
    flows: FlowDataset,
    min_flows: int,
    agg: Optional[SketchParams],
):
    """Classify one shard's flow batch, recording into ``registry``.

    The single code path every shard batch takes — in the serial
    backend, in a worker process, and in the supervisor's in-process
    fallback — which is why none of them can change a verdict. Exact
    mode (``agg=None``) returns the verdict list; sketch mode returns
    the shard's sketch state, a pure function of (batch, params): a
    retried batch — even on a freshly restarted worker — reproduces the
    bitwise-identical state, which is what keeps sketch-mode verdicts
    stable under faults.
    """
    with obs.use_registry(registry):
        with obs.span(names.SPAN_PARALLEL_SHARD_CLASSIFY):
            obs.counter(names.C_PARALLEL_SHARD_FLOWS).inc(len(flows))
            if agg is not None:
                return SketchAggregator(agg).absorb(flows).to_state()
            return scrubber.classify_flows_batch(flows, min_flows=min_flows)


class SerialBackend:
    """Run every shard sequentially in the coordinator process."""

    name = "serial"

    def __init__(self, n_shards: int):
        self.n_shards = n_shards
        self.registries = [obs.MetricRegistry() for _ in range(n_shards)]
        self._scrubber: Optional[IXPScrubber] = None

    def broadcast(self, scrubber: IXPScrubber) -> None:
        """Deploy a newly trained model to all shards."""
        if scrubber is self._scrubber:
            obs.counter(names.C_PARALLEL_BROADCAST_SKIPPED).inc()
            return
        self._scrubber = scrubber

    def classify(
        self,
        shard_flows: Sequence[Optional[FlowDataset]],
        min_flows: int,
        agg: Optional[SketchParams] = None,
    ) -> list:
        """Classify each shard's flow batch; one reply per shard.

        Exact mode (``agg=None``) replies with verdict lists; sketch
        mode replies with per-shard sketch states for the coordinator
        to merge (empty shards reply ``None``).
        """
        if self._scrubber is None:
            raise RuntimeError("no model broadcast to shards yet")
        out: list = []
        for shard, flows in enumerate(shard_flows):
            if flows is None or len(flows) == 0:
                out.append(None if agg is not None else [])
                continue
            out.append(
                classify_shard(
                    self._scrubber, self.registries[shard], flows, min_flows, agg
                )
            )
        return out

    def snapshots(self) -> list[dict]:
        """One metrics snapshot per shard registry."""
        return [obs.snapshot(registry) for registry in self.registries]

    def close(self) -> None:
        """Release backend resources (no-op for in-process shards)."""


def _execute_fault(conn, directive) -> bool:
    """Run an injected fault directive inside the worker.

    Returns True if the directive consumed the reply (the caller must
    not send a verdict list for this request). ``crash`` never returns.
    """
    kind, seconds = directive
    if kind == "crash":
        # A hard exit, not an exception: simulates OOM kills and
        # segfaults, the failures a supervisor actually sees.
        os._exit(70)
    if kind in ("hang", "slow"):
        # A hang sleeps past any deadline (the parent kills us); a slow
        # shard adds bounded latency and then answers correctly.
        time.sleep(seconds)
        return False
    if kind == "corrupt":
        # Raw bytes that cannot unpickle: the parent's recv() raises,
        # exercising the torn-frame / corrupted-pipe path.
        conn.send_bytes(b"\xde\xad\xbe\xef repro corrupt frame")
        return True
    return False


def _worker_main(
    conn, shard_index: int, ring_name: Optional[str] = None, inherited: Sequence = ()
) -> None:
    """Worker loop: react to model / classify / snapshot / stop messages.

    ``inherited`` is the coordinator's end of every worker pipe a
    ``fork`` copied into this process, closed first: while a worker
    holds one, no ``recv`` reads EOF once the coordinator is killed.

    A classify message may carry an optional fault directive — evaluated
    by the supervisor's deterministic
    :class:`~repro.core.resilience.FaultPlan` and executed here, so
    chaos tests fail in the real worker code path.

    With ``ipc="shm"`` the worker attaches its shard's ring once at
    startup and one extra message kind arrives: ``classify_shm`` (read
    the framed batch out of the ring as zero-copy views, classify, ack
    the seqno, reply over the pipe). A frame that fails validation is
    answered with an ``__ipc_error__`` tuple instead of verdicts — and
    *not* acked, so the supervisor's reclaim owns the cleanup.
    """
    for parent_end in inherited:
        parent_end.close()
    registry = obs.MetricRegistry()
    scrubber: Optional[IXPScrubber] = None
    ring = shm.ShmRing.attach(ring_name) if ring_name is not None else None
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, ConnectionResetError):
                break  # the coordinator is gone, closed or killed
            kind = message[0]
            if kind == "stop":
                break
            if kind == "model":
                scrubber = pickle.loads(message[1])
            elif kind in ("classify", "classify_shm"):
                if kind == "classify":
                    columns, min_flows = message[1], message[2]
                    directive = message[3] if len(message) > 3 else None
                    agg = message[4] if len(message) > 4 else None
                    if directive is not None and _execute_fault(conn, directive):
                        continue
                    flows = FlowDataset(columns)
                    seqno = None
                else:
                    seqno, offset, nbytes, min_flows, directive, agg = message[1:7]
                    # Faults fire before the ring read: a crash here leaves
                    # the frame unacked, which is exactly the orphan the
                    # supervisor's reclaim path must clean up.
                    if directive is not None and _execute_fault(conn, directive):
                        continue
                    try:
                        flows = ring.read_flows(seqno, offset, nbytes)
                    except shm.ShmProtocolError as exc:
                        conn.send((_IPC_ERROR, str(exc)))
                        continue
                reply = classify_shard(scrubber, registry, flows, min_flows, agg)
                if seqno is not None:
                    # Verdicts/sketch states copy out of the batch, so the
                    # frame is dead; ack before replying — the coordinator
                    # may dispatch the next batch as soon as it hears back.
                    del flows
                    ring.ack(seqno)
                conn.send(reply)
            elif kind in ("echo", "echo_shm"):
                # Transport self-test (WorkerPool.echo): rebuild the batch
                # exactly as classify would, reply with the row count.
                if kind == "echo":
                    flows = FlowDataset(message[1])
                    conn.send(len(flows))
                else:
                    seqno, offset, nbytes = message[1], message[2], message[3]
                    try:
                        flows = ring.read_flows(seqno, offset, nbytes)
                    except shm.ShmProtocolError as exc:
                        conn.send((_IPC_ERROR, str(exc)))
                        continue
                    rows = len(flows)
                    del flows
                    ring.ack(seqno)
                    conn.send(rows)
            elif kind == "snapshot":
                conn.send(obs.snapshot(registry))
    finally:
        if ring is not None:
            ring.close()
        conn.close()


class WorkerPool:
    """Persistent worker processes, one per shard, and their transport.

    The mechanism half of the process backend: spawn, pipes, rings,
    dispatch framing and teardown. It has no ``classify`` or
    ``broadcast`` of its own — every pipe *read* belongs to
    :class:`~repro.core.resilience.SupervisedProcessBackend`, which
    bounds it with a deadline and recovers from a dead worker.

    Workers stay alive across bins so the model is deserialised once
    per retrain, not once per bin.

    ``ipc="pipe"`` (default) moves batches as pickled pipe messages.
    ``ipc="shm"`` moves batch bytes through a per-shard
    :class:`~repro.core.parallel.shm.ShmRing`; the pipe carries the
    doorbells, replies, control and the pickled model. Oversized
    batches (``ring_bytes``) fall back to the pipe automatically
    (``parallel.ipc_fallbacks``). The transport is invisible in the
    results: verdicts are bit-identical across modes.
    """

    def __init__(
        self,
        n_shards: int,
        start_method: Optional[str] = None,
        ipc: str = "pipe",
        ring_bytes: int = shm.DEFAULT_RING_BYTES,
    ):
        if ipc not in IPC_MODES:
            raise ValueError(
                f"unknown ipc mode {ipc!r}; expected one of {IPC_MODES}"
            )
        self.n_shards = n_shards
        self.ipc = ipc
        self.ring_bytes = int(ring_bytes)
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        # Pre-size so close() is safe however far __init__ got.
        self._conns: list = [None] * n_shards
        self._procs: list = [None] * n_shards
        self._rings: list = [None] * n_shards
        self._ring_seq = [0] * n_shards
        self._model_message: Optional[tuple] = None
        # Reap orphaned workers (and unlink their rings) if the owner
        # never calls close(). The finalizer captures the slot *lists*
        # (mutated in place by _start_worker and the supervisor's
        # restart path), never self.
        self._finalizer = weakref.finalize(
            self, _reap_orphans, self._conns, self._procs, self._rings
        )
        try:
            if ipc == "shm":
                for shard in range(n_shards):
                    self._rings[shard] = shm.ShmRing(self.ring_bytes)
            for shard in range(n_shards):
                self._start_worker(shard)
        except BaseException:
            self.close()
            raise

    def _start_worker(self, shard: int) -> None:
        """(Re)spawn the worker process serving one shard slot."""
        parent_conn, child_conn = self._ctx.Pipe()
        ring = self._rings[shard]
        # Parent-side pipe ends a fork copies into the child, for it to
        # close; no other start method copies any.
        forked = self._ctx.get_start_method() == "fork"
        inherited = [parent_conn, *filter(None, self._conns)] if forked else []
        # repro: lint-ignore[RS602] a Process that never start()ed holds
        # no OS resources to release; terminate() on it would be a no-op
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, shard, None if ring is None else ring.name, inherited),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = proc

    def _publish_model(self, scrubber: IXPScrubber) -> tuple:
        """Pickle the model once; return the message every worker gets.

        The scrubber's tree models pickle as compiled flat-array kernels
        (node graphs are derived state and excluded), so the blob is a
        handful of contiguous buffers. It is kept as ``_model_message``
        for the supervisor to re-send to a respawned worker.
        """
        blob = pickle.dumps(scrubber)
        obs.counter(names.C_PARALLEL_BROADCAST_BYTES).inc(len(blob))
        if self.ipc == "shm":
            obs.gauge(names.G_PARALLEL_IPC_RING_CAPACITY).set(self.ring_bytes)
        self._model_message = ("model", blob)
        return self._model_message

    def _write_frame(self, shard: int, flows: FlowDataset):
        """Frame a batch into the shard's ring; ``(seqno, ref)`` or None.

        None means the caller sends the batch over the pipe instead:
        pipe mode, or the frame did not fit (oversized batch, or an
        unacked frame from a just-crashed worker awaiting reclaim) —
        the latter counted by ``parallel.ipc_fallbacks``.
        """
        ring = self._rings[shard]
        if ring is None:
            return None
        self._ring_seq[shard] += 1
        seqno = self._ring_seq[shard]
        ref = ring.write_flows(seqno, flows)
        if ref is None:
            obs.counter(names.C_PARALLEL_IPC_FALLBACKS).inc()
            return None
        obs.counter(names.C_PARALLEL_IPC_RING_BYTES).inc(ref.nbytes)
        return seqno, ref

    def _send_classify(
        self,
        shard: int,
        flows: FlowDataset,
        min_flows: int,
        directive,
        agg: Optional[SketchParams],
    ) -> None:
        """Send one classify request: ring frame + doorbell, or pipe.

        Either way the worker sees an identical batch.
        """
        frame = self._write_frame(shard, flows)
        if frame is not None:
            seqno, ref = frame
            message = ("classify_shm", seqno, ref.offset, ref.nbytes,
                       min_flows, directive, agg)
        else:
            message = ("classify", flows.to_columns(), min_flows, directive, agg)
        self._conns[shard].send(message)

    def echo(
        self, shard_flows: Sequence[Optional[FlowDataset]]
    ) -> list[Optional[int]]:
        """Round-trip batches through the transport; replies are row counts.

        The dispatch path is byte-for-byte the classify path (ring
        frame + doorbell, or pickled pipe message) without the
        classification compute: a transport self-test. Its benchmark is
        gone (``parallel.ring_bytes`` and ``parallel.classify_wait_ms``
        of ``benchmarks/e2e`` read the transport now); the method stays
        until a benchmark-only PR stops
        ``benchmarks/e2e/test_harness.py`` naming it as its inherited
        attribute. Not a supervised call: reads block, and a worker that
        rejects its frame raises
        :class:`~repro.core.parallel.shm.ShmProtocolError`.
        """
        active = []
        for shard, flows in enumerate(shard_flows):
            if flows is None or len(flows) == 0:
                continue
            frame = self._write_frame(shard, flows)
            if frame is not None:
                seqno, ref = frame
                message = ("echo_shm", seqno, ref.offset, ref.nbytes)
            else:
                message = ("echo", flows.to_columns())
            self._conns[shard].send(message)
            active.append(shard)
        out: list = [None] * len(shard_flows)
        for shard in active:
            reply = self._conns[shard].recv()
            if _is_ipc_error(reply):
                raise shm.ShmProtocolError(
                    f"shard {shard}: shared-memory frame rejected: {reply[1]}"
                )
            out[shard] = reply
        return out

    def close(self) -> None:
        """Stop all workers, reap them, unlink every shared segment.

        Idempotent, and safe after a partially failed ``__init__``:
        slots that never spawned are skipped, started workers are
        stopped and joined, rings created so far are destroyed. Detaches
        the orphan-reaper finalizer first — an explicit close supersedes
        the garbage-collection fallback.
        """
        finalizer = getattr(self, "_finalizer", None)
        if finalizer is not None:
            finalizer.detach()
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
        for conn in self._conns:
            if conn is None:
                continue
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for ring in self._rings:
            if ring is not None:
                ring.destroy()
        self._conns = []
        self._procs = []
        self._rings = []


def _reap_orphans(conns: list, procs: list, rings: list) -> None:
    """Last-resort cleanup for workers whose backend was never closed.

    Runs from a ``weakref.finalize`` when the backend is garbage
    collected (and, via finalize's atexit hook, at interpreter exit),
    so an engine that was never ``close()``d cannot leak live worker
    processes — or linked shared-memory segments, which would otherwise
    outlive the interpreter in ``/dev/shm``. Deliberately takes the
    *slot lists*, not the backend — holding ``self`` in the finalizer
    would keep the backend alive forever. Best effort: ask nicely over
    the pipe, then terminate; workers go down before their segments.
    """
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.send(("stop",))
        except (BrokenPipeError, OSError, ValueError):
            pass
    for proc in procs:
        if proc is None:
            continue
        try:
            proc.join(timeout=1)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1)
        except (OSError, ValueError, AssertionError):
            pass
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.close()
        except OSError:
            pass
    for ring in rings:
        if ring is not None:
            try:
                ring.destroy()
            except OSError:  # pragma: no cover - torn-down tmpfs
                pass


def _supervised_backend(*args, **kwargs):
    # Imported lazily: repro.core.resilience imports this module.
    from repro.core.resilience.supervisor import SupervisedProcessBackend

    return SupervisedProcessBackend(*args, **kwargs)


BACKENDS = {
    SerialBackend.name: SerialBackend,
    "supervised": _supervised_backend,
}


def make_backend(name: str, n_shards: int, **kwargs):
    """Instantiate a backend by name, forwarding backend kwargs.

    ``serial`` takes no extra options; ``supervised`` accepts the
    worker-pool options ``start_method`` (``"fork"``/``"spawn"``),
    ``ipc`` (``"pipe"``/``"shm"``) and ``ring_bytes`` plus the
    supervision knobs ``shard_timeout``, ``max_restarts`` and
    ``fault_plan`` (see
    :class:`~repro.core.resilience.SupervisedProcessBackend`).
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {sorted(BACKENDS)}"
        ) from None
    return cls(n_shards, **kwargs)
