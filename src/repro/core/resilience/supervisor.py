"""Supervised shard execution: deadlines, restarts, quarantine, degradation.

:class:`SupervisedProcessBackend` drives the persistent workers of a
:class:`~repro.core.parallel.backends.WorkerPool` from a supervision
loop with a *tested failure model*:

* **Deadlines** — every pipe read goes through ``poll(timeout)``; no
  blocking call in this backend waits longer than ``shard_timeout``.
  A missed deadline counts (``resilience.deadline_misses``) and is
  treated as a worker failure.
* **Restart + re-broadcast** — a dead, hung, or corrupted worker is
  reaped and respawned (``resilience.worker_restarts``), the current
  model blob is re-sent, and the in-flight batch is retried with a
  small backoff (``resilience.batch_retries``).
* **Poison-batch quarantine** — a batch whose attempts kill workers
  twice (:data:`BATCH_ATTEMPTS`) is classified in-process by the
  coordinator (``resilience.batches_quarantined``) so one bad bin can
  never wedge the stream.
* **Graceful degradation** — more than ``max_restarts`` restarts of one
  shard within a window of :data:`RESTART_WINDOW` classify calls stops
  the respawn loop: the shard permanently falls back to serial in-process
  execution (``resilience.degraded_shards`` gauge, a clear log line),
  and the run completes correctly instead of thrashing.

Every fallback path classifies through the same
:func:`~repro.core.parallel.backends.classify_shard` call the workers
use, so verdicts stay **bit-identical** to the serial engine no
matter which failures occurred — the property the chaos tests assert.

Failures can be injected deterministically with a
:class:`~repro.core.resilience.faults.FaultPlan` (or the
``REPRO_FAULTS`` environment variable); the supervisor evaluates the
plan per dispatch attempt and ships directives to the worker, which
executes them in :func:`~repro.core.parallel.backends._worker_main`.
"""

from __future__ import annotations

import logging
import pickle
import time
from collections import deque
from typing import Optional, Sequence

from repro import obs
from repro.core.features.sketches import SketchParams
from repro.core.parallel.backends import (
    WorkerPool,
    _is_ipc_error,
    classify_shard,
)
from repro.core.resilience.faults import FaultPlan
from repro.core.scrubber import IXPScrubber, TargetVerdict
from repro.netflow.dataset import FlowDataset
from repro.obs import names

__all__ = ["SupervisedProcessBackend"]

log = logging.getLogger("repro.resilience")

#: Sentinel distinguishing "attempt failed" from any legitimate reply.
_FAILED = object()

#: Exceptions that mean "this worker (or its pipe) is gone/garbled".
_PIPE_ERRORS = (EOFError, OSError, pickle.UnpicklingError)

#: Width of the restart-budget window, measured in classify calls
#: (deterministic — no wall clock in the failure model).
RESTART_WINDOW = 64

#: Total attempts a batch gets before quarantine: the original dispatch
#: plus one retry — "killed a worker twice".
BATCH_ATTEMPTS = 2

#: Seconds slept before retry ``n`` (scaled by ``n``); purely pacing,
#: it never affects verdicts.
RETRY_BACKOFF = 0.01


class SupervisedProcessBackend(WorkerPool):
    """The process backend: a worker pool that survives its workers.

    Parameters
    ----------
    n_shards, min_flows, agg, and the pool options start_method, ipc, ring_bytes:
        As for :class:`~repro.core.parallel.backends.WorkerPool`.
        With ``ipc="shm"`` a restarted worker re-attaches its shard's
        ring (reclaimed first, so a frame orphaned by the crash can
        never wedge it); the model reaches it as the kept pickled
        message in both modes — no re-pickle on the restart path.
    shard_timeout:
        Deadline in seconds for any single pipe read. A worker that
        does not answer within it is killed and restarted.
    max_restarts:
        Restart budget per shard: more than this many restarts within
        :data:`RESTART_WINDOW` classify calls degrades the shard to
        serial in-process execution for the rest of the run.
    fault_plan:
        Deterministic fault injection plan. Defaults to parsing the
        ``REPRO_FAULTS`` environment variable; pass ``FaultPlan()`` to
        force faults off regardless of the environment.

    Resilience metrics are recorded into the *active* registry (the
    coordinator engine activates its own around classification), under
    the ``resilience.*`` names documented in ``docs/METRICS.md``.
    """

    def __init__(
        self,
        n_shards: int,
        min_flows: int = 1,
        agg: Optional[SketchParams] = None,
        shard_timeout: float = 30.0,
        max_restarts: int = 3,
        fault_plan: Optional[FaultPlan] = None,
        **pool_options,
    ):
        if shard_timeout <= 0:
            raise ValueError("shard_timeout must be > 0 seconds")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.shard_timeout = float(shard_timeout)
        self.max_restarts = int(max_restarts)
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._scrubber: Optional[IXPScrubber] = None
        self._tick = 0  # classify-call counter; the restart-window clock
        self._seq = [0] * n_shards  # per-shard lifetime dispatch counter
        self._epoch_seq = [0] * n_shards  # per-shard dispatches this epoch
        self._degraded = [False] * n_shards
        self._restart_ticks = [deque() for _ in range(n_shards)]
        # Quarantined/degraded work records here, mirroring what the
        # worker's registry would have seen (shard_classify span,
        # shard_flows counter), and is merged into snapshots().
        self._fallback_registries = [obs.MetricRegistry() for _ in range(n_shards)]
        super().__init__(n_shards, min_flows, agg, **pool_options)

    # -- model distribution --------------------------------------------
    def broadcast(self, scrubber: IXPScrubber) -> None:
        """Ship the model to every live shard, restarting dead ones.

        Never raises on a dead worker — the restart path re-sends the
        model, and a shard past its restart budget degrades instead. The
        model is serialised exactly once.
        """
        self._epoch_seq = [0] * self.n_shards
        message = self._publish_model(scrubber)
        for shard in range(self.n_shards):
            if self._degraded[shard]:
                continue
            proc = self._procs[shard]
            if proc is None or not proc.is_alive():
                # _restart_worker re-sends the model message itself.
                self._restart_worker(shard, "worker found dead at model broadcast")
            else:
                try:
                    self._conns[shard].send(message)
                except (BrokenPipeError, OSError):
                    self._restart_worker(shard, "pipe broke during model broadcast")
        self._scrubber = scrubber

    # -- classification -------------------------------------------------
    def classify(self, shard_flows: Sequence[Optional[FlowDataset]]) -> list:
        """Deadline-supervised dispatch/collect with retry and fallback.

        Empty shards reply ``None``. Sketch mode (``agg`` given)
        supervises identically — restarts, quarantine and degradation
        all rebuild the shard's sketch state in-process from the same
        batch, which reproduces the worker's reply bit-for-bit (sketch
        builds are deterministic).
        """
        if self._scrubber is None:
            raise RuntimeError("no model broadcast to shards yet")
        self._tick += 1
        out: list = [None] * len(shard_flows)
        pending: list[tuple[int, FlowDataset, int, int]] = []
        local: list[int] = []
        for shard, flows in enumerate(shard_flows):
            if flows is None or len(flows) == 0:
                continue
            run_seq, epoch_seq = self._seq[shard], self._epoch_seq[shard]
            self._seq[shard] += 1
            self._epoch_seq[shard] += 1
            if self._degraded[shard]:
                local.append(shard)
            elif self._dispatch(shard, flows, run_seq, epoch_seq, 0):
                pending.append((shard, flows, run_seq, epoch_seq))
            else:
                local.append(shard)  # degraded during dispatch
        # Degraded shards compute while live workers chew their batches.
        for shard in local:
            out[shard] = self._classify_fallback(shard, shard_flows[shard])
        for shard, flows, run_seq, epoch_seq in pending:
            out[shard] = self._collect(shard, flows, run_seq, epoch_seq)
        return out

    def _dispatch(
        self, shard: int, flows: FlowDataset, run_seq: int, epoch_seq: int, attempt: int
    ) -> bool:
        """Send one classify request; False once the shard is degraded."""
        while not self._degraded[shard]:
            proc = self._procs[shard]
            if proc is None or not proc.is_alive():
                if not self._restart_worker(shard, "worker found dead before dispatch"):
                    return False
                continue
            directive = None
            if self.fault_plan:
                directive = self.fault_plan.directive(shard, run_seq, epoch_seq, attempt)
                if directive is not None:
                    obs.counter(names.C_RESILIENCE_FAULTS_INJECTED).inc()
            try:
                self._send_classify(shard, flows, directive)
                return True
            except (BrokenPipeError, OSError):
                if not self._restart_worker(shard, "pipe broke during dispatch"):
                    return False
        return False

    def _collect(self, shard: int, flows: FlowDataset, run_seq: int, epoch_seq: int):
        """Await one shard's reply, retrying through restarts."""
        attempt = 0
        while True:
            reply = self._await_reply(shard)
            if reply is not _FAILED:
                return reply
            attempt += 1
            if self._degraded[shard]:
                return self._classify_fallback(shard, flows)
            if attempt >= BATCH_ATTEMPTS:
                return self._quarantine(shard, flows)
            obs.counter(names.C_RESILIENCE_BATCH_RETRIES).inc()
            time.sleep(RETRY_BACKOFF * attempt)
            if not self._dispatch(shard, flows, run_seq, epoch_seq, attempt):
                return self._classify_fallback(shard, flows)

    def _await_reply(self, shard: int):
        """One deadline-bounded read; ``_FAILED`` (+ restart) on trouble."""
        conn = self._conns[shard]
        try:
            if not conn.poll(self.shard_timeout):
                obs.counter(names.C_RESILIENCE_DEADLINE_MISSES).inc()
                self._restart_worker(
                    shard, f"no reply within the {self.shard_timeout:.1f}s deadline"
                )
                return _FAILED
            reply = conn.recv()
            if _is_ipc_error(reply):
                # The worker rejected a shared-memory frame (crc/seqno/
                # generation). It answered in protocol but its view of
                # the ring cannot be trusted; restart reclaims the ring
                # and the retry re-frames the batch from scratch.
                self._restart_worker(
                    shard, f"shared-memory frame rejected: {reply[1]}"
                )
                return _FAILED
            return reply
        except _PIPE_ERRORS as exc:
            self._restart_worker(
                shard, f"worker died mid-batch: {exc if str(exc) else type(exc).__name__}"
            )
            return _FAILED

    # -- recovery -------------------------------------------------------
    def _restart_worker(self, shard: int, reason: str) -> bool:
        """Reap and respawn one worker; False if the shard degraded.

        The restart budget is checked first: more than ``max_restarts``
        restarts within the trailing :data:`RESTART_WINDOW` classify calls
        degrades the shard instead of spawning another doomed worker.
        A fresh worker immediately receives the current model message,
        the pickled blob the last broadcast kept. In shm mode the
        shard's ring is reclaimed before the respawn: the generation
        bump abandons any frame the dead worker left unacked, so a
        crash mid-ring can never deadlock the next dispatch.
        """
        self._reap(shard)
        ring = self._rings[shard]
        if ring is not None:
            ring.reclaim()
        ticks = self._restart_ticks[shard]
        ticks.append(self._tick)
        while ticks and ticks[0] <= self._tick - RESTART_WINDOW:
            ticks.popleft()
        if len(ticks) > self.max_restarts:
            self._degrade(shard, reason)
            return False
        with obs.span(names.SPAN_RESILIENCE_RESTART):
            obs.counter(names.C_RESILIENCE_WORKER_RESTARTS).inc()
            log.warning(
                "shard %d: %s; restarting worker (restart %d/%d in window)",
                shard, reason, len(ticks), self.max_restarts,
            )
            self._start_worker(shard)
            if self._model_message is not None:
                try:
                    self._conns[shard].send(self._model_message)
                except (BrokenPipeError, OSError):  # pragma: no cover - instant death
                    self._degrade(shard, "model re-broadcast to fresh worker failed")
                    return False
        return True

    def _reap(self, shard: int) -> None:
        """Tear down one worker slot (bounded: terminate, short joins)."""
        conn, proc = self._conns[shard], self._procs[shard]
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - ignores SIGTERM
                proc.kill()
                proc.join(timeout=1)
        self._conns[shard] = None
        self._procs[shard] = None

    def _degrade(self, shard: int, reason: str) -> None:
        """Permanently fall back to serial in-process execution."""
        if self._degraded[shard]:
            return
        self._degraded[shard] = True
        self._reap(shard)
        obs.gauge(names.G_RESILIENCE_DEGRADED_SHARDS).set(sum(self._degraded))
        log.error(
            "shard %d: degraded to serial in-process execution after "
            "%d restarts within %d classify calls (%s); verdicts are "
            "unaffected, throughput is",
            shard, len(self._restart_ticks[shard]), RESTART_WINDOW, reason,
        )

    # -- in-process fallback --------------------------------------------
    def _classify_fallback(self, shard: int, flows: FlowDataset):
        """Handle a shard batch in the coordinator process.

        The same :func:`~repro.core.parallel.backends.classify_shard`
        the workers (and the serial backend) run — which is why degraded
        and quarantined batches keep verdicts bit-identical.
        """
        return classify_shard(
            self._scrubber, self._fallback_registries[shard], flows,
            self.min_flows, self.agg,
        )

    def _quarantine(self, shard: int, flows: FlowDataset):
        """Poison batch: handle in-process and record the quarantine."""
        obs.counter(names.C_RESILIENCE_BATCHES_QUARANTINED).inc()
        log.error(
            "shard %d: batch of %d flows killed its worker %d time(s); "
            "quarantining — classifying in the coordinator process",
            shard, len(flows), BATCH_ATTEMPTS,
        )
        return self._classify_fallback(shard, flows)

    # -- observability --------------------------------------------------
    def snapshots(self) -> list[dict]:
        """Per-shard snapshots: worker registry merged with fallback work.

        Deadline-bounded like everything else; a shard that cannot
        answer contributes its coordinator-side fallback registry only
        (worker counters restart from zero with the worker, so shard
        series are lower bounds under faults — see docs/METRICS.md).
        """
        out = []
        for shard in range(self.n_shards):
            fallback = obs.snapshot(self._fallback_registries[shard])
            proc = self._procs[shard]
            if self._degraded[shard] or proc is None or not proc.is_alive():
                out.append(fallback)
                continue
            conn = self._conns[shard]
            try:
                conn.send(("snapshot",))
                if not conn.poll(self.shard_timeout):
                    obs.counter(names.C_RESILIENCE_DEADLINE_MISSES).inc()
                    # The pipe now holds a stale reply; the worker cannot
                    # be trusted to stay in protocol sync. Reap it — the
                    # next classify restarts it under the usual budget.
                    self._reap(shard)
                    out.append(fallback)
                    continue
                out.append(obs.merge_snapshots([conn.recv(), fallback]))
            except _PIPE_ERRORS:
                self._reap(shard)
                out.append(fallback)
        return out

    @property
    def degraded_shards(self) -> tuple[int, ...]:
        """Indices of shards running in degraded (serial) mode."""
        return tuple(i for i, d in enumerate(self._degraded) if d)
