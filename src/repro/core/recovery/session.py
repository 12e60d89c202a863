"""Recovery session: exactly-once verdict emission around an engine.

:class:`RecoverySession` is the glue a driver loop wraps around a
checkpoint-enabled engine. Its contract is the one the chaos suite
kills processes to verify: **the concatenation of verdicts emitted
across any number of crashed-and-resumed incarnations is bit-identical
to one uninterrupted run.**

The pieces and their order of operations:

* a *tick* is the driver's chunk index (the ``chunk_bins``-sized ingest
  step both the CLI and the scenario conductor use); the final
  ``flush`` gets the tick after the last chunk;
* every processed tick is journaled — journal append strictly precedes
  emission to the caller, and checkpointing strictly follows the
  append, so the on-disk invariant ``snapshot tick <= journal tick``
  always holds;
* on resume, the engine is rebuilt from the newest *valid* snapshot
  (tick ``t_c``; or from scratch if none validates — the journal, not
  the snapshot, is the source of truth). Ticks ``<= t_c`` are skipped
  outright; ticks in ``(t_c, journal head]`` are re-ingested and must
  reproduce the journaled bytes exactly (:class:`ResumeDivergenceError`
  otherwise) while their verdicts are *suppressed*, because the dead
  incarnation already emitted them; ticks past the head append and emit
  normally.

Because the journal is canonical bytes, a resumed run's journal file is
byte-identical to the uninterrupted run's — equivalence checks in CI
are a plain ``cmp``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from repro import obs
from repro.core.recovery.errors import (
    CheckpointWriteError,
    JournalExistsError,
    NoCheckpointError,
    ResumeDivergenceError,
)
from repro.core.recovery.journal import VerdictJournal, canonical_entry
from repro.core.recovery.snapshot import CheckpointStore, DiskFaultInjector
from repro.obs import names

__all__ = ["RecoverySession", "iter_chunks", "drive_engine"]


class RecoverySession:
    """Checkpoints and journals one engine's verdict stream.

    Parameters
    ----------
    engine:
        Any engine exposing ``capture_state``/``restore_state`` and
        ``registry`` (:class:`StreamingScrubber` or
        :class:`ShardedStreamingScrubber`).
    directory:
        The checkpoint directory — journal plus snapshots.
    every:
        Checkpoint cadence in ticks (a snapshot after every N-th
        journaled tick). ``0`` disables snapshots; the journal still
        makes resume possible via full replay.
    resume:
        Continue a previous run found in ``directory``. Without it, a
        directory that already holds journal history is refused
        (:class:`JournalExistsError`) — starting a fresh run there
        would interleave two verdict streams.
    fault_specs:
        Disk-fault specs from the ``REPRO_FAULTS`` grammar (only specs
        with ``is_disk`` are used; worker faults belong to the backend).
    crash_handler:
        Override for the ``crash-at-checkpoint`` fault's process death
        (tests raise instead of ``os._exit``).
    """

    def __init__(
        self,
        engine,
        directory: Path,
        every: int = 8,
        resume: bool = False,
        fault_specs: Iterable = (),
        crash_handler=None,
    ):
        if every < 0:
            raise ValueError("every must be >= 0")
        self.engine = engine
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._every = every
        journal_path = self.directory / VerdictJournal.FILENAME
        if not resume and journal_path.exists() and journal_path.stat().st_size:
            raise JournalExistsError(
                f"{self.directory} already holds a verdict journal; pass "
                "--resume to continue that run or use an empty directory"
            )
        self._journal = VerdictJournal.open(journal_path)
        try:
            self._store = CheckpointStore(
                self.directory,
                injector=DiskFaultInjector(fault_specs),
                crash_handler=crash_handler,
            )
            self._restored_tick = -1
            self._replay_entries = {e.tick: e for e in self._journal.entries}
            if resume:
                self._restore()
        except BaseException:
            # A half-built session must not strand the journal's fd.
            self.close()
            raise

    # ------------------------------------------------------------------
    def _restore(self) -> None:
        with obs.use_registry(self.engine.registry), obs.span(
            names.SPAN_CHECKPOINT_RESTORE
        ):
            try:
                tick, state, rejected = self._store.latest()
            except NoCheckpointError:
                # Every snapshot (if any) failed validation: full replay.
                tick, state, rejected = -1, None, len(self._store.ticks())
            if state is not None:
                self.engine.restore_state(state)
            self._restored_tick = tick
            obs.counter(names.C_CHECKPOINT_RESUMES).inc()
            obs.counter(names.C_CHECKPOINT_SNAPSHOTS_REJECTED).inc(rejected)
            obs.gauge(names.G_CHECKPOINT_RESUME_LAG_TICKS).set(
                max(0, self._journal.last_tick - tick)
            )

    # ------------------------------------------------------------------
    @property
    def restored_tick(self) -> int:
        """Tick of the restored snapshot (-1 = started from scratch)."""
        return self._restored_tick

    @property
    def journaled_tick(self) -> int:
        """Highest tick the journal has committed (-1 = none)."""
        return self._journal.last_tick

    def skip_ingest(self, tick: int) -> bool:
        """True when the restored snapshot already contains this tick."""
        return tick <= self._restored_tick

    # ------------------------------------------------------------------
    def record(self, tick: int, verdicts: list) -> list:
        """Journal one processed tick; return the verdicts to *emit*.

        In the replay zone the result is empty (already emitted by the
        dead incarnation) and the recomputed verdicts are verified
        against the journal byte-for-byte.
        """
        with obs.use_registry(self.engine.registry):
            if tick <= self._journal.last_tick:
                return self._verify_replay(tick, verdicts)
            self._journal.append(tick, verdicts)
            obs.counter(names.C_CHECKPOINT_JOURNAL_APPENDS).inc()
            self.maybe_checkpoint(tick)
        return verdicts

    def _verify_replay(self, tick: int, verdicts: list) -> list:
        entry = self._replay_entries.get(tick)
        body = canonical_entry(tick, verdicts)
        if entry is None or entry.body != body:
            raise ResumeDivergenceError(
                f"tick {tick}: replay produced different verdicts than the "
                f"journal recorded (journal={'<missing>' if entry is None else entry.body!r}, "
                f"replay={body!r}); snapshot, journal, input stream and "
                "code must be identical across incarnations"
            )
        obs.counter(names.C_CHECKPOINT_VERDICTS_SUPPRESSED).inc(len(verdicts))
        return []

    # ------------------------------------------------------------------
    def maybe_checkpoint(self, tick: int) -> bool:
        """Snapshot when the cadence says so; True if one was committed."""
        if self._every and (tick + 1) % self._every == 0:
            return self.checkpoint(tick)
        return False

    def checkpoint(self, tick: int) -> bool:
        """Snapshot the engine at ``tick``; False on survivable failure."""
        with obs.use_registry(self.engine.registry), obs.span(
            names.SPAN_CHECKPOINT_SAVE
        ):
            state = self.engine.capture_state()
            try:
                self._store.save(tick, state)
            except CheckpointWriteError:
                # Disk said no; the previous snapshot still stands and
                # the journal keeps resume correct regardless.
                obs.counter(names.C_CHECKPOINT_FAILURES).inc()
                return False
            obs.counter(names.C_CHECKPOINT_SAVES).inc()
            obs.gauge(names.G_CHECKPOINT_STATE_BYTES).set(self._store.payload_bytes)
        return True

    def close(self) -> None:
        self._journal.close()

    def __enter__(self) -> "RecoverySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# The shared driver loop
# ----------------------------------------------------------------------
def iter_chunks(
    flows,
    updates: Iterable,
    chunk_bins: int = 8,
    start_bin: Optional[int] = None,
    end_bin: Optional[int] = None,
) -> Iterator[tuple[int, object, list]]:
    """Yield ``(tick, chunk_flows, chunk_updates)`` in driver order.

    This is the one chunking rule every checkpoint-aware driver (CLI,
    scenario conductor, tests) must share: ticks count ``chunk_bins``
    one-minute bins from ``start_bin`` (default: the first bin with
    traffic) up to ``end_bin`` exclusive (default: one past the last),
    and a BGP update rides with the first chunk whose window end exceeds
    its timestamp. The last chunk runs to its own end, ``chunk_bins``
    after its start, even past ``end_bin``. Identical chunking across
    incarnations is what makes replay verification byte-exact.

    It costs O(flows + ticks): one grouping pass by chunk index (no sort
    when ``flows`` is time-sorted already), then one slice per chunk.
    Each chunk is a copy, its flows in stream order, so a chunk holds
    nothing of ``flows`` alive.
    """
    from repro.netflow.dataset import BIN_SECONDS, FlowDataset

    updates = sorted(updates, key=lambda u: u.time)
    bins = flows.time // BIN_SECONDS
    if start_bin is None:
        start_bin = int(bins.min()) if len(flows) else 0
    if end_bin is None:
        end_bin = int(bins.max()) + 1 if len(flows) else start_bin
    starts = range(start_bin, end_bin, chunk_bins)
    # Flows outside every chunk group at -1 or len(starts); no tick reads those.
    chunks = flows.groups(np.clip((bins - start_bin) // chunk_bins, -1, len(starts)))
    key, chunk = next(chunks, (len(starts), None))
    u = 0
    for tick, chunk_start in enumerate(starts):
        while key < tick:
            key, chunk = next(chunks, (len(starts), None))
        chunk_updates = []
        limit = (chunk_start + chunk_bins) * BIN_SECONDS
        while u < len(updates) and updates[u].time < limit:
            chunk_updates.append(updates[u])
            u += 1
        yield tick, chunk if key == tick else FlowDataset.empty(), chunk_updates


def drive_engine(
    engine,
    flows,
    updates: Iterable = (),
    chunk_bins: int = 8,
    session: Optional[RecoverySession] = None,
    start_bin: Optional[int] = None,
    end_bin: Optional[int] = None,
    stop_after_tick: Optional[int] = None,
) -> list:
    """Stream a capture through an engine, optionally under recovery.

    Returns the emitted verdicts (resume semantics applied when a
    ``session`` is given). ``stop_after_tick`` abandons the run right
    after recording that tick — no flush, no cleanup — which is how
    tests and scenarios simulate a coordinator killed mid-stream.
    """
    emitted: list = []
    last_tick = -1
    for tick, chunk, chunk_updates in iter_chunks(
        flows, updates, chunk_bins=chunk_bins, start_bin=start_bin, end_bin=end_bin
    ):
        last_tick = tick
        if session is not None and session.skip_ingest(tick):
            continue
        out = engine.ingest(chunk, chunk_updates)
        if session is not None:
            out = session.record(tick, out)
        emitted.extend(out)
        if stop_after_tick is not None and tick >= stop_after_tick:
            return emitted
    flush_tick = last_tick + 1
    if session is not None and session.skip_ingest(flush_tick):
        return emitted
    out = engine.flush()
    if session is not None:
        out = session.record(flush_tick, out)
    emitted.extend(out)
    return emitted
