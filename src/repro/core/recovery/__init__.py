"""Crash-safe checkpointing and exact resume for the streaming engine.

The subsystem (see ``docs/RECOVERY.md``) has four small parts:

* :mod:`~repro.core.recovery.durable` — the single sanctioned
  temp + fsync + rename write idiom (lint rules RS501/RS502 enforce
  that recovery/persistence paths go through it);
* :mod:`~repro.core.recovery.state_codec` — bitwise-faithful JSON
  capture/restore of engine state (no pickle on disk);
* :mod:`~repro.core.recovery.journal` /
  :mod:`~repro.core.recovery.snapshot` — the append-only verdict
  journal (source of truth) and the sha256-manifested snapshot store
  (replay shortcut), both crash-atomic;
* :mod:`~repro.core.recovery.session` — :class:`RecoverySession`, the
  driver-side glue that makes the concatenated verdict stream of any
  crash/resume sequence bit-identical to an uninterrupted run.

Errors and the durable writer import eagerly (persistence depends on
them, and on the value codec); everything else loads lazily, and the
codec reaches persistence only inside functions, to keep the
persistence ↔ recovery dependency a one-way street at import time.
"""

from __future__ import annotations

from repro.core.recovery.durable import durable_write, fsync_dir
from repro.core.recovery.errors import (
    CheckpointConfigError,
    CheckpointWriteError,
    CorruptJournalError,
    CorruptSnapshotError,
    JournalExistsError,
    NoCheckpointError,
    RecoveryError,
    ResumeDivergenceError,
)

__all__ = [
    "RecoveryError",
    "CheckpointWriteError",
    "CorruptSnapshotError",
    "CorruptJournalError",
    "NoCheckpointError",
    "CheckpointConfigError",
    "JournalExistsError",
    "ResumeDivergenceError",
    "durable_write",
    "fsync_dir",
    "CheckpointStore",
    "DiskFaultInjector",
    "CRASH_EXIT_CODE",
    "VerdictJournal",
    "RecoverySession",
    "iter_chunks",
    "drive_engine",
    "capture_engine_state",
    "restore_engine_state",
    "capture_sharded_state",
    "restore_sharded_state",
    "encode_value",
    "decode_value",
]

_LAZY = {
    "CheckpointStore": "repro.core.recovery.snapshot",
    "DiskFaultInjector": "repro.core.recovery.snapshot",
    "CRASH_EXIT_CODE": "repro.core.recovery.snapshot",
    "VerdictJournal": "repro.core.recovery.journal",
    "RecoverySession": "repro.core.recovery.session",
    "iter_chunks": "repro.core.recovery.session",
    "drive_engine": "repro.core.recovery.session",
    "capture_engine_state": "repro.core.recovery.state_codec",
    "restore_engine_state": "repro.core.recovery.state_codec",
    "capture_sharded_state": "repro.core.recovery.state_codec",
    "restore_sharded_state": "repro.core.recovery.state_codec",
    "encode_value": "repro.core.recovery.state_codec",
    "decode_value": "repro.core.recovery.state_codec",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(name)
    import importlib

    return getattr(importlib.import_module(module_name), name)
