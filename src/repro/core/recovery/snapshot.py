"""Atomic snapshot store with sha256 manifests and disk-fault injection.

A checkpoint at tick ``t`` is a *pair* of files::

    ckpt-<t:012d>.state.json      canonical JSON of the engine state
    ckpt-<t:012d>.manifest.json   {format, tick, payload, sha256, bytes}

both written with :func:`~repro.core.recovery.durable.durable_write`
(temp + fsync + rename + dir fsync), payload strictly before manifest.
The manifest is the commit record: a snapshot exists only once its
manifest is durably in place and its sha256 matches the payload bytes.
Every failure mode maps onto that invariant:

* crash between payload and manifest → orphan payload, no manifest,
  snapshot simply doesn't exist; the previous one is used;
* torn payload made visible anyway (simulated by the ``torn-write``
  fault) → sha256 mismatch at read time, snapshot rejected and the
  previous one is used;
* disk full (``enospc``) → :class:`CheckpointWriteError` before
  anything replaces the old files; the caller counts it and keeps
  streaming on the previous snapshot.

Disk faults come from the same ``REPRO_FAULTS`` grammar as worker
faults (:mod:`repro.core.resilience.faults`); for disk kinds the
``@N`` position selects the *checkpoint ordinal* (the N-th save attempt
of the run, 0-based; ``*`` = every attempt) and ``count=`` caps how
often the spec fires. ``crash-at-checkpoint`` calls the store's crash
handler — ``os._exit(70)`` by default, a hard death with no cleanup,
exactly between the payload and manifest writes (the worst moment).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Callable, Iterable, Optional

from repro.core.recovery.durable import durable_write
from repro.core.recovery.errors import (
    CorruptSnapshotError,
    NoCheckpointError,
)

__all__ = ["CheckpointStore", "DiskFaultInjector", "MANIFEST_FORMAT", "CRASH_EXIT_CODE"]

MANIFEST_FORMAT = 1

#: Process exit status of an injected ``crash-at-checkpoint`` death, so
#: harnesses can tell the simulated crash from a real failure.
CRASH_EXIT_CODE = 70

_MANIFEST_RE = re.compile(r"^ckpt-(\d{12})\.manifest\.json$")


def _file_names(tick: int) -> tuple[str, str]:
    """The (payload, manifest) file names of the snapshot at ``tick``."""
    stem = f"ckpt-{tick:012d}"
    return f"{stem}.state.json", f"{stem}.manifest.json"


def _canonical_json(obj) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _default_crash() -> None:  # pragma: no cover - exercised in subprocesses
    os._exit(CRASH_EXIT_CODE)


class DiskFaultInjector:
    """Deterministic dispenser of disk faults per checkpoint ordinal."""

    def __init__(self, specs: Iterable = ()):
        self._specs = [s for s in specs if getattr(s, "is_disk", False)]
        self._fired = [0] * len(self._specs)

    def fault_for(self, ordinal: int) -> Optional[str]:
        """The fault kind to inject for save attempt ``ordinal``, if any."""
        for i, spec in enumerate(self._specs):
            if self._fired[i] >= spec.count:
                continue
            if spec.shard is not None and spec.shard != ordinal:
                continue
            self._fired[i] += 1
            return spec.kind
        return None


class CheckpointStore:
    """Reads and writes manifest-committed snapshots in one directory."""

    def __init__(
        self,
        directory: Path,
        injector: Optional[DiskFaultInjector] = None,
        crash_handler: Optional[Callable[[], None]] = None,
        keep: int = 3,
    ):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._injector = injector or DiskFaultInjector()
        self._crash = crash_handler or _default_crash
        self._keep = keep
        self._saves = 0
        #: Size of the last committed payload, in bytes.
        self.payload_bytes = 0

    # -- writing --------------------------------------------------------
    def save(self, tick: int, state: dict) -> Path:
        """Durably commit a snapshot of ``state`` at ``tick``.

        Raises :class:`CheckpointWriteError` when the disk fails (real
        or injected ``enospc``); older snapshots are untouched in that
        case. Returns the manifest path on success, and sets
        :attr:`payload_bytes`.
        """
        ordinal = self._saves
        self._saves += 1
        fault = self._injector.fault_for(ordinal)
        payload = _canonical_json(state)
        payload_path, manifest_path = (self.directory / n for n in _file_names(tick))
        durable_write(
            payload_path,
            payload,
            fault=fault if fault in ("torn-write", "enospc") else None,
        )
        if fault == "crash-at-checkpoint":
            self._crash()
        manifest = {
            "format": MANIFEST_FORMAT,
            "tick": int(tick),
            "payload": payload_path.name,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }
        durable_write(manifest_path, _canonical_json(manifest))
        self.payload_bytes = len(payload)
        self._retain()
        return manifest_path

    def _retain(self) -> None:
        """Drop all but the newest ``keep`` snapshots (manifest first,
        so a crash mid-retention never leaves a manifest without its
        payload)."""
        ticks = self.ticks()
        for tick in ticks[: -self._keep]:
            for name in reversed(_file_names(tick)):
                try:
                    os.unlink(self.directory / name)
                except OSError:
                    pass

    # -- reading --------------------------------------------------------
    def ticks(self) -> list[int]:
        """Ticks with a committed manifest, ascending."""
        out = []
        for entry in self.directory.iterdir():
            match = _MANIFEST_RE.match(entry.name)
            if match:
                out.append(int(match.group(1)))
        return sorted(out)

    def load(self, tick: int) -> dict:
        """Load and validate the snapshot at ``tick``.

        Raises :class:`CorruptSnapshotError` on any validation failure —
        unparsable or wrong-format manifest, missing payload, size or
        sha256 mismatch.
        """
        manifest_path = self.directory / _file_names(tick)[1]
        try:
            manifest = json.loads(manifest_path.read_text())
        except FileNotFoundError as exc:
            # Absent is not corrupt: there is simply no snapshot here.
            raise NoCheckpointError(
                f"no snapshot at tick {tick} in {self.directory}"
            ) from exc
        except OSError as exc:
            raise CorruptSnapshotError(f"{manifest_path}: unreadable: {exc}") from exc
        except ValueError as exc:
            raise CorruptSnapshotError(
                f"{manifest_path}: not valid JSON (truncated?): {exc}"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
            raise CorruptSnapshotError(
                f"{manifest_path}: unknown manifest format "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}"
            )
        if manifest.get("tick") != tick:
            raise CorruptSnapshotError(
                f"{manifest_path}: manifest tick {manifest.get('tick')!r} "
                f"does not match filename tick {tick}"
            )
        payload_path = self.directory / str(manifest.get("payload", ""))
        try:
            payload = payload_path.read_bytes()
        except OSError as exc:
            raise CorruptSnapshotError(
                f"{payload_path}: payload unreadable: {exc}"
            ) from exc
        if len(payload) != manifest.get("bytes"):
            raise CorruptSnapshotError(
                f"{payload_path}: {len(payload)} bytes on disk, manifest "
                f"promises {manifest.get('bytes')}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest.get("sha256"):
            raise CorruptSnapshotError(
                f"{payload_path}: sha256 mismatch (torn write?): "
                f"{digest} != {manifest.get('sha256')}"
            )
        try:
            return json.loads(payload)
        except ValueError as exc:  # pragma: no cover - sha already matched
            raise CorruptSnapshotError(
                f"{payload_path}: payload is not valid JSON: {exc}"
            ) from exc

    def latest(self) -> tuple[int, dict, int]:
        """Newest valid snapshot as ``(tick, state, n_rejected)``.

        Corrupt snapshots are skipped (their count is returned so the
        caller can surface it); raises :class:`NoCheckpointError` when
        no snapshot validates.
        """
        rejected = 0
        for tick in reversed(self.ticks()):
            try:
                return tick, self.load(tick), rejected
            except CorruptSnapshotError:
                rejected += 1
        raise NoCheckpointError(
            f"no valid snapshot in {self.directory} ({rejected} rejected)"
        )
