"""Zero-copy shard IPC: per-shard shared-memory batch rings.

Every closed-bin :class:`~repro.netflow.dataset.FlowDataset` batch
crosses the coordinator→worker boundary. ``FlowDataset`` is a
pointer-free struct-of-arrays with a fixed
:data:`~repro.netflow.dataset.SCHEMA`, i.e. already a wire format;
pickling it onto a pipe buys nothing but copies. With ``ipc="shm"``
the batch bytes move through ``multiprocessing.shared_memory`` and the
pipe carries the doorbell, the reply and everything else — control
messages and, once per retrain, the pickled model:

* :class:`ShmRing` — one single-producer/single-consumer frame slot
  per shard. The coordinator writes each batch as a framed blob
  (header: generation, seqno, bin, row count, payload bytes, crc32;
  payload: each schema column's raw bytes, 8-aligned) at the start of
  the data region, then sends a tiny ``("classify_shm", seqno, nbytes,
  ...)`` doorbell over the pipe. The worker reconstructs read-only
  column views with ``np.frombuffer`` — no pickle, no copy —
  classifies, acks the seqno in the ring's control block and replies
  over the pipe. The protocol keeps **at most one frame in flight per
  shard** (strict request→reply), so every frame reuses the same slot
  and space accounting degenerates to a produced/consumed seqno pair;
  a frame that does not fit (oversized batch, or an unacked frame left
  by a crashed worker) makes the caller fall back to the pickled-pipe
  message instead of blocking — the ring can never deadlock the
  stream. After a worker crash the supervisor calls
  :meth:`ShmRing.reclaim`, which bumps the ring's generation and marks
  the orphaned frame consumed; stale frames are rejected by the
  generation check on the next read. Pages are never pre-faulted: a
  ring maps its capacity but holds resident only the largest frame
  written so far.

Lifetimes: the creating process (the backend) owns every ring and must
``destroy()`` it — on ``close()`` or from the orphan reaper. Attachers
go through :func:`attach_segment`, which keeps the mapping out of
``resource_tracker``; without that, a worker killed mid-batch would
let its tracker unlink segments the coordinator still uses (bpo-39959)
and spew leak warnings at exit.

Writes into segment buffers are confined to this module: the frame
and header layout here *is* the protocol, and an out-of-band write is
caught at the reader by the seqno/generation/crc checks
(:class:`ShmProtocolError`).
"""

from __future__ import annotations

import os
import secrets
import struct
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.netflow.dataset import BIN_SECONDS, SCHEMA, FlowDataset

__all__ = [
    "ShmRing",
    "FrameRef",
    "ShmProtocolError",
    "attach_segment",
    "frame_bytes_for",
    "DEFAULT_RING_BYTES",
]

#: Default per-shard ring capacity: the largest frame it takes. 16 MiB
#: holds a ~360k-flow batch (46 B/flow, see docs/IPC.md for the sizing
#: math); larger batches fall back to the pipe rather than failing.
#: Only the pages a frame touches become resident.
DEFAULT_RING_BYTES = 16 * 1024 * 1024

#: Frame magic ("RPRF" little-endian) — catches layout bugs.
_FRAME_MAGIC = 0x46525052
#: Ring control-block magic ("RPRC").
_CTRL_MAGIC = 0x43525052

#: Frame header: magic u32, generation u32, seqno i64, bin i64,
#: rows u64, payload bytes u64, crc32 u32 — padded to 8 bytes.
_FRAME_HEADER = struct.Struct("<IIqqQQI")
_FRAME_HEADER_BYTES = (_FRAME_HEADER.size + 7) & ~7

#: Control block: 8 int64 slots at offset 0 of a ring segment.
_CTRL_SLOTS = 8
_CTRL_BYTES = _CTRL_SLOTS * 8
_C_MAGIC = 0  # _CTRL_MAGIC, written last during init
_C_GEN = 1  # reclaim generation; stale frames fail the read check
_C_PRODUCED = 2  # seqno of the last frame written
_C_CONSUMED = 3  # seqno of the last frame acked by the worker
_C_CAPACITY = 4  # data-region bytes: the largest frame the slot takes

#: Every frame's header sits right after the control block, its
#: payload right after the header: one slot, reused by every frame.
_PAYLOAD_AT = _CTRL_BYTES + _FRAME_HEADER_BYTES


def _align8(n: int) -> int:
    return (int(n) + 7) & ~7


def _payload_crc(buf, offset: int, length: int) -> int:
    """crc32 of the xor-folded payload: one pass at memory bandwidth.

    A straight ``zlib.crc32`` over the payload runs at ~3 GB/s — more
    CPU per byte than the copy it guards, which would erase the
    transport's advantage over the pickled pipe. Folding the payload
    into one 64-bit lane with ``np.bitwise_xor.reduce`` (~8x faster)
    and crc32-ing the 8-byte digest keeps the guard at memory
    bandwidth. Any single corrupted byte flips its lane and therefore
    the digest; structural failures (stale frame, torn header) are
    caught by the magic/generation/seqno/length checks before the crc
    is even consulted. Payload regions are 8-aligned by
    construction (:func:`_align8` per column), so the uint64 view is
    exact.
    """
    lanes = np.frombuffer(buf, dtype=np.uint64, count=length // 8, offset=offset)
    fold = int(np.bitwise_xor.reduce(lanes)) if len(lanes) else 0
    return zlib.crc32(fold.to_bytes(8, "little"))


class ShmProtocolError(RuntimeError):
    """A shared-memory frame or segment failed validation.

    Raised on magic/seqno/generation mismatches and crc32 failures —
    the shm analogue of a corrupted pipe message. The worker reports it
    over the doorbell pipe; the supervisor treats it like any other
    worker failure (restart, retry, quarantine).
    """


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without resource-tracker ownership.

    Only the creating process may unlink a segment. Python < 3.13
    registers *every* ``SharedMemory`` with ``resource_tracker``
    though, so an attaching worker that dies (or is killed by the
    supervisor) would have its tracker unlink segments the coordinator
    still uses, and clean exits would print bogus leak warnings
    (bpo-39959). Newer Pythons expose ``track=False``; elsewhere we
    attach and immediately unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    # Pre-3.13: suppress the registration instead of unregistering
    # after the fact — an unregister message for a name this process
    # also *created* (unit tests attach in-process) would corrupt the
    # tracker's cache and still warn at exit.
    original_register = resource_tracker.register
    # repro: lint-ignore[RS201] per-process tracker shim is the point: each process must stop its own tracker registering a segment it does not own
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        # repro: lint-ignore[RS201] restores the per-process tracker hook patched three lines up
        resource_tracker.register = original_register


def _segment_name(kind: str, token: str) -> str:
    return f"repro-{kind}-{os.getpid()}-{token}"


@dataclass(frozen=True)
class FrameRef:
    """Doorbell payload for one ring frame: its seqno and size."""

    seqno: int
    nbytes: int


def frame_bytes_for(n_rows: int) -> int:
    """Frame size (header + 8-aligned columns) for an n-row batch."""
    payload = sum(_align8(n_rows * dtype.itemsize) for dtype in SCHEMA.values())
    return _FRAME_HEADER_BYTES + payload


class ShmRing:
    """One shard's SPSC batch slot over a shared-memory segment.

    The coordinator (producer) constructs it; the worker (consumer)
    attaches by name. Layout: a 64-byte control block of int64 slots,
    then the data region, where every frame starts. The request→reply
    discipline of the backends keeps at most one frame in flight, so
    "is there room" reduces to "is the previous frame acked" —
    :meth:`write_flows` returns ``None`` (caller falls back to the
    pipe) instead of ever waiting on the consumer.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_RING_BYTES,
        *,
        _attach_name: Optional[str] = None,
    ):
        self._closed = False
        self._owner = _attach_name is None
        if self._owner:
            capacity = _align8(max(int(capacity_bytes), _FRAME_HEADER_BYTES + 8))
            name = _segment_name("ring", secrets.token_hex(4))
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=_CTRL_BYTES + capacity
            )
            try:
                ctrl = self._ctrl_view()
                ctrl[_C_GEN] = 0
                ctrl[_C_PRODUCED] = 0
                ctrl[_C_CONSUMED] = 0
                ctrl[_C_CAPACITY] = capacity
                ctrl[_C_MAGIC] = _CTRL_MAGIC  # last: marks the block valid
            except BaseException:
                ctrl = None  # drop the view so the unmap can succeed
                self._closed = True
                self._shm.close()
                self._shm.unlink()
                raise
        else:
            self._shm = attach_segment(_attach_name)
            try:
                ctrl = self._ctrl_view()
                if int(ctrl[_C_MAGIC]) != _CTRL_MAGIC:
                    raise ShmProtocolError(
                        f"segment {_attach_name!r} has no valid ring "
                        "control block"
                    )
            except BaseException:
                ctrl = None  # drop the view so the unmap can succeed
                self._closed = True
                self._shm.close()
                raise
        self._ctrl = ctrl

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring (worker side; never unlinks)."""
        return cls(_attach_name=name)

    def _ctrl_view(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=_CTRL_SLOTS)

    # -- introspection --------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def capacity(self) -> int:
        return int(self._ctrl[_C_CAPACITY])

    @property
    def generation(self) -> int:
        return int(self._ctrl[_C_GEN])

    # -- producer side --------------------------------------------------
    def write_flows(self, seqno: int, flows: FlowDataset) -> Optional[FrameRef]:
        """Frame one batch into the ring; ``None`` means "use the pipe".

        ``None`` is returned when the previous frame is still unacked
        (a crashed worker's orphan, until :meth:`reclaim` runs) or the
        frame exceeds the ring capacity — both are fallback conditions,
        never errors, so the stream keeps moving regardless of batch
        size or worker state.
        """
        ctrl = self._ctrl
        if int(ctrl[_C_PRODUCED]) != int(ctrl[_C_CONSUMED]):
            return None
        rows = len(flows)
        nbytes = frame_bytes_for(rows)
        capacity = int(ctrl[_C_CAPACITY])
        if nbytes > capacity:
            return None
        offset = _PAYLOAD_AT
        first_bin = int(flows.column("time")[0]) // BIN_SECONDS if rows else -1
        for name, dtype in SCHEMA.items():
            column = np.ascontiguousarray(flows.column(name))
            dst = np.frombuffer(
                self._shm.buf, dtype=dtype, count=rows, offset=offset
            )
            dst[:] = column
            offset += _align8(column.nbytes)
        payload = nbytes - _FRAME_HEADER_BYTES
        crc = _payload_crc(self._shm.buf, _PAYLOAD_AT, payload)
        _FRAME_HEADER.pack_into(
            self._shm.buf, _CTRL_BYTES,
            _FRAME_MAGIC, int(ctrl[_C_GEN]), seqno, first_bin, rows, payload, crc,
        )
        ctrl[_C_PRODUCED] = seqno
        return FrameRef(seqno=seqno, nbytes=nbytes)

    def reclaim(self) -> None:
        """Reset after a worker death: orphaned frames are abandoned.

        Bumps the generation (any frame written before the reclaim
        fails the consumer's generation check) and marks the in-flight
        frame consumed so the next :meth:`write_flows` may reuse the
        slot. Producer-side only; the respawned worker re-attaches the
        same segment and simply resumes at the next doorbell seqno.
        """
        ctrl = self._ctrl
        ctrl[_C_GEN] = int(ctrl[_C_GEN]) + 1
        ctrl[_C_CONSUMED] = int(ctrl[_C_PRODUCED])

    # -- consumer side --------------------------------------------------
    def read_flows(self, ref_seqno: int, nbytes: int) -> FlowDataset:
        """Rebuild the framed batch as zero-copy read-only views.

        Validates magic, generation, seqno, and the payload crc32
        before handing the columns to :class:`FlowDataset`; any
        mismatch raises :class:`ShmProtocolError`.
        """
        magic, gen, seqno, _bin, rows, payload, crc = _FRAME_HEADER.unpack_from(
            self._shm.buf, _CTRL_BYTES
        )
        if magic != _FRAME_MAGIC:
            raise ShmProtocolError(f"bad frame magic {magic:#x}")
        if gen != int(self._ctrl[_C_GEN]):
            raise ShmProtocolError(
                f"stale frame generation {gen} (ring at {self.generation})"
            )
        if seqno != ref_seqno:
            raise ShmProtocolError(
                f"frame seqno {seqno} does not match doorbell seqno {ref_seqno}"
            )
        if _FRAME_HEADER_BYTES + payload != int(nbytes):
            raise ShmProtocolError(
                f"frame length {payload} disagrees with doorbell {nbytes}"
            )
        check = _payload_crc(self._shm.buf, _PAYLOAD_AT, payload)
        if check != crc:
            raise ShmProtocolError(
                f"frame crc mismatch: header {crc:#x}, payload {check:#x}"
            )
        columns: dict[str, np.ndarray] = {}
        position = _PAYLOAD_AT
        for name, dtype in SCHEMA.items():
            array = np.frombuffer(
                self._shm.buf, dtype=dtype, count=rows, offset=position
            )
            columns[name] = array
            position += _align8(array.nbytes)
        return FlowDataset(columns)

    def ack(self, seqno: int) -> None:
        """Mark the frame consumed; its slot is reusable immediately.

        Call only after the reply no longer references the frame's
        views (verdicts and sketch states copy out of the batch).
        """
        self._ctrl[_C_CONSUMED] = seqno

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Unmap (both sides). Owner keeps the segment linked."""
        if self._closed:
            return
        self._closed = True
        self._ctrl = None  # release the exported buffer before close()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view
            pass

    def destroy(self) -> None:
        """Unmap and unlink (owner side). Idempotent, never raises."""
        was_closed = self._closed
        self.close()
        if self._owner and not was_closed:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
