"""Columnar container for sampled flow records.

All bulk processing in this repository (balancing, rule mining, feature
aggregation) operates on :class:`FlowDataset`, a struct-of-arrays container
over numpy. This keeps per-flow operations vectorised, which matters: the
paper processes billions of flow records online, and even our scaled-down
corpora run into millions.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from repro.netflow.record import FlowRecord

#: Canonical column schema: name -> dtype.
SCHEMA: dict[str, np.dtype] = {
    "time": np.dtype(np.int64),
    "src_ip": np.dtype(np.uint32),
    "dst_ip": np.dtype(np.uint32),
    "src_port": np.dtype(np.uint16),
    "dst_port": np.dtype(np.uint16),
    "protocol": np.dtype(np.uint8),
    "packets": np.dtype(np.int64),
    "bytes": np.dtype(np.int64),
    "src_mac": np.dtype(np.uint64),
    "blackhole": np.dtype(np.bool_),
}

#: Default time-bin width used throughout the paper (one minute, §3).
BIN_SECONDS = 60


class FlowDataset:
    """A fixed-schema, columnar collection of sampled flows.

    Columns are numpy arrays of equal length; see
    :data:`SCHEMA` for names and dtypes. Instances are conceptually
    immutable: all transformations (`select`, `concat`, `sort_by_time`)
    return new datasets sharing no mutable state with their inputs other
    than numpy views where safe.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Mapping[str, np.ndarray]):
        missing = set(SCHEMA) - set(columns)
        if missing:
            raise ValueError(f"missing flow columns: {sorted(missing)}")
        unknown = set(columns) - set(SCHEMA)
        if unknown:
            raise ValueError(f"unknown flow columns: {sorted(unknown)}")
        converted: dict[str, np.ndarray] = {}
        length = None
        for name, dtype in SCHEMA.items():
            array = np.asarray(columns[name], dtype=dtype)
            if array.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if length is None:
                length = array.shape[0]
            elif array.shape[0] != length:
                raise ValueError(
                    f"column {name!r} has length {array.shape[0]}, expected {length}"
                )
            converted[name] = array
        self._columns = converted

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "FlowDataset":
        """Create a dataset with zero flows."""
        return cls({name: np.empty(0, dtype=dtype) for name, dtype in SCHEMA.items()})

    #: Row dtype for the single-pass ``from_records`` fill.
    _ROW_DTYPE = np.dtype([(name, dtype) for name, dtype in SCHEMA.items()])

    @classmethod
    def from_records(cls, records: Iterable[FlowRecord]) -> "FlowDataset":
        """Build a dataset from an iterable of :class:`FlowRecord`.

        One ``np.fromiter`` pass fills a preallocated structured buffer
        (one row per record), then each column is sliced out contiguously.
        A single pass with inline attribute access beats both a per-column
        append loop and per-column generator passes, which matters on
        million-flow corpora.
        """
        records = records if isinstance(records, list) else list(records)
        rows = np.fromiter(
            (
                (
                    r.time,
                    r.src_ip,
                    r.dst_ip,
                    r.src_port,
                    r.dst_port,
                    r.protocol,
                    r.packets,
                    r.bytes_,
                    r.src_mac,
                    r.blackhole,
                )
                for r in records
            ),
            dtype=cls._ROW_DTYPE,
            count=len(records),
        )
        return cls({name: np.ascontiguousarray(rows[name]) for name in SCHEMA})

    @classmethod
    def concat(cls, datasets: Iterable["FlowDataset"]) -> "FlowDataset":
        """Concatenate several datasets, preserving order."""
        datasets = [d for d in datasets if len(d) > 0]
        if not datasets:
            return cls.empty()
        if len(datasets) == 1:
            return datasets[0]
        return cls(
            {
                name: np.concatenate([d._columns[name] for d in datasets])
                for name in SCHEMA
            }
        )

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """Return the raw column array for ``name`` (read-only view)."""
        array = self._columns[name]
        view = array.view()
        view.flags.writeable = False
        return view

    @property
    def time(self) -> np.ndarray:
        return self.column("time")

    @property
    def src_ip(self) -> np.ndarray:
        return self.column("src_ip")

    @property
    def dst_ip(self) -> np.ndarray:
        return self.column("dst_ip")

    @property
    def src_port(self) -> np.ndarray:
        return self.column("src_port")

    @property
    def dst_port(self) -> np.ndarray:
        return self.column("dst_port")

    @property
    def protocol(self) -> np.ndarray:
        return self.column("protocol")

    @property
    def packets(self) -> np.ndarray:
        return self.column("packets")

    @property
    def bytes(self) -> np.ndarray:
        return self.column("bytes")

    @property
    def src_mac(self) -> np.ndarray:
        return self.column("src_mac")

    @property
    def blackhole(self) -> np.ndarray:
        return self.column("blackhole")

    @property
    def packet_size(self) -> np.ndarray:
        """Mean packet size per flow (float64); 0.0 for a flow without packets."""
        packets = self._columns["packets"]
        size = np.zeros(packets.shape[0], dtype=np.float64)
        return np.divide(self._columns["bytes"], packets, out=size, where=packets > 0)

    def time_bin(self) -> np.ndarray:
        """Return the integer :data:`BIN_SECONDS` bin index of each flow."""
        return self._columns["time"] // BIN_SECONDS

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def select(self, mask_or_index: np.ndarray) -> "FlowDataset":
        """Return the subset selected by a boolean mask or index array."""
        index = np.asarray(mask_or_index)
        return FlowDataset({name: array[index] for name, array in self._columns.items()})

    def with_blackhole(self, blackhole: np.ndarray) -> "FlowDataset":
        """Return a copy with the ``blackhole`` column replaced."""
        flags = np.asarray(blackhole, dtype=np.bool_)
        if flags.shape[0] != len(self):
            raise ValueError("blackhole mask length mismatch")
        columns = dict(self._columns)
        columns["blackhole"] = flags
        return FlowDataset(columns)

    def sort_by_time(self) -> "FlowDataset":
        """Return a copy sorted by timestamp (stable)."""
        order = np.argsort(self._columns["time"], kind="stable")
        return self.select(order)

    def time_slice(self, start: int, end: int) -> "FlowDataset":
        """Return flows with ``start <= time < end``."""
        time = self._columns["time"]
        return self.select((time >= start) & (time < end))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._columns["time"].shape[0])

    def __iter__(self) -> Iterator[FlowRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def record(self, index: int) -> FlowRecord:
        """Materialise row ``index`` as a :class:`FlowRecord`."""
        c = self._columns
        return FlowRecord(
            time=int(c["time"][index]),
            src_ip=int(c["src_ip"][index]),
            dst_ip=int(c["dst_ip"][index]),
            src_port=int(c["src_port"][index]),
            dst_port=int(c["dst_port"][index]),
            protocol=int(c["protocol"][index]),
            packets=int(c["packets"][index]),
            bytes_=int(c["bytes"][index]),
            src_mac=int(c["src_mac"][index]),
            blackhole=bool(c["blackhole"][index]),
        )

    def to_columns(self) -> dict[str, np.ndarray]:
        """Return a shallow copy of the column mapping."""
        return dict(self._columns)

    @property
    def total_bytes(self) -> int:
        return int(self._columns["bytes"].sum())

    @property
    def blackhole_share(self) -> float:
        """Fraction of flows carrying the blackhole label."""
        if len(self) == 0:
            return 0.0
        return float(self._columns["blackhole"].mean())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowDataset(n={len(self)}, blackhole_share={self.blackhole_share:.3f}, "
            f"bytes={self.total_bytes})"
        )
