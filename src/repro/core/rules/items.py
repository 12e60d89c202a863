"""Item encoding: flows -> transactions for association rule mining.

Association rule mining operates on *transactions* (sets of categorical
items). A sampled flow becomes a transaction of header items::

    {protocol=17, port_src=123, port_dst=OTHER, packet_size=(400,500]}
    + the class item (blackhole / benign)

Transport ports are high-cardinality, so only ports that are *popular*
in the mining data keep their identity; everything else collapses into
an ``OTHER`` category. When a rule's antecedent contains ``OTHER``, its
ACL rendering is the negation of the popular port set — which is exactly
the ``~{0,17,19,21,...}`` notation of the paper's released rules
(Fig. 6, Appendix F).

Packet sizes are binned into 100-byte intervals, rendered ``(400,500]``.

The encoding is columnar: every attribute of a flow batch becomes an
array of small integer codes plus the table of items the codes stand
for. Mining needs only the *distinct* transactions and their weights
(:meth:`ItemEncoder.distinct`), which one ``np.unique`` over the
combined codes finds, and mines those codes as they are; the tuples of
:meth:`ItemEncoder.transactions` and the per-flow lists of
:meth:`ItemEncoder.encode` are views of the same codes. Both the
vocabularies and the distinct transactions are sums over flow headers,
so they are learned from a :class:`HeaderTable` as well as from flows:
a training window is mined from its days' tables, not its flows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.netflow.dataset import FlowDataset

#: Attribute names, in canonical order.
ATTRIBUTES = ("protocol", "port_src", "port_dst", "packet_size")

#: Class-label attribute.
LABEL_ATTRIBUTE = "label"
LABEL_BLACKHOLE = (LABEL_ATTRIBUTE, "blackhole")
LABEL_BENIGN = (LABEL_ATTRIBUTE, "benign")

#: Sentinel value for the collapsed port category.
OTHER = "OTHER"

#: Width of packet-size bins in bytes.
PACKET_SIZE_BIN = 100

#: An item is an (attribute, value) pair; values are ints, bin labels or
#: the ``OTHER`` sentinel.
Item = tuple[str, object]


def _size_bin_label(index: int) -> str:
    upper = index * PACKET_SIZE_BIN
    return f"({upper - PACKET_SIZE_BIN},{upper}]"


def packet_size_bin_label(size: float) -> str:
    """Map a mean packet size to its bin label, e.g. ``"(400,500]"``."""
    if size <= 0:
        raise ValueError("packet size must be positive")
    return _size_bin_label(int(np.ceil(size / PACKET_SIZE_BIN)))


def parse_packet_size_bin(label: str) -> tuple[int, int]:
    """Inverse of :func:`packet_size_bin_label`: ``"(400,500]"`` -> (400, 500)."""
    if not (label.startswith("(") and label.endswith("]")):
        raise ValueError(f"malformed packet size bin: {label!r}")
    low_text, _, high_text = label[1:-1].partition(",")
    return int(low_text), int(high_text)


@dataclass(frozen=True)
class ItemColumn:
    """One attribute of a flow batch: a small integer code per flow and
    the item each code stands for (``None``: no item of this attribute)."""

    codes: np.ndarray
    items: list[Optional[Item]]


@dataclass(frozen=True)
class HeaderTable:
    """The flow headers mining reads, with how many flows carry each.

    One row per (protocol, source port, destination port, size bin,
    label) — the size bin is ``ceil(packet size / 100)``, 0 for a flow
    without packets — and its flow ``count``. Mining is a sum over these
    rows, so the table of a window is the tables of its days stacked
    (:meth:`concat`): a row may repeat, and every consumer adds its
    counts up.
    """

    protocol: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    size_bin: np.ndarray
    blackhole: np.ndarray
    count: np.ndarray

    @classmethod
    def per_flow(cls, flows: FlowDataset) -> "HeaderTable":
        """One row per flow, in flow order."""
        return cls(
            flows.protocol.astype(np.int64),
            flows.src_port.astype(np.int64),
            flows.dst_port.astype(np.int64),
            np.ceil(np.maximum(flows.packet_size, 0.0) / PACKET_SIZE_BIN),
            flows.blackhole,
            np.ones(len(flows), dtype=np.int64),
        )

    @classmethod
    def of(cls, flows: FlowDataset) -> "HeaderTable":
        """One row per distinct header of ``flows``, in order of first occurrence."""
        table = cls.per_flow(flows)
        bins, sizes = np.unique(table.size_bin, return_inverse=True)
        rows, count = _first_rows(
            [
                (table.protocol, 256),
                (table.src_port, 0x10000),
                (table.dst_port, 0x10000),
                (sizes, len(bins)),
                (table.blackhole, 2),
            ],
            table.count,
        )
        return cls(*(column[rows] for column in table.columns()[:-1]), count)

    @classmethod
    def concat(cls, tables: Sequence["HeaderTable"]) -> "HeaderTable":
        """The tables' rows, stacked."""
        return cls(*map(np.concatenate, zip(*(table.columns() for table in tables))))

    def columns(self) -> tuple[np.ndarray, ...]:
        """The arrays, in field order."""
        return (self.protocol, self.src_port, self.dst_port, self.size_bin, self.blackhole, self.count)

    @property
    def n_flows(self) -> int:
        return int(self.count.sum())


def _first_rows(
    codes: Sequence[tuple[np.ndarray, int]], weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Group rows by their ``(codes, radix)`` columns: the first row of
    each group, in order of occurrence, and the group's summed ``weights``.

    The key is mixed radix over the columns' code ranges (256
    protocols, two port ranges, the size bins, two classes): int64 has
    room for millions of size bins.
    """
    n = weights.shape[0]
    key = np.zeros(n, dtype=np.int64)
    for column, radix in codes:
        key = key * radix + column
    # A stable sort puts each group's first row first.
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.flatnonzero(np.concatenate(([n > 0], key[1:] != key[:-1])))
    first = order[starts]
    totals = np.add.reduceat(weights[order], starts) if n else weights
    by_occurrence = np.argsort(first)
    return first[by_occurrence], totals[by_occurrence]


def _port_column(attribute: str, ports: np.ndarray, popular: frozenset[int]) -> ItemColumn:
    """Popular ports keep their identity, the last code is ``OTHER``."""
    known = sorted(popular)
    classes = np.full(0x10000, len(known), dtype=np.int64)
    classes[known] = np.arange(len(known))
    return ItemColumn(
        classes[ports], [(attribute, port) for port in known] + [(attribute, OTHER)]
    )


def as_headers(flows: FlowDataset | HeaderTable) -> HeaderTable:
    """A header table as it is, flows as one row each."""
    return flows if isinstance(flows, HeaderTable) else HeaderTable.per_flow(flows)


def _rows(columns: list[ItemColumn]) -> list[tuple[Item, ...]]:
    """The columns' transactions, items in column order."""
    per_column = [[column.items[code] for code in column.codes.tolist()] for column in columns]
    return [tuple(item for item in row if item is not None) for row in zip(*per_column)]


@dataclass(frozen=True)
class ItemEncoder:
    """Holds the popular-port vocabularies learned from mining data.

    ``src_ports`` / ``dst_ports`` are the ports that keep their identity;
    all other ports map to ``OTHER``. The sets are needed again at
    matching time to give ``OTHER`` its negated-set ACL semantics.
    """

    src_ports: frozenset[int]
    dst_ports: frozenset[int]

    @classmethod
    def fit(
        cls,
        flows: FlowDataset | HeaderTable,
        top_k: int = 40,
        min_share: float = 0.001,
    ) -> "ItemEncoder":
        """Learn popular port vocabularies from ``flows`` (or their headers).

        A port is popular when it is among the ``top_k`` most frequent
        ports of its direction *and* carries at least ``min_share`` of
        flows.
        """
        headers = as_headers(flows)
        n_flows = headers.n_flows
        if n_flows == 0:
            return cls(src_ports=frozenset(), dst_ports=frozenset())

        def popular(ports: np.ndarray) -> frozenset[int]:
            # The ports present, ascending, and their flow counts (float
            # accumulation of integer counts: exact below 2**53 flows).
            counts = np.bincount(ports, weights=headers.count, minlength=0x10000)
            values = np.flatnonzero(counts > 0)
            counts = counts[values].astype(np.int64)
            # Stable, so a tie at the cut goes to the lower port whatever
            # sort kernel numpy dispatches on this CPU.
            order = np.argsort(-counts, kind="stable")[:top_k]
            threshold = max(1, int(min_share * n_flows))
            return frozenset(int(v) for v, c in zip(values[order], counts[order]) if c >= threshold)

        return cls(popular(headers.src_port), popular(headers.dst_port))

    def _columns(self, headers: HeaderTable, labeled: bool) -> list[ItemColumn]:
        """The headers' items column by column, in :data:`ATTRIBUTES`
        order (then the class item): the one place that says which port
        collapses into ``OTHER`` and which size bin carries which item."""
        # Sizes are unbounded, so their codes are made dense; a flow
        # without packets (size 0.0) lands in bin 0, which carries no
        # item: like the matcher, where no size bin contains it.
        bins, size_codes = np.unique(headers.size_bin, return_inverse=True)
        columns = [
            ItemColumn(headers.protocol, [("protocol", value) for value in range(256)]),
            _port_column("port_src", headers.src_port, self.src_ports),
            _port_column("port_dst", headers.dst_port, self.dst_ports),
            ItemColumn(
                size_codes,
                [
                    ("packet_size", _size_bin_label(int(b))) if b > 0 else None
                    for b in bins.tolist()
                ],
            ),
        ]
        if labeled:
            columns.append(
                ItemColumn(headers.blackhole.astype(np.int64), [LABEL_BENIGN, LABEL_BLACKHOLE])
            )
        return columns

    def encode(self, flows: FlowDataset) -> list[tuple[Item, ...]]:
        """Encode each flow as a transaction (without the class item)."""
        return _rows(self._columns(HeaderTable.per_flow(flows), labeled=False))

    def encode_labeled(self, flows: FlowDataset) -> list[tuple[Item, ...]]:
        """Encode flows including the class item from the blackhole label."""
        return _rows(self._columns(HeaderTable.per_flow(flows), labeled=True))

    def distinct(self, flows: FlowDataset | HeaderTable) -> tuple[list[ItemColumn], np.ndarray]:
        """The distinct labeled transactions of ``flows`` (or of their
        headers), in order of first occurrence, as item columns, and the
        number of flows carrying each.

        Flow header combinations repeat massively; mining runs on the
        few hundred distinct ones, weighted, whatever the window.
        """
        headers = as_headers(flows)
        columns = self._columns(headers, labeled=True)
        rows, weights = _first_rows(
            [(column.codes, len(column.items)) for column in columns], headers.count
        )
        return [ItemColumn(column.codes[rows], column.items) for column in columns], weights

    def transactions(self, flows: FlowDataset) -> list[tuple[tuple[Item, ...], int]]:
        """:meth:`distinct` as (sorted transaction, weight) pairs: what
        FP-Growth takes, built as tuples for the distinct ones only."""
        columns, weights = self.distinct(flows)
        return [(tuple(sorted(row)), weight) for row, weight in zip(_rows(columns), weights.tolist())]
