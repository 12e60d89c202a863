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
:meth:`ItemEncoder.encode` are views of the same codes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
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


def canonical_antecedent(
    antecedent: Iterable[Item], item_repr: Callable[[Item], str] = repr
) -> str:
    """The one spelling of an antecedent, ``repr(sorted(antecedent, key=repr))``:
    what breaks ties in rule order and what a rule id is the hash of.

    Assembled from the items' own reprs, so a mining run that passes a
    memoising ``item_repr`` spells each item once, not once per rule.
    """
    return "[" + ", ".join(sorted(map(item_repr, antecedent))) + "]"


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


def _port_column(attribute: str, ports: np.ndarray, popular: frozenset[int]) -> ItemColumn:
    """Popular ports keep their identity, the last code is ``OTHER``."""
    known = sorted(popular)
    classes = np.full(0x10000, len(known), dtype=np.int64)
    classes[known] = np.arange(len(known))
    return ItemColumn(
        classes[ports], [(attribute, port) for port in known] + [(attribute, OTHER)]
    )


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
        flows: FlowDataset,
        top_k: int = 40,
        min_share: float = 0.001,
    ) -> "ItemEncoder":
        """Learn popular port vocabularies from ``flows``.

        A port is popular when it is among the ``top_k`` most frequent
        ports of its direction *and* carries at least ``min_share`` of
        flows.
        """
        if len(flows) == 0:
            return cls(src_ports=frozenset(), dst_ports=frozenset())

        def popular(ports: np.ndarray) -> frozenset[int]:
            values, counts = np.unique(ports, return_counts=True)
            order = np.argsort(counts)[::-1][:top_k]
            threshold = max(1, int(min_share * ports.shape[0]))
            return frozenset(int(v) for v, c in zip(values[order], counts[order]) if c >= threshold)

        return cls(popular(flows.src_port), popular(flows.dst_port))

    def _columns(self, flows: FlowDataset, labeled: bool) -> list[ItemColumn]:
        """The flows' items column by column, in :data:`ATTRIBUTES` order
        (then the class item): the one place that says which port
        collapses into ``OTHER`` and which size falls into which bin."""
        # Sizes are unbounded, so their codes are made dense; a flow
        # without packets (size 0.0) lands in bin 0, which carries no
        # item: like the matcher, where no size bin contains it.
        bins, size_codes = np.unique(
            np.ceil(np.maximum(flows.packet_size, 0.0) / PACKET_SIZE_BIN),
            return_inverse=True,
        )
        columns = [
            ItemColumn(
                flows.protocol.astype(np.int64),
                [("protocol", value) for value in range(256)],
            ),
            _port_column("port_src", flows.src_port, self.src_ports),
            _port_column("port_dst", flows.dst_port, self.dst_ports),
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
                ItemColumn(flows.blackhole.astype(np.int64), [LABEL_BENIGN, LABEL_BLACKHOLE])
            )
        return columns

    def encode(self, flows: FlowDataset) -> list[tuple[Item, ...]]:
        """Encode each flow as a transaction (without the class item)."""
        return _rows(self._columns(flows, labeled=False))

    def encode_labeled(self, flows: FlowDataset) -> list[tuple[Item, ...]]:
        """Encode flows including the class item from the blackhole label."""
        return _rows(self._columns(flows, labeled=True))

    def distinct(self, flows: FlowDataset) -> tuple[list[ItemColumn], np.ndarray]:
        """The distinct labeled transactions of ``flows``, in order of
        first occurrence, as item columns, and the number of flows
        carrying each.

        Flow header combinations repeat massively; mining runs on the
        few hundred distinct ones, weighted, whatever the window.
        """
        columns = self._columns(flows, labeled=True)
        # Mixed radix over the columns' code ranges: 256 protocols, two
        # port vocabularies (at most 65 537 classes each), the distinct
        # size bins, two classes; int64 has room for millions of bins.
        key = np.zeros(len(flows), dtype=np.int64)
        for column in columns:
            key = key * len(column.items) + column.codes
        _, first, weights = np.unique(key, return_index=True, return_counts=True)
        order = np.argsort(first)
        rows = first[order]
        return [ItemColumn(column.codes[rows], column.items) for column in columns], weights[order]

    def transactions(self, flows: FlowDataset) -> list[tuple[tuple[Item, ...], int]]:
        """:meth:`distinct` as (sorted transaction, weight) pairs: what
        FP-Growth takes, built as tuples for the distinct ones only."""
        columns, weights = self.distinct(flows)
        return [(tuple(sorted(row)), weight) for row, weight in zip(_rows(columns), weights.tolist())]
