"""The per-flow loops the columnar item encoding must equal.

``reference_encode`` is the definition of a flow's transaction one flow
at a time, from the scalar pieces (`packet_size_bin_label`, membership
in the encoder's port vocabularies); ``deduplicate`` collapses
transactions through a dict of sorted tuples. Together they were the
first implementation of ``repro.core.rules.items`` (tens of milliseconds
per retrain on 20 k flows) and live in the test tree as the oracle for
``ItemEncoder.encode`` / ``encode_labeled`` / ``transactions``.
"""

from __future__ import annotations

from repro.core.rules.items import (
    LABEL_BENIGN,
    LABEL_BLACKHOLE,
    OTHER,
    Item,
    ItemEncoder,
    packet_size_bin_label,
)
from repro.netflow.dataset import FlowDataset


def reference_encode(
    encoder: ItemEncoder, flows: FlowDataset, labeled: bool = False
) -> list[tuple[Item, ...]]:
    """One transaction per flow; a flow without packets has no size item."""
    sizes = flows.packet_size
    out: list[tuple[Item, ...]] = []
    for i in range(len(flows)):
        src = int(flows.src_port[i])
        dst = int(flows.dst_port[i])
        items: list[Item] = [
            ("protocol", int(flows.protocol[i])),
            ("port_src", src if src in encoder.src_ports else OTHER),
            ("port_dst", dst if dst in encoder.dst_ports else OTHER),
        ]
        if sizes[i] > 0:
            items.append(("packet_size", packet_size_bin_label(float(sizes[i]))))
        if labeled:
            items.append(LABEL_BLACKHOLE if flows.blackhole[i] else LABEL_BENIGN)
        out.append(tuple(items))
    return out


def deduplicate(
    transactions: list[tuple[Item, ...]],
) -> list[tuple[tuple[Item, ...], int]]:
    """Collapse identical transactions into (transaction, weight) pairs."""
    counts: dict[tuple[Item, ...], int] = {}
    for t in transactions:
        key = tuple(sorted(t))
        counts[key] = counts.get(key, 0) + 1
    return list(counts.items())
