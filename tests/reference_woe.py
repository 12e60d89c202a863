"""The dict loop the one-pass WoE fit must equal, bit for bit.

``WoEEncoder.fit`` counts a domain's evidence in one group-by and keeps
each table as sorted key / WoE arrays. This module keeps the plain
loop it replaced: one ``np.unique`` per (metric, rank, class) column, a
``setdefault`` per value into a ``value -> [pos, neg]`` dict, and the
smoothed log odds value by value. A test compares its sorted
``(value, WoE)`` pairs with the arrays, each WoE by ``float.hex``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.encoding.woe import WoEEncoder
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset


class ReferenceWoE:
    def __init__(self, min_count: int = 5) -> None:
        self.min_count = min_count
        self.mappings: dict[str, dict[int, float]] = {}

    def fit(self, data: AggregatedDataset) -> "ReferenceWoE":
        labels = data.labels
        n_pos = float(labels.sum())
        n_neg = float((~labels).sum())
        slots = schema.RANKS * len(schema.METRICS)
        denom_pos = max(n_pos, 1.0) * slots
        denom_neg = max(n_neg, 1.0) * slots
        for domain in schema.CATEGORICALS:
            counts: dict[int, list[float]] = {}
            for metric in schema.METRICS:
                for rank in range(schema.RANKS):
                    column = data.categorical[schema.key_column(domain, metric, rank)]
                    for class_index, mask in ((0, labels), (1, ~labels)):
                        values, value_counts = np.unique(column[mask], return_counts=True)
                        for v, c in zip(values, value_counts):
                            pair = counts.setdefault(int(v), [0.0, 0.0])
                            pair[class_index] += float(c)
            mapping = self.mappings[domain] = {}
            for value, (pos, neg) in counts.items():
                if pos + neg < self.min_count:
                    continue
                p_pos = (pos + 1.0) / (denom_pos + 1.0)
                p_neg = (neg + 1.0) / (denom_neg + 1.0)
                mapping[value] = math.log(p_pos / p_neg)
        return self


def woe_items(encoder: WoEEncoder) -> dict[str, list[tuple[int, str]]]:
    """Each table of ``encoder`` as ``(value, float.hex(WoE))`` pairs."""
    return {
        domain: list(zip(table.values.tolist(), map(float.hex, table.woes.tolist())))
        for domain, table in encoder.tables.items()
    }


def assert_same_tables(encoder: WoEEncoder, reference: ReferenceWoE) -> None:
    """Every table holds the reference's values and WoE, bit for bit."""
    assert encoder.tables.keys() == reference.mappings.keys()
    got = woe_items(encoder)
    for domain, mapping in reference.mappings.items():
        want = [(v, float.hex(w)) for v, w in sorted(mapping.items())]
        assert got[domain] == want, domain
