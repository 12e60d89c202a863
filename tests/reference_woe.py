"""The dict loop the WoE group-by must equal, counts and order included.

``WoEEncoder.update`` once counted evidence with one ``np.unique`` per
(metric, rank, class) column and a ``setdefault`` per value into a
``value -> [pos, neg]`` dict, and rebuilt each table value by value. It
now counts a domain in one group-by into arrays; this module keeps the
loop, so a test can check that both hold the same counts, in the same
order of first appearance, and the same ``mapping`` dicts, insertion
order included (persisted models write ``mapping`` in it).
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
        self.counts: dict[str, dict[int, list[float]]] = {}
        self.mappings: dict[str, dict[int, float]] = {}
        self.n_pos = 0.0
        self.n_neg = 0.0

    def fit(self, data: AggregatedDataset) -> "ReferenceWoE":
        self.counts = {}
        self.n_pos = 0.0
        self.n_neg = 0.0
        return self.update(data)

    def update(self, data: AggregatedDataset, decay: float = 1.0) -> "ReferenceWoE":
        labels = data.labels
        if decay < 1.0:
            self.n_pos *= decay
            self.n_neg *= decay
            for counts in self.counts.values():
                for pair in counts.values():
                    pair[0] *= decay
                    pair[1] *= decay
        self.n_pos += float(labels.sum())
        self.n_neg += float((~labels).sum())
        for domain in schema.CATEGORICALS:
            counts = self.counts.setdefault(domain, {})
            for metric in schema.METRICS:
                for rank in range(schema.RANKS):
                    column = data.categorical[schema.key_column(domain, metric, rank)]
                    for class_index, mask in ((0, labels), (1, ~labels)):
                        values, value_counts = np.unique(column[mask], return_counts=True)
                        for v, c in zip(values, value_counts):
                            pair = counts.setdefault(int(v), [0.0, 0.0])
                            pair[class_index] += float(c)
        slots = schema.RANKS * len(schema.METRICS)
        denom_pos = max(self.n_pos, 1.0) * slots
        denom_neg = max(self.n_neg, 1.0) * slots
        for domain in schema.CATEGORICALS:
            mapping = self.mappings[domain] = {}
            for value, (pos, neg) in self.counts.get(domain, {}).items():
                if pos + neg < self.min_count:
                    continue
                p_pos = (pos + 1.0) / (denom_pos + 1.0)
                p_neg = (neg + 1.0) / (denom_neg + 1.0)
                mapping[value] = math.log(p_pos / p_neg)
        return self


def counts_as_dicts(encoder: WoEEncoder) -> dict[str, dict[int, list[float]]]:
    """The encoder's evidence arrays as the reference's dicts."""
    return {
        domain: dict(zip(values.tolist(), counts.tolist()))
        for domain, (values, counts) in encoder._counts.items()
    }


def assert_same_evidence(encoder: WoEEncoder, reference: ReferenceWoE) -> None:
    """Counts, tables and class totals equal bit for bit, order included."""
    assert (encoder._n_pos, encoder._n_neg) == (reference.n_pos, reference.n_neg)
    counts = counts_as_dicts(encoder)
    assert list(counts) == list(reference.counts)
    for domain, expected in reference.counts.items():
        assert list(counts[domain].items()) == list(expected.items()), domain
    assert list(encoder.tables) == list(reference.mappings)
    for domain, expected in reference.mappings.items():
        assert list(encoder.tables[domain].mapping.items()) == list(expected.items()), domain
