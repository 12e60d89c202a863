"""Weight of Evidence (WoE) encoding of categorical features (§5.2.2).

Each value ``x`` of a categorical domain maps to::

    WoE(x) = ln( P(X=x | y=1) / P(X=x | y=0) )

with the division-by-zero handled by add-one smoothing on the class
counts (the paper adds 1.0 to numerator and denominator). Values unseen
during fitting encode as 0.0 (neutral) at prediction time.

WoE tables are built per categorical *domain* (src_ip, src_port,
dst_port, src_mac, protocol), pooling the occurrences of a value across
all rank columns of that domain: an IP's evidence of being a reflector
does not depend on whether it ranked first by bytes or third by packets.
This pooling is also what the paper's reflector-overlap analysis
(Fig. 12, middle: "source IPs with WoE > 1.0") operates on, and it is
the unit of "local knowledge" exchanged (or deliberately *not*
exchanged) in model transfer (§6.4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from repro.obs import names as metric_names

#: WoE assigned to values never seen during fitting (neutral evidence).
UNKNOWN_WOE = 0.0


@dataclass
class WoETable:
    """The fitted WoE mapping of one categorical domain."""

    domain: str
    mapping: dict[int, float] = field(default_factory=dict)
    #: ``mapping`` as sorted key / WoE arrays, what :meth:`encode`
    #: searches: built on first use, dropped by :meth:`set_override`,
    #: never pickled.
    _lookup: Optional[tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state.pop("_lookup", None)
        return state

    def encode_value(self, value: int) -> float:
        """WoE of one value; unknown values are neutral (0.0)."""
        return self.mapping.get(int(value), UNKNOWN_WOE)

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`encode_value` over an integer value array."""
        if self._lookup is None:
            items = sorted(self.mapping.items())
            self._lookup = (
                np.fromiter((k for k, _ in items), dtype=np.int64, count=len(items)),
                np.fromiter((w for _, w in items), dtype=np.float64, count=len(items)),
            )
        keys, woes = self._lookup
        values = np.asarray(values).astype(np.int64, copy=False)
        out = np.full(values.shape, UNKNOWN_WOE, dtype=np.float64)
        if keys.size == 0:
            return out
        idx = np.minimum(np.searchsorted(keys, values), keys.size - 1)
        known = keys[idx] == values
        out[known] = woes[idx[known]]
        return out

    def high_evidence_values(self, threshold: float = 1.0) -> set[int]:
        """Values with WoE above ``threshold`` (e.g. likely reflectors)."""
        return {v for v, w in self.mapping.items() if w > threshold}

    def set_override(self, value: int, woe: float) -> None:
        """Pin one value's WoE (operator white-/blacklisting, §6.6)."""
        self.mapping[int(value)] = float(woe)
        self._lookup = None


class WoEEncoder:
    """Per-domain WoE tables over the aggregation's categorical columns.

    ``min_count`` guards against label leakage through rare values:
    a value seen fewer than ``min_count`` times in training keeps the
    neutral unknown encoding (0.0). Without this, one-occurrence values
    (ephemeral ports, one-off client IPs) carry a class-pure WoE that
    tree models overfit to — and that evaporates at prediction time when
    fresh values encode as unknown.
    """

    def __init__(self, min_count: int = 5) -> None:
        if min_count < 1:
            raise ValueError("min_count must be >= 1")
        self.min_count = min_count
        self.tables: dict[str, WoETable] = {}
        # Raw evidence counts, kept so tables can be updated
        # incrementally: domain -> value -> [pos, neg] (floats: decay
        # produces fractional counts).
        self._counts: dict[str, dict[int, list[float]]] = {}
        self._n_pos = 0.0
        self._n_neg = 0.0
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, data: AggregatedDataset) -> "WoEEncoder":
        """Build WoE tables from labeled aggregated records."""
        self._counts = {}
        self._n_pos = 0.0
        self._n_neg = 0.0
        self._fitted = False
        with obs.span(metric_names.SPAN_ENCODING_WOE_FIT):
            return self.update(data)

    def update(self, data: AggregatedDataset, decay: float = 1.0) -> "WoEEncoder":
        """Incrementally fold new records into the WoE tables.

        ``decay`` (in (0, 1]) exponentially down-weights previously seen
        evidence before adding the new counts — the "forgetting" the
        paper's §6.3 argues incremental learning needs when, e.g.,
        reflector IPs get repurposed legitimately. ``decay=1.0``
        accumulates forever; :meth:`fit` is ``update`` on a reset state.
        Operator overrides (:meth:`WoETable.set_override`) are replayed
        only within the table they were set on and are lost on update;
        re-apply them after updating.

        An encoder restored from a persisted scrubber carries its tables
        but not the evidence counts behind them, so it cannot be
        updated: :meth:`fit` it instead.
        """
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self._fitted and not self._counts:
            raise RuntimeError(
                "this WoEEncoder was restored from its tables only (the "
                "persisted format keeps no evidence counts), so update() "
                "would rebuild them from the new batch alone; refit with fit()"
            )
        labels = data.labels
        if decay < 1.0:
            self._n_pos *= decay
            self._n_neg *= decay
            for counts in self._counts.values():
                for pair in counts.values():
                    pair[0] *= decay
                    pair[1] *= decay
        self._n_pos += float(labels.sum())
        self._n_neg += float((~labels).sum())
        for domain in schema.CATEGORICALS:
            counts = self._counts.setdefault(domain, {})
            for metric in schema.METRICS:
                for rank in range(schema.RANKS):
                    column = data.categorical[schema.key_column(domain, metric, rank)]
                    for class_index, mask in ((0, labels), (1, ~labels)):
                        values, value_counts = np.unique(column[mask], return_counts=True)
                        for v, c in zip(values, value_counts):
                            pair = counts.setdefault(int(v), [0.0, 0.0])
                            pair[class_index] += float(c)
        self._rebuild_tables()
        self._fitted = True
        return self

    def _rebuild_tables(self) -> None:
        slots = schema.RANKS * len(schema.METRICS)
        denom_pos = max(self._n_pos, 1.0) * slots
        denom_neg = max(self._n_neg, 1.0) * slots
        for domain in schema.CATEGORICALS:
            table = WoETable(domain=domain)
            for value, (pos, neg) in self._counts.get(domain, {}).items():
                if pos + neg < self.min_count:
                    continue  # rare value: stays at the neutral encoding
                p_pos = (pos + 1.0) / (denom_pos + 1.0)
                p_neg = (neg + 1.0) / (denom_neg + 1.0)
                table.mapping[value] = math.log(p_pos / p_neg)
            self.tables[domain] = table

    def table(self, domain: str) -> WoETable:
        if not self._fitted:
            raise RuntimeError("WoEEncoder is not fitted")
        return self.tables[domain]

    def encode_column(self, column_name: str, values: np.ndarray) -> np.ndarray:
        """Encode one key column through its domain table."""
        domain, _, _, is_value = schema.parse_column(column_name)
        if is_value:
            raise ValueError(f"{column_name} is a metric column, not categorical")
        return self.table(domain).encode(values)

    def transform(self, data: AggregatedDataset) -> dict[str, np.ndarray]:
        """Encode all categorical columns of ``data``."""
        return {
            name: self.encode_column(name, values)
            for name, values in data.categorical.items()
        }
