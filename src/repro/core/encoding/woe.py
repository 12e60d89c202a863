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

The engine refits the tables from each training window (§6.3); a fit
keeps no evidence beyond the tables it builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from repro.obs import names as metric_names

#: WoE assigned to values never seen during fitting (neutral evidence).
UNKNOWN_WOE = 0.0


@dataclass(eq=False)
class WoETable:
    """The fitted WoE table of one categorical domain: ascending
    ``int64`` values and their ``float64`` WoE, aligned."""

    domain: str
    values: np.ndarray
    woes: np.ndarray

    def check(self) -> None:
        """Refuse (``ValueError``) a table :meth:`encode` would misread."""
        values, woes = self.values, self.woes
        if not (isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1
                and isinstance(woes, np.ndarray) and woes.dtype == np.float64
                and woes.shape == values.shape):
            raise ValueError(f"WoE table {self.domain!r} is not aligned int64 / float64 arrays")
        if np.any(values[1:] <= values[:-1]):
            raise ValueError(f"WoE table {self.domain!r} keys are not strictly ascending")
        if not np.isfinite(woes).all():
            raise ValueError(f"WoE table {self.domain!r} holds a non-finite WoE")

    def encode_value(self, value: int) -> float:
        """WoE of one value; unknown values are neutral (0.0)."""
        return float(self.encode(np.array([int(value)]))[0])

    def encode(self, values: np.ndarray) -> np.ndarray:
        """WoE of each of an integer value array (:meth:`encode_value`)."""
        keys = self.values
        values = np.asarray(values).astype(np.int64, copy=False)
        out = np.full(values.shape, UNKNOWN_WOE, dtype=np.float64)
        if keys.size:
            idx = np.minimum(np.searchsorted(keys, values), keys.size - 1)
            known = keys[idx] == values
            out[known] = self.woes[idx[known]]
        return out

    def high_evidence_values(self, threshold: float = 1.0) -> set[int]:
        """Values with WoE above ``threshold`` (e.g. likely reflectors)."""
        return set(self.values[self.woes > threshold].tolist())

    def set_override(self, value: int, woe: float) -> None:
        """Pin one value's WoE (operator white-/blacklisting, §6.6)."""
        keep = self.values != int(value)
        values, woes = self.values[keep], self.woes[keep]
        at = np.searchsorted(values, int(value))
        self.values = np.insert(values, at, int(value))
        self.woes = np.insert(woes, at, float(woe))


#: The key columns of one domain, one per (metric, rank).
_COLUMNS = len(schema.METRICS) * schema.RANKS


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

    @property
    def is_fitted(self) -> bool:
        return bool(self.tables)

    def fit(self, data: AggregatedDataset) -> "WoEEncoder":
        """Build WoE tables from labeled aggregated records."""
        with obs.span(metric_names.SPAN_ENCODING_WOE_FIT):
            labels = data.labels
            denom_pos = max(int(labels.sum()), 1) * _COLUMNS + 1.0
            denom_neg = max(int((~labels).sum()), 1) * _COLUMNS + 1.0
            # Class 0 for a blackholed record, 1 for benign, per stacked entry.
            classes = np.tile(~labels, _COLUMNS)
            tables = {}
            for domain in schema.CATEGORICALS:
                keys = np.concatenate([
                    data.categorical[schema.key_column(domain, metric, rank)]
                    for metric in schema.METRICS
                    for rank in range(schema.RANKS)
                ])
                values, inverse = np.unique(keys, return_inverse=True)
                counts = np.bincount(inverse * 2 + classes, minlength=2 * values.size)
                counts = counts.reshape(values.size, 2)
                # Rare values stay at the neutral encoding.
                kept = counts.sum(axis=1) >= self.min_count
                pos, neg = counts[kept].T
                ratios = ((pos + 1.0) / denom_pos) / ((neg + 1.0) / denom_neg)
                # math.log, not np.log: libm's rounding on every CPU.
                woes = np.array([math.log(r) for r in ratios.tolist()], dtype=np.float64)
                tables[domain] = WoETable(domain, values[kept].astype(np.int64), woes)
            self.tables = tables
        return self

    def table(self, domain: str) -> WoETable:
        if not self.is_fitted:
            raise RuntimeError("WoEEncoder is not fitted")
        return self.tables[domain]

    def encode_column(self, column_name: str, values: np.ndarray) -> np.ndarray:
        """Encode one key column through its domain table."""
        domain, _, _, is_value = schema.parse_column(column_name)
        if is_value:
            raise ValueError(f"{column_name} is a metric column, not categorical")
        return self.table(domain).encode(values)
