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


#: The key columns of one domain, one per (metric, rank).
_COLUMNS = len(schema.METRICS) * schema.RANKS


def _evidence(data: AggregatedDataset, domain: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One group-by over ``domain``'s stacked (metric, rank) key columns.

    Returns the distinct values (ascending), and per stacked entry the
    index of its value and its cell: ``2 * column + class``, columns in
    (metric, rank) order, class 0 for a blackhole record, 1 for benign.
    """
    keys = np.concatenate([
        data.categorical[schema.key_column(domain, metric, rank)]
        for metric in schema.METRICS
        for rank in range(schema.RANKS)
    ])
    values, inverse = np.unique(keys, return_inverse=True)
    cell = np.arange(_COLUMNS).repeat(len(data)) * 2 + np.tile(~data.labels, _COLUMNS)
    return values, inverse, cell


def _positions(known: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Where each of ``values`` sits in the distinct ``known``, -1 if absent."""
    if known.size == 0:
        return np.full(values.shape, -1)
    sorter = np.argsort(known)
    at = sorter[np.searchsorted(known, values, sorter=sorter).clip(max=known.size - 1)]
    return np.where(known[at] == values, at, -1)


_NO_EVIDENCE = (np.empty(0, dtype=np.int64), np.empty((0, 2)))


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
        # incrementally: domain -> (values, [pos, neg] per value), values
        # in order of first appearance (floats: decay produces
        # fractional counts).
        self._counts: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._n_pos = 0.0
        self._n_neg = 0.0
        self._fitted = False

    def __getstate__(self) -> dict[str, object]:
        # The evidence counts are fit scratch: a saved or broadcast
        # encoder carries its tables (as a list, so a checkpoint keeps
        # their order) and cannot be updated, only refitted.
        return {"min_count": self.min_count, "tables": list(self.tables.values()), "fitted": self._fitted}

    def __setstate__(self, state: dict[str, object]) -> None:
        self.__init__(state["min_count"])  # type: ignore[arg-type, misc]
        self.tables = {table.domain: table for table in state["tables"]}  # type: ignore[attr-defined]
        self._fitted = bool(state["fitted"])

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

        An encoder restored from a persisted, checkpointed or broadcast
        scrubber carries its tables but not the evidence counts behind
        them, so it cannot be updated: :meth:`fit` it instead.
        """
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        if self._fitted and not self._counts:
            raise RuntimeError(
                "this WoEEncoder was restored from its tables only (its "
                "pickled state keeps no evidence counts), so update() "
                "would rebuild them from the new batch alone; refit with fit()"
            )
        labels = data.labels
        if decay < 1.0:
            self._n_pos *= decay
            self._n_neg *= decay
            for _, counts in self._counts.values():
                counts *= decay
        self._n_pos += float(labels.sum())
        self._n_neg += float((~labels).sum())
        for domain in schema.CATEGORICALS:
            known, counts = self._counts.get(domain, _NO_EVIDENCE)
            values, inverse, cell = _evidence(data, domain)
            n = values.shape[0]
            # Integer sums: exact, whatever the order they are taken in.
            totals = np.bincount(inverse * 2 + cell % 2, minlength=2 * n).reshape(n, 2)
            totals = totals.astype(np.float64)
            at = _positions(known, values)
            seen = np.flatnonzero(at >= 0)
            if seen.size:
                # A decayed count is fractional: add each column's counts
                # to it in turn, as one column at a time always has.
                by_column = np.bincount(inverse * 2 * _COLUMNS + cell, minlength=2 * _COLUMNS * n)
                by_column = by_column.reshape(n, _COLUMNS, 2)[seen]
                totals[seen] = counts[at[seen]]
                for column in range(_COLUMNS):
                    totals[seen] += by_column[:, column]
                counts[at[seen]] = totals[seen]
            # New values go in at their first appearance over (column,
            # class, value): persisted tables keep that order.
            first = np.full(n, 2 * _COLUMNS)
            np.minimum.at(first, inverse, cell)
            fresh = np.flatnonzero(at < 0)
            fresh = fresh[np.argsort(first[fresh].astype(np.int8), kind="stable")]  # radix
            self._counts[domain] = (
                np.concatenate([known, values[fresh]]),
                np.concatenate([counts, totals[fresh]]),
            )
        self._rebuild_tables()
        self._fitted = True
        return self

    def _rebuild_tables(self) -> None:
        denom_pos = max(self._n_pos, 1.0) * _COLUMNS
        denom_neg = max(self._n_neg, 1.0) * _COLUMNS
        for domain in schema.CATEGORICALS:
            values, counts = self._counts.get(domain, _NO_EVIDENCE)
            # Rare values stay at the neutral encoding.
            kept = counts[:, 0] + counts[:, 1] >= self.min_count
            pos, neg = counts[kept].T
            ratios = ((pos + 1.0) / (denom_pos + 1.0)) / ((neg + 1.0) / (denom_neg + 1.0))
            self.tables[domain] = WoETable(
                domain=domain,
                mapping=dict(zip(values[kept].tolist(), map(math.log, ratios.tolist()))),
            )

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
