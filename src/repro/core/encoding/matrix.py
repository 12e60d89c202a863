"""Assembling aggregated records into model-ready matrices.

The training matrix has one column per feature of the aggregation
schema: the 75 categorical key columns pass through the fitted
:class:`~repro.core.encoding.woe.WoEEncoder`, the 75 metric value
columns stay numeric (NaN for absent ranks — imputation happens inside
the model pipelines). Scoring assembles only the columns the fitted
model reads, with the imputer's fill applied (:class:`MatrixAssembler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.core.encoding.woe import WoEEncoder
from repro.core.features import schema
from repro.core.features.aggregation import AggregatedDataset
from repro.obs import names as metric_names


@dataclass(frozen=True)
class FeatureMatrix:
    """A dense float matrix plus its column names and labels."""

    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X / y length mismatch")
        if self.X.shape[1] != len(self.columns):
            raise ValueError("X width / columns mismatch")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    def column_index(self, name: str) -> int:
        return self.columns.index(name)


def feature_columns() -> tuple[str, ...]:
    """Canonical column order: WoE-encoded keys, then metric values."""
    return tuple(schema.key_columns() + schema.value_columns())


_COLUMNS = feature_columns()


def assemble(data: AggregatedDataset, woe: WoEEncoder) -> FeatureMatrix:
    """Build the 150-column feature matrix for aggregated records."""
    return _assemble_into(np.empty((len(data), len(_COLUMNS))), data, woe, _COLUMNS)


def _assemble_into(
    X: np.ndarray,
    data: AggregatedDataset,
    woe: WoEEncoder,
    columns: tuple[str, ...],
    fill: Optional[float] = None,
) -> FeatureMatrix:
    if not woe.is_fitted:
        raise RuntimeError("WoE encoder must be fitted before assembling")
    with obs.span(metric_names.SPAN_ENCODING_ASSEMBLE):
        for j, name in enumerate(columns):
            if name in data.categorical:
                X[:, j] = woe.encode_column(name, data.categorical[name])
            else:
                X[:, j] = data.metrics[name]
        if fill is not None:
            np.copyto(X, fill, where=np.isnan(X))
    obs.counter(metric_names.C_ENCODING_ROWS_ASSEMBLED).inc(len(data))
    return FeatureMatrix(X=X, y=data.labels.astype(np.int64), columns=columns)


class MatrixAssembler:
    """:func:`assemble` of ``columns`` into a grow-only row buffer.

    The gather half of a compiled scorer
    (:meth:`~repro.core.models.pipeline.ModelPipeline.compile`): one per
    model epoch, kept by :class:`~repro.core.scrubber.IXPScrubber`
    beside its compiled rules, so assembling a bin allocates nothing.
    ``columns`` are the ones the model reads, and ``fill``, unless
    ``None``, replaces NaN (the imputer's step). The encoder's tables
    are looked up at call time: a refit table or an operator override
    shows in the next matrix.

    The returned :class:`FeatureMatrix` *views* the internal buffer and
    is only valid until the next :meth:`assemble` call — score it
    immediately.
    """

    def __init__(self, woe: WoEEncoder, columns: Sequence[str], fill: Optional[float]):
        self.woe = woe
        self.columns = tuple(columns)
        self.fill = fill
        self._buffer: np.ndarray | None = None

    def assemble(self, data: AggregatedDataset) -> FeatureMatrix:
        """Build the feature matrix into the reusable buffer."""
        n = len(data)
        if self._buffer is None or self._buffer.shape[0] < n:
            self._buffer = np.empty((n, len(self.columns)), dtype=np.float64)
        return _assemble_into(self._buffer[:n], data, self.woe, self.columns, self.fill)
