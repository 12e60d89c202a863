"""Step 2 feature construction: per-target aggregation and rankings."""

from repro.core.features.aggregation import AggregatedDataset, aggregate
from repro.core.features.sketches import (
    CountMinSketch,
    SketchAggregator,
    SketchParams,
    sketch_aggregate,
)
from repro.core.features.schema import (
    CATEGORICALS,
    METRICS,
    MISSING_KEY,
    RANKS,
    all_columns,
    key_column,
    key_columns,
    parse_column,
    value_column,
    value_columns,
)

__all__ = [
    "AggregatedDataset",
    "CATEGORICALS",
    "METRICS",
    "MISSING_KEY",
    "RANKS",
    "CountMinSketch",
    "SketchAggregator",
    "SketchParams",
    "aggregate",
    "sketch_aggregate",
    "all_columns",
    "key_column",
    "key_columns",
    "parse_column",
    "value_column",
    "value_columns",
]
