"""ASCII rendering of experiment series (figures without matplotlib).

The experiment harness stores every figure's data as named (x, y)
series. This module renders them in the terminal as line sparkplots —
enough to eyeball the shapes the benchmarks assert.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a numeric series as a unicode sparkline."""
    data = np.asarray([v for v in values if not (isinstance(v, float) and math.isnan(v))], dtype=float)
    if data.size == 0:
        return "(empty)"
    if data.size > width:
        # Downsample by block means.
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array([data[a:b].mean() for a, b in zip(edges[:-1], edges[1:]) if b > a])
    lo, hi = float(data.min()), float(data.max())
    if hi - lo < 1e-12:
        return _BLOCKS[4] * data.size
    scaled = (data - lo) / (hi - lo) * (len(_BLOCKS) - 2) + 1
    return "".join(_BLOCKS[int(round(v))] for v in scaled)


def render_series(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    prefix: Optional[str] = None,
    width: int = 60,
) -> str:
    """Render each (optionally prefix-filtered) series as a labelled
    sparkline with its min/max range."""
    lines = []
    for name in sorted(series):
        if prefix is not None and not name.startswith(prefix):
            continue
        _, y = series[name]
        data = [v for v in y if not (isinstance(v, float) and math.isnan(v))]
        if not data:
            lines.append(f"{name}: (no data)")
            continue
        lines.append(
            f"{name}: {sparkline(y, width)}  [{min(data):.3g} .. {max(data):.3g}]"
        )
    return "\n".join(lines) if lines else "(no series)"
