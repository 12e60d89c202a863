"""Shared experiment infrastructure.

Every experiment module exposes ``run(scale=...) -> ExperimentResult``.
Results render as plain-text tables (what the paper reports as tables)
or named series (what the paper plots as figures), so the CLI, the
benchmarks and EXPERIMENTS.md all consume the same objects.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

#: Experiment scale knob: "small" for CI-speed runs, "paper" for the
#: full-size runs recorded in EXPERIMENTS.md.
SCALES = ("small", "paper")


def cache_dir() -> Path:
    """Directory for cached corpora (override with $REPRO_CACHE_DIR)."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-ixp-scrubber"


def cached(key_parts: Sequence[object], builder: Callable[[], Any]) -> Any:
    """Build-or-load an expensive artifact keyed by ``key_parts``.

    The cache key includes a schema version constant; bump
    ``_CACHE_VERSION`` when generator semantics change.
    """
    key = hashlib.sha1(repr((_CACHE_VERSION, *key_parts)).encode()).hexdigest()[:16]
    path = cache_dir() / f"{key}.pkl"
    if path.exists():
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            path.unlink(missing_ok=True)
    artifact = builder()
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as handle:
        pickle.dump(artifact, handle)
    tmp.replace(path)
    return artifact


_CACHE_VERSION = 19


@dataclass
class ExperimentResult:
    """Uniform container for an experiment's outputs.

    ``rows`` is a list of dicts (table form); ``series`` maps series
    names to (x, y) sequences (figure form); ``notes`` records headline
    numbers for EXPERIMENTS.md.
    """

    experiment: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    series: dict[str, tuple[Sequence[float], Sequence[float]]] = field(
        default_factory=dict
    )
    notes: dict[str, Any] = field(default_factory=dict)

    def format_table(self, float_format: str = "{:.4f}") -> str:
        """Render ``rows`` as an aligned plain-text table."""
        if not self.rows:
            return f"[{self.experiment}] (no rows)"
        columns = list(self.rows[0])
        rendered: list[list[str]] = [columns]
        for row in self.rows:
            rendered.append(
                [
                    float_format.format(v) if isinstance(v, float) else str(v)
                    for v in (row.get(c, "") for c in columns)
                ]
            )
        widths = [max(len(r[i]) for r in rendered) for i in range(len(columns))]
        lines = []
        for k, row in enumerate(rendered):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if k == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"== {self.experiment} =="]
        if self.rows:
            parts.append(self.format_table())
        for name, (x, y) in self.series.items():
            parts.append(f"series {name}: {len(x)} points")
        if self.notes:
            parts.append("notes: " + ", ".join(f"{k}={v}" for k, v in sorted(self.notes.items())))
        return "\n".join(parts)


def check_scale(scale: str) -> str:
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    return scale
