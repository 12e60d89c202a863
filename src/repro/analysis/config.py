"""Lint configuration: where one project's inputs and outputs live.

The contracts themselves — the layer DAG, the shard-worker entry
points, the resource constructor table — are module constants beside
the pass that reads each one. :class:`LintConfig` carries only what
differs between the real tree and a fixture tree: locations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

__all__ = ["LintConfig", "default_config", "REPO_ROOT"]

#: The repository root, derived from this file's location under
#: ``src/repro/analysis/`` (parents: analysis, repro, src, root).
REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class LintConfig:
    """The files one lint run reads and writes."""

    #: Directory containing the top-level package(s) (the repo's src/).
    src_root: Path
    #: Paths in findings are rendered relative to this directory.
    rel_to: Optional[Path] = None
    #: The page documenting the obs name catalogue (RS403's input).
    metrics_doc: Optional[Path] = None
    #: Whole-report result cache (fingerprint-keyed); None disables it.
    cache_path: Optional[Path] = None


def default_config(root: Optional[Path] = None) -> LintConfig:
    """The configuration for this repository."""
    root = (root or REPO_ROOT).resolve()
    return LintConfig(
        src_root=root / "src",
        rel_to=root,
        metrics_doc=root / "docs" / "METRICS.md",
        cache_path=root / ".repro-lint-cache.json",
    )
