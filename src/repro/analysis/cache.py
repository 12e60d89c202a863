"""Lint result cache: one fingerprint, one record.

The cache file (``.repro-lint-cache.json`` at the repo root) stores the
whole raw report of the last run — every pass finding, every parsed
suppression and the module count — under a single *fingerprint* of
everything that report can depend on: the source of the analyzer
itself (passes, rule messages and the contract constants beside them),
the path and sha256 of every module under the source root, and the
metrics doc. Same fingerprint, same report: a warm run hashes file
bytes, replays the record and never calls ``ast.parse``; any edit
anywhere is a miss and a cold run. ``paths`` / ``rules`` filters are
applied by the runner after replay, exactly as after a cold run.

Corrupt, missing, or version-mismatched cache files degrade silently
to a cold run — the cache is an accelerator, never a source of truth.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Optional

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import iter_source_files
from repro.analysis.suppressions import Suppression

__all__ = ["CACHE_VERSION", "load_cache", "report_fingerprint", "save_cache"]

#: Bump on any change to the cache file shape; a mismatched version is
#: treated exactly like a missing cache.
CACHE_VERSION = 2

_ANALYSIS_DIR = Path(__file__).resolve().parent


def report_fingerprint(config: LintConfig) -> str:
    """Hash of every input a lint report can depend on.

    Raw bytes, not decoded text; where the cache file lives is not an
    input.
    """
    digest = hashlib.sha256()

    def absorb(label: str, path: Path) -> None:
        sha = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{label}\0{sha}\0".encode())

    for path in sorted(_ANALYSIS_DIR.rglob("*.py")):
        absorb(path.relative_to(_ANALYSIS_DIR).as_posix(), path)
    digest.update(b"<modules>")
    for path, _, rel in iter_source_files(config.src_root, config.rel_to):
        absorb(rel, path)
    if config.metrics_doc is not None and config.metrics_doc.exists():
        absorb("<metrics-doc>", config.metrics_doc)
    return digest.hexdigest()


def load_cache(
    path: Path, fingerprint: str
) -> Optional[tuple[list[Finding], list[Suppression], int]]:
    """``(raw findings, suppressions, modules_scanned)`` or None.

    None when the file is absent, unreadable, of another version, or
    was recorded for different inputs.
    """
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if (
            data["version"] != CACHE_VERSION
            or data["fingerprint"] != fingerprint
        ):
            return None
        findings = [Finding(**r) for r in data["findings"]]
        suppressions = [
            Suppression(
                path=r["path"],
                line=r["line"],
                target_line=r["target_line"],
                rules=tuple(r["rules"]),
                reason=r["reason"],
            )
            for r in data["suppressions"]
        ]
        return findings, suppressions, int(data["modules_scanned"])
    except (OSError, ValueError, KeyError, TypeError):
        return None


def save_cache(
    path: Path,
    fingerprint: str,
    findings: list[Finding],
    suppressions: list[Suppression],
    modules_scanned: int,
) -> None:
    """Persist one run's raw report; failures are non-fatal by design."""
    payload = {
        "version": CACHE_VERSION,
        "fingerprint": fingerprint,
        "modules_scanned": modules_scanned,
        # Every dataclass field, ``key`` included (``Finding.as_dict``
        # drops it): the JSON fingerprints of a replayed report have to
        # be byte-identical to a cold run's.
        "findings": [dataclasses.asdict(f) for f in findings],
        # Not ``used``: that is per-run matching state.
        "suppressions": [
            {
                "path": s.path,
                "line": s.line,
                "target_line": s.target_line,
                "rules": list(s.rules),
                "reason": s.reason,
            }
            for s in suppressions
        ],
    }
    try:
        path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    except OSError:
        pass
