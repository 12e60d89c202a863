"""Lint runner: passes -> suppressions -> report.

:func:`run_lint` is the one entry point the CLI, CI and the test suite
share. The order is part of the contract:

1. every pass runs over the whole project (contracts like layering and
   obs-names need the global view even when only a few paths are
   reported) — or, with ``config.cache_path`` set and nothing changed
   since the last run, the raw result is replayed from the cache
   (:mod:`repro.analysis.cache`) without parsing a file;
2. inline suppressions are applied; malformed ones (RS001) and unused
   ones (RS002) are *added* as findings, so an ignore comment can never
   rot silently;
3. the ``paths`` / ``rules`` filters scope what is reported.

The reported findings are identical cold or warm — the JSON report of a
warm run is byte-for-byte the cold report, which CI asserts. Exit
semantics (used by ``repro lint`` and CI): any finding -> 1, else 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.cache import load_cache, report_fingerprint, save_cache
from repro.analysis.config import LintConfig
from repro.analysis.findings import RULES, Finding
from repro.analysis.passes import ALL_PASSES
from repro.analysis.project import Project, iter_source_files
from repro.analysis.suppressions import Suppression, scan_suppressions

__all__ = ["LintResult", "run_lint", "format_human", "format_json"]

#: Schema version of the ``--format json`` payload; bump on breaking
#: changes (tests/test_cli.py pins the shape).
JSON_SCHEMA_VERSION = 2


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: list[Finding] = field(default_factory=list)  # actionable
    suppressed: list[tuple[Finding, Suppression]] = field(default_factory=list)
    modules_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _under(path: str, prefixes: Sequence[str]) -> bool:
    """Is ``path`` one of ``prefixes`` or inside one? (no prefixes: yes)"""
    if not prefixes:
        return True
    return any(
        path == p.rstrip("/") or path.startswith(p.rstrip("/") + "/")
        for p in prefixes
    )


def _analyze(
    config: LintConfig,
) -> tuple[list[Finding], list[Suppression], int]:
    """``(raw findings, suppressions, modules_scanned)``, cached or cold."""
    fingerprint = None
    if config.cache_path is not None:
        fingerprint = report_fingerprint(config)
        cached = load_cache(config.cache_path, fingerprint)
        if cached is not None:
            return cached
    project = Project.load(config.src_root, rel_to=config.rel_to)
    raw: list[Finding] = []
    for pass_cls in ALL_PASSES:
        raw.extend(pass_cls().run(project, config))
    suppressions: list[Suppression] = []
    for module in project.package_modules:
        found, malformed = scan_suppressions(module.rel, module.source)
        suppressions.extend(found)
        raw.extend(malformed)
    if fingerprint is not None:
        save_cache(
            config.cache_path, fingerprint, raw, suppressions,
            len(project.modules),
        )
    return raw, suppressions, len(project.modules)


def run_lint(
    config: LintConfig,
    paths: Sequence[str] = (),
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Run every pass, fold in suppressions, scope the report.

    ``paths`` restricts what is *reported* — findings and the
    suppressed tally alike — to these files or directories (posix,
    relative to the lint root); the analysis itself always sees the
    whole project. A path matching no scanned module is a
    :class:`ValueError`: a typo must not read as a clean report.
    ``rules`` restricts the report to a subset of rule ids.
    """
    if paths:
        scanned = [
            rel for _, _, rel in iter_source_files(config.src_root, config.rel_to)
        ]
        for path in paths:
            if not any(_under(rel, (path,)) for rel in scanned):
                raise ValueError(f"path {path!r} matches no scanned module")
    raw, suppressions, modules_scanned = _analyze(config)
    result = LintResult(modules_scanned=modules_scanned)
    wanted = set(rules) if rules else None

    def reported(finding: Finding) -> bool:
        return (wanted is None or finding.rule in wanted) and _under(
            finding.path, paths
        )

    kept: list[Finding] = []
    for finding in raw:
        match = next(
            (s for s in suppressions if s.matches(finding)), None
        )
        if match is None:
            kept.append(finding)
        else:
            match.used = True
            if reported(finding):
                result.suppressed.append((finding, match))

    for suppression in suppressions:
        if not suppression.used:
            kept.append(
                Finding(
                    rule="RS002",
                    path=suppression.path,
                    line=suppression.line,
                    col=1,
                    message=(
                        "unused suppression for "
                        f"{', '.join(suppression.rules)} — no matching "
                        "finding on the suppressed line; delete the comment"
                    ),
                    key=f"unused-suppression:{','.join(suppression.rules)}",
                )
            )

    result.findings = sorted(
        (f for f in kept if reported(f)), key=lambda f: f.sort_key
    )
    return result


def format_human(result: LintResult) -> str:
    """The terminal report."""
    lines = [f.render() for f in result.findings]
    lines.append(
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed, "
        f"{result.modules_scanned} module(s) scanned"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Stable machine-readable report (schema pinned by tests)."""
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "findings": [f.as_dict() for f in result.findings],
        "counts": {
            "findings": len(result.findings),
            "suppressed": len(result.suppressed),
        },
        "modules_scanned": result.modules_scanned,
        "rules": RULES,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
