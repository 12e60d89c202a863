"""Layering pass: RS301 layer-contract imports, RS302 external deps.

The ARCHITECTURE.md import DAG is a load-bearing design decision — the
obs layer must stay embeddable anywhere (so it imports nothing from the
project), the substrate layers must not reach up into ``core``, and
``core`` must never depend on ``experiments``/``cli``. Until now the
DAG only lived in prose; this pass turns it into a checked contract.

* **RS301** — a runtime import crossing the DAG: module in layer A
  imports layer B with B not in A's allowed set. Imports under
  ``if TYPE_CHECKING:`` are exempt (annotation-only coupling). A
  subpackage absent from the contract table is flagged too — adding a
  layer means *declaring* it, in :data:`LAYERS` below and
  ARCHITECTURE.md.
* **RS302** — an import of a third-party distribution outside the
  allowlist (numpy, scipy). The repo runs on a frozen toolchain; a new
  dependency should fail loudly at lint time, not at a collaborator's
  first ``import`` error.
"""

from __future__ import annotations

import sys
from typing import Mapping, Optional

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import PACKAGE, Module, Project, runtime_imports

__all__ = ["LayeringPass", "LAYERS"]

#: The ARCHITECTURE.md import DAG: each top-level subpackage of
#: ``repro`` maps to the set of sibling subpackages it may import at
#: runtime. ``repro.obs`` (and the analyzer itself) sit at the bottom:
#: stdlib/numpy only. A subpackage missing from this table fails the
#: layering pass until the contract (here + ARCHITECTURE.md) names it.
LAYERS: Mapping[str, frozenset[str]] = {
    "obs": frozenset(),
    "analysis": frozenset(),
    "netflow": frozenset({"obs"}),
    "bgp": frozenset({"netflow", "obs"}),
    "traffic": frozenset({"netflow", "bgp", "obs"}),
    "ixp": frozenset({"netflow", "bgp", "traffic", "obs"}),
    "core": frozenset({"netflow", "bgp", "traffic", "obs"}),
    "experiments": frozenset(
        {"core", "ixp", "netflow", "bgp", "traffic", "obs"}
    ),
    "scenarios": frozenset({"core", "netflow", "bgp", "traffic", "obs"}),
    "cli": frozenset(
        {"core", "experiments", "ixp", "netflow", "bgp", "traffic", "obs",
         "analysis", "scenarios"}
    ),
}

#: External top-level imports allowed anywhere in the package.
EXTERNAL_ALLOW = frozenset({"numpy", "scipy"})

_STDLIB = frozenset(getattr(sys, "stdlib_module_names", ())) | {
    "__future__",
}


class LayeringPass:
    name = "layering"
    rule_ids = ("RS301", "RS302")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.package_modules:
            own_layer = self._layer_of(module.name)
            for node, target in runtime_imports(module):
                finding = self._check(module, node, target, own_layer)
                if finding is not None:
                    findings.append(finding)
        return findings

    @staticmethod
    def _layer_of(dotted: str) -> Optional[str]:
        """Layer name of a project module; None for the package root."""
        parts = dotted.split(".")
        if parts[0] != PACKAGE or len(parts) < 2:
            return None
        head = parts[1]
        if head in ("__init__", "__main__"):
            return None
        return head

    def _check(
        self,
        module: Module,
        node,
        target: str,
        own_layer: Optional[str],
    ) -> Optional[Finding]:
        top = target.split(".")[0]
        if top == PACKAGE:
            target_layer = self._layer_of(target)
            if target_layer is None or target_layer == own_layer:
                return None
            if own_layer is None:
                # The package root (__init__, __main__) re-exports the
                # public API; it may import anything.
                return None
            allowed = LAYERS.get(own_layer)
            if allowed is None:
                return Finding(
                    rule="RS301",
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"layer {own_layer!r} is not declared in the layer "
                        "contract — register it in LAYERS "
                        "(repro/analysis/passes/layering.py) and "
                        "docs/ARCHITECTURE.md before importing "
                        f"{target!r}"
                    ),
                    key=f"undeclared-layer:{own_layer}",
                )
            if target_layer not in allowed:
                may = ", ".join(sorted(allowed)) or "stdlib/numpy only"
                return Finding(
                    rule="RS301",
                    path=module.rel,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    message=(
                        f"layer {own_layer!r} must not import layer "
                        f"{target_layer!r} ({target}) — allowed: {may}"
                    ),
                    key=f"layer:{own_layer}->{target_layer}",
                )
            return None
        if top in _STDLIB or top in EXTERNAL_ALLOW:
            return None
        return Finding(
            rule="RS302",
            path=module.rel,
            line=node.lineno,
            col=node.col_offset + 1,
            message=(
                f"third-party import {top!r} outside the dependency "
                f"allowlist ({', '.join(sorted(EXTERNAL_ALLOW))}) — "
                "the toolchain is frozen by design; gate or stub it"
            ),
            key=f"external:{top}",
        )
