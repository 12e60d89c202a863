"""obs-names pass: the catalogue / emission / documentation triangle.

Three artifacts must stay in sync: the name catalogue
(``repro/obs/names.py``), the instrument call sites across the
pipeline, and the operator documentation (``docs/METRICS.md``). Each
direction of drift has its own rule:

* **RS401** — a catalogued constant no pipeline code references: dead
  observability surface (the docs promise a metric nothing emits).
* **RS402** — a string literal passed straight to ``counter(`` /
  ``gauge(`` / ``histogram(`` / ``span(``: instrumentation bypassing
  the catalogue, invisible to the one-place-to-read contract.
* **RS403** — an emitted name (catalogued or literal) with no
  `` `name` `` row in METRICS.md.
* **RS404** — an instrument kind contradicting the constant's prefix:
  ``counter(names.G_...)`` compiles fine and silently registers a
  counter under a gauge's name.

This pass replaces the regex half of ``tests/test_docs_lint.py`` — the
AST walk sees through aliasing (``from repro.obs import names as n``)
and ignores strings in comments/docstrings that the old regex matched.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import (
    Module,
    Project,
    ScopeStack,
    attr_chain,
    collect_bindings,
    import_table,
    in_scope,
)

__all__ = ["ObsNamesPass"]

#: The obs name catalogue module.
NAMES_MODULE = "repro.obs.names"

#: Module prefixes exempt from the emission scan (the obs layer
#: handles caller-supplied names, it never emits its own).
OBS_EXEMPT = ("repro.obs",)

#: Instrument factory attribute names and the name-prefix each accepts.
_KIND_PREFIXES = {
    "counter": ("C_",),
    "gauge": ("G_",),
    "histogram": ("SPAN_", "C_", "G_"),  # histograms also back spans
    "span": ("SPAN_",),
}


@dataclass
class _Catalogue:
    """Constants parsed from the names module."""

    module: Module
    by_const: dict[str, str] = field(default_factory=dict)  # C_X -> value
    by_value: dict[str, str] = field(default_factory=dict)  # value -> C_X
    lines: dict[str, int] = field(default_factory=dict)

    @classmethod
    def parse(cls, module: Module) -> "_Catalogue":
        cat = cls(module)
        for node in module.tree.body:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not target.id.startswith(("C_", "G_", "SPAN_")):
                continue
            if isinstance(node.value, ast.Constant) and isinstance(
                node.value.value, str
            ):
                cat.by_const[target.id] = node.value.value
                cat.by_value[node.value.value] = target.id
                cat.lines[target.id] = node.lineno
        return cat


class _EmissionScanner(ast.NodeVisitor):
    """Find instrument calls and catalogue references in one module."""

    def __init__(
        self,
        module: Module,
        catalogue: _Catalogue,
        referenced: set[str],
        findings: list[Finding],
        emitted_values: set[str],
    ):
        self.module = module
        self.catalogue = catalogue
        self.referenced = referenced
        self.findings = findings
        self.emitted_values = emitted_values
        self.imports = import_table(module)
        self.scopes = ScopeStack(collect_bindings(module.tree))
        self.names_paths = self._names_aliases()

    def _names_aliases(self) -> set[str]:
        """Dotted prefixes that denote the names module in this file."""
        package = NAMES_MODULE.rsplit(".", 1)[0]  # repro.obs
        out = {NAMES_MODULE}
        # `from repro import obs` -> obs.names.C_X
        for local, dotted in self.imports.items():
            if dotted == package:
                out.add(f"{dotted}.names")
        return out

    def _const_of(self, node: ast.AST) -> Optional[str]:
        """C_X if the expression is a reference to a catalogue constant."""
        parts = attr_chain(node)
        if parts is None or self.scopes.is_local(parts[0]):
            return None
        resolved = self.imports.get(parts[0])
        if resolved is None:
            return None
        dotted = ".".join([resolved] + parts[1:])
        # Direct constant import: from repro.obs.names import C_X
        if dotted.rsplit(".", 1)[0] == NAMES_MODULE:
            const = dotted.rsplit(".", 1)[1]
            return const if const in self.catalogue.by_const else None
        return None

    def visit_Call(self, node: ast.Call) -> None:
        kind = self._instrument_kind(node)
        if kind is not None and node.args:
            self._check_emission(node, kind, node.args[0])
        self.generic_visit(node)

    def _instrument_kind(self, node: ast.Call) -> Optional[str]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _KIND_PREFIXES:
            return func.attr
        if isinstance(func, ast.Name) and func.id in _KIND_PREFIXES:
            # from repro.obs import counter / span
            resolved = self.imports.get(func.id)
            if resolved is not None or not self.scopes.is_local(func.id):
                return func.id
        return None

    def _check_emission(self, call: ast.Call, kind: str, arg: ast.AST) -> None:
        const = self._const_of(arg)
        if const is not None:
            self.referenced.add(const)
            self.emitted_values.add(self.catalogue.by_const[const])
            if not const.startswith(_KIND_PREFIXES[kind]):
                self.findings.append(
                    Finding(
                        rule="RS404",
                        path=self.module.rel,
                        line=call.lineno,
                        col=call.col_offset + 1,
                        message=(
                            f"{kind}(names.{const}) — the constant's prefix "
                            f"says it is not a {kind} name; use the matching "
                            "instrument or rename the constant"
                        ),
                        key=f"kind:{kind}:{const}",
                    )
                )
            return
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            value = arg.value
            self.emitted_values.add(value)
            registered = self.catalogue.by_value.get(value)
            if registered is None:
                self.findings.append(
                    Finding(
                        rule="RS402",
                        path=self.module.rel,
                        line=call.lineno,
                        col=call.col_offset + 1,
                        message=(
                            f"{kind}({value!r}) bypasses the name catalogue "
                            "— add a constant to repro/obs/names.py and "
                            "emit through it"
                        ),
                        key=f"literal:{value}",
                    )
                )
            else:
                self.referenced.add(registered)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Any reference to names.C_X counts as "the pipeline uses it".
        const = self._const_of(node)
        if const is None:
            parts = attr_chain(node)
            if parts is not None and not self.scopes.is_local(parts[0]):
                resolved = self.imports.get(parts[0])
                if resolved is not None:
                    dotted = ".".join([resolved] + parts[1:])
                    prefix, _, last = dotted.rpartition(".")
                    if prefix in self.names_paths and last in (
                        self.catalogue.by_const
                    ):
                        const = last
        if const is not None:
            self.referenced.add(const)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # from repro.obs.names import C_X; ... C_X used bare.
        if isinstance(node.ctx, ast.Load) and not self.scopes.is_local(
            node.id
        ):
            resolved = self.imports.get(node.id)
            if resolved is not None:
                prefix, _, last = resolved.rpartition(".")
                if prefix == NAMES_MODULE and last in (
                    self.catalogue.by_const
                ):
                    self.referenced.add(last)


class ObsNamesPass:
    name = "obs-names"
    rule_ids = ("RS401", "RS402", "RS403", "RS404")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        names_module = project.by_name.get(NAMES_MODULE)
        if names_module is None:
            return []  # nothing to check against (fixture trees)
        catalogue = _Catalogue.parse(names_module)
        findings: list[Finding] = []
        referenced: set[str] = set()
        emitted_values: set[str] = set()
        for module in project.package_modules:
            if in_scope(module.name, OBS_EXEMPT):
                continue
            _EmissionScanner(
                module, catalogue, referenced, findings, emitted_values
            ).visit(module.tree)

        for const, value in sorted(catalogue.by_const.items()):
            if const not in referenced:
                findings.append(
                    Finding(
                        rule="RS401",
                        path=names_module.rel,
                        line=catalogue.lines[const],
                        col=1,
                        message=(
                            f"{const} ({value!r}) is catalogued but nothing "
                            "in the pipeline references it — emit it or "
                            "delete it (and its docs/METRICS.md row)"
                        ),
                        key=f"dead-name:{const}",
                    )
                )

        if config.metrics_doc is not None and config.metrics_doc.exists():
            doc_text = config.metrics_doc.read_text(encoding="utf-8")
            documented = lambda v: f"`{v}`" in doc_text  # noqa: E731
            for value in sorted(
                set(catalogue.by_value) | emitted_values
            ):
                if not documented(value):
                    const = catalogue.by_value.get(value)
                    line = catalogue.lines.get(const, 1) if const else 1
                    findings.append(
                        Finding(
                            rule="RS403",
                            path=names_module.rel,
                            line=line,
                            col=1,
                            message=(
                                f"emitted name {value!r} has no row in "
                                f"{config.metrics_doc.name} — document it "
                                "(name, unit, emission site)"
                            ),
                            key=f"undocumented:{value}",
                        )
                    )
        return findings
