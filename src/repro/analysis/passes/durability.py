"""Durability pass: RS501 bare writes, RS502 bare renames on
recovery-critical paths.

Crash safety in this project is a discipline, not a hope: every file
the recovery subsystem may need after a crash — snapshots, manifests,
persisted models — must be produced by the one sanctioned
temp + fsync + rename idiom in :mod:`repro.core.recovery.durable`.
A bare ``open(path, "w")`` (or ``Path.write_text``) in those layers is
a torn-write bug waiting for a power cut: the rename-less write can be
half on disk when the machine dies, and the reader has no manifest to
detect it. This pass makes the discipline machine-checked:

* **RS501** — a write-capable file open (``open`` with a mode
  containing ``w``/``a``/``x``/``+``) or a ``write_text`` /
  ``write_bytes`` call inside a *durable module*
  (:data:`DURABLE_MODULES`) that is not one of the sanctioned
  writer modules (:data:`DURABLE_WRITERS`).
* **RS502** — a direct ``os.rename`` / ``os.replace`` in a durable
  module outside the sanctioned writers: half the idiom — rename
  without the fd fsync before and the directory fsync after — is
  exactly the bug the idiom exists to prevent.

Append-only files (the verdict journal) implement their own
fsync-per-append discipline, so the journal module is itself a
sanctioned writer. Suppressions follow the usual
``# repro: lint-ignore[RS501] reason`` escape hatch.
"""

from __future__ import annotations

import ast

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import (
    Module,
    Project,
    ScopeStack,
    collect_bindings,
    import_table,
    in_scope,
    resolve_dotted,
)

__all__ = ["DurabilityPass"]

#: Module prefixes whose files must survive a crash (RS501/RS502
#: scope): everything they write must go through the sanctioned
#: durable-write idiom.
DURABLE_MODULES = ("repro.core.recovery", "repro.core.persistence")

#: The sanctioned writer modules, exempt from RS501/RS502: the
#: temp+fsync+rename implementation itself, and the append-only
#: journal with its own fsync-per-append discipline.
DURABLE_WRITERS = (
    "repro.core.recovery.durable",
    "repro.core.recovery.journal",
)

#: Attribute calls that write a whole file in one go.
_WRITE_METHODS = frozenset({"write_text", "write_bytes"})

#: Dotted calls that atomically move a file without any fsync.
_RENAME_CALLS = frozenset({"os.rename", "os.replace"})

#: ``open`` mode characters that make the handle write-capable.
_WRITE_MODE_CHARS = frozenset("wax+")


def _literal_mode(node: ast.Call) -> str | None:
    """The mode argument of an ``open`` call, when it is a literal."""
    mode_node = None
    if len(node.args) >= 2:
        mode_node = node.args[1]
    else:
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode_node = keyword.value
    if mode_node is None:
        return "r"
    if isinstance(mode_node, ast.Constant) and isinstance(mode_node.value, str):
        return mode_node.value
    return None  # dynamic mode: cannot tell, stay silent


class _ModuleVisitor(ast.NodeVisitor):
    """Scope-aware walk of one durable module for the RS50x rules."""

    def __init__(self, module: Module, findings: list[Finding]):
        self.module = module
        self.findings = findings
        self.imports = import_table(module)
        self.scopes = ScopeStack(collect_bindings(module.tree))
        self.symbols: list[str] = []

    def _report(self, rule: str, node: ast.AST, message: str, key: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.rel,
                line=node.lineno,
                col=node.col_offset + 1,
                message=message,
                symbol=".".join(self.symbols),
                key=key,
            )
        )

    def _enter_scope(self, node: ast.AST, name: str) -> None:
        self.scopes.push(collect_bindings(node))
        self.symbols.append(name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.symbols.pop()
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_scope(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.symbols.append(node.name)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.symbols.pop()

    # -- the rules ------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_open(node)
        self._check_write_method(node)
        self._check_rename(node)
        self.generic_visit(node)

    def _check_open(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Name)
            and node.func.id == "open"
            and not self.scopes.is_bound("open")
        ):
            return
        mode = _literal_mode(node)
        if mode is None or not (_WRITE_MODE_CHARS & set(mode)):
            return
        self._report(
            "RS501",
            node,
            f"bare open(..., {mode!r}) in a recovery-critical module — a "
            "crash can tear this write; go through "
            "repro.core.recovery.durable.durable_write (temp + fsync + "
            "rename) or justify with a suppression",
            key=f"open:{mode}",
        )

    def _check_write_method(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _WRITE_METHODS:
            return
        self._report(
            "RS501",
            node,
            f".{node.func.attr}() writes a recovery-critical file without "
            "the temp + fsync + rename idiom — use "
            "repro.core.recovery.durable.durable_write",
            key=f"method:{node.func.attr}",
        )

    def _check_rename(self, node: ast.Call) -> None:
        dotted = resolve_dotted(node.func, self.scopes, self.imports)
        if dotted not in _RENAME_CALLS:
            return
        self._report(
            "RS502",
            node,
            f"{dotted}() in a recovery-critical module — a rename without "
            "the fd fsync before it and the directory fsync after it is "
            "not durable; use repro.core.recovery.durable.durable_write",
            key=f"rename:{dotted}",
        )


class DurabilityPass:
    """RS501/RS502 over the recovery-critical modules."""

    name = "durability"
    rule_ids = ("RS501", "RS502")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.package_modules:
            if in_scope(module.name, DURABLE_MODULES) and not in_scope(
                module.name, DURABLE_WRITERS
            ):
                _ModuleVisitor(module, findings).visit(module.tree)
        return findings
