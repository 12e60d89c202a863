"""Determinism pass: RS101 wall clock, RS102 global RNG, RS103 set
iteration, RS104 salted ``hash()``.

The pipeline's headline guarantee — verdicts bit-identical across shard
counts, backends and fault injection — only holds while no code path
reads ambient nondeterminism. This pass flags the four ways it has
historically crept into ML pipelines:

* **RS101** — wall-clock reads (``time.time``, ``datetime.now``,
  ``perf_counter``...) anywhere outside the ``repro.obs`` layer, which
  owns the injectable clock. Timing belongs in spans; logic must never
  branch on the clock. ``time.sleep`` is pacing, not a read, and is
  not flagged.
* **RS102** — the process-global RNGs: any ``random.*`` module function
  and numpy's legacy ``np.random.*`` API (``rand``, ``seed``,
  ``choice``...). Only the explicit ``np.random.default_rng`` /
  ``Generator`` / ``SeedSequence`` family is allowed — a seeded
  generator is part of a function's arguments, global state is not.
* **RS103** — iterating a ``set`` (display, call, or comprehension) in
  the layers whose outputs feed serialization, hashing or verdicts
  (:data:`SET_ITER_SCOPES`). Set order is salted per process;
  wrap in ``sorted(...)`` or suppress with the reason the order
  provably cannot escape.
* **RS104** — builtin ``hash()``: salted per process for ``str`` and
  ``bytes`` since PEP 456, so it must never feed seeds, shard keys or
  serialized output. Use ``zlib.crc32``/``hashlib`` or integer keys.
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

__all__ = ["DeterminismPass"]

#: Module prefixes where wall-clock reads are legitimate (the obs
#: layer owns the injectable clock).
CLOCK_EXEMPT = ("repro.obs",)

#: Module prefixes where set-iteration order matters (RS103 scope):
#: layers whose outputs feed serialization, hashing, or verdicts.
SET_ITER_SCOPES = ("repro.core", "repro.netflow", "repro.scenarios")

#: Functions that read the ambient clock. ``time.sleep`` is absent on
#: purpose: sleeping paces execution but returns no nondeterminism.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: The only attributes of ``numpy.random`` whose *call* is allowed: the
#: explicit-Generator API. Everything else is the legacy global-state
#: or legacy-object API.
NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "MT19937",
        "Philox",
        "SFC64",
    }
)

#: ``random`` module attributes whose call does *not* touch the global
#: RNG: constructing an explicitly-seeded (or OS-entropy) instance.
STDLIB_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})


def _is_set_expr(node: ast.AST, scopes: ScopeStack) -> bool:
    """Does this expression certainly evaluate to a builtin set?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset") and not scopes.is_local(
            node.func.id
        ):
            return True
    return False


class _ModuleVisitor(ast.NodeVisitor):
    """Scope-aware walk of one module for the RS10x rules."""

    def __init__(self, module: Module, findings: list[Finding]):
        self.module = module
        self.findings = findings
        self.imports = import_table(module)
        self.scopes = ScopeStack(collect_bindings(module.tree))
        self.symbols: list[str] = []
        self.clock_exempt = in_scope(module.name, CLOCK_EXEMPT)
        self.set_scope = in_scope(module.name, SET_ITER_SCOPES)

    # -- bookkeeping ----------------------------------------------------
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
        dotted = resolve_dotted(node.func, self.scopes, self.imports)
        if dotted is not None:
            self._check_clock(node, dotted)
            self._check_rng(node, dotted)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and not self.scopes.is_bound("hash")
        ):
            self._report(
                "RS104",
                node,
                "builtin hash() is salted per process for str/bytes — "
                "use zlib.crc32/hashlib or integer keys for anything that "
                "feeds seeds, shard keys or serialized output",
                key="hash-builtin",
            )
        if self.set_scope and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple") and not self.scopes.is_local(
                node.func.id
            ):
                if len(node.args) == 1 and _is_set_expr(
                    node.args[0], self.scopes
                ):
                    self._report(
                        "RS103",
                        node,
                        f"{node.func.id}() over a set materialises salted "
                        "iteration order — use sorted(...) or justify with "
                        "a suppression",
                        key=f"set-into-{node.func.id}",
                    )
        self.generic_visit(node)

    def _check_clock(self, node: ast.Call, dotted: str) -> None:
        if self.clock_exempt or dotted not in WALL_CLOCK_CALLS:
            return
        self._report(
            "RS101",
            node,
            f"wall-clock read {dotted}() outside the obs layer — inject a "
            "clock or record timing through repro.obs spans",
            key=f"clock:{dotted}",
        )

    def _check_rng(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if parts[0] == "random" and len(parts) == 2:
            if parts[1] not in STDLIB_RANDOM_ALLOWED:
                self._report(
                    "RS102",
                    node,
                    f"{dotted}() uses the process-global stdlib RNG — pass "
                    "an explicitly seeded random.Random or numpy Generator",
                    key=f"rng:{dotted}",
                )
        elif parts[:2] == ["numpy", "random"] and len(parts) == 3:
            if parts[2] not in NP_RANDOM_ALLOWED:
                self._report(
                    "RS102",
                    node,
                    f"np.random.{parts[2]}() is the legacy global-state "
                    "numpy RNG API — use np.random.default_rng(seed) and "
                    "pass the Generator",
                    key=f"rng:{dotted}",
                )

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        if self.set_scope and _is_set_expr(iter_node, self.scopes):
            self._report(
                "RS103",
                iter_node,
                "iteration over an unordered set — order is salted per "
                "process and must not reach serialization, hashing or "
                "verdicts; wrap in sorted(...) or suppress with a reason",
                key="set-iteration",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        # Comprehensions are their own scope; bindings of the targets
        # are visible to the element expression.
        bound: set[str] = set()
        for gen in node.generators:
            bound |= collect_bindings(gen.target)
        self.scopes.push(bound)
        for gen in node.generators:
            self._check_set_iteration(gen.iter)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self.scopes.pop()

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


class DeterminismPass:
    """RS101/RS102/RS103/RS104 over every module of the package."""

    name = "determinism"
    rule_ids = ("RS101", "RS102", "RS103", "RS104")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.package_modules:
            _ModuleVisitor(module, findings).visit(module.tree)
        return findings
