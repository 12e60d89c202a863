"""Shard-safety race detector: RS201/RS202/RS203.

The process backend runs ``_worker_main`` in N forked workers, and the
coordinator assumes classification is **stateless given the broadcast
model** — that is what makes verdicts bit-identical across backends and
under fault injection. Any write to state *shared between workers and
coordinator at fork time* breaks that silently: a module global, a
class-level attribute, or a captured closure cell mutated inside a
worker diverges per process, never crashes, and only shows up (if ever)
as drift in a multi-shard chaos run.

This pass makes the assumption machine-checked:

1. index every function/method in the project, recording the calls it
   makes and the writes it performs (scope-aware — locals, parameters
   and instance attributes are fine);
2. build a call graph from :data:`WORKER_ENTRY_POINTS`
   (``_worker_main`` and the fault directive executor in
   ``core/parallel/backends.py``). A bare ``cls(...)`` in a method
   is the class's own constructor. Attribute calls on objects of
   unknown type over-approximate: they link to *every* project method
   of that name, except ubiquitous builtin-collection names — a race
   detector should err toward reachability;
3. flag, in every reachable function: writes through ``global``
   (RS201), mutations of module-level objects (RS201), writes to
   class-level attributes via ``Cls.attr`` / ``cls.attr`` /
   ``type(self).attr`` / ``self.__class__.attr`` (RS202), and
   ``nonlocal`` writes to captured cells (RS203).

Messages carry the call chain from the entry point so the finding is
reviewable without re-deriving reachability by hand.
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
    attr_chain,
    collect_bindings,
    import_table,
)

__all__ = ["ShardSafetyPass"]

#: Qualified names of the functions that run inside shard workers: the
#: race detector's call-graph roots. Entries absent from the linted
#: tree are skipped.
WORKER_ENTRY_POINTS = (
    "repro.core.parallel.backends._worker_main",
    "repro.core.parallel.backends._execute_fault",
)

#: Method names never used for name-based call-graph fallback: they are
#: overwhelmingly builtin-collection / numpy / pipe operations, and
#: linking every project method of the same name would drown the graph.
FALLBACK_DENYLIST = frozenset(
    {
        "append", "add", "update", "extend", "insert", "remove", "discard",
        "clear", "pop", "popitem", "setdefault", "sort", "reverse", "get",
        "keys", "values", "items", "copy", "join", "split", "strip", "read",
        "write", "close", "send", "recv", "poll", "encode", "decode",
        "format", "index", "count", "sum", "mean", "min", "max", "astype",
        "reshape", "tolist", "item", "take", "fill", "seed", "put", "join",
        "start", "terminate", "kill", "is_alive", "set", "reset",
    }
)

#: Method calls that mutate their receiver in place.
MUTATING_METHODS = frozenset(
    {
        "append", "add", "update", "extend", "insert", "remove", "discard",
        "clear", "pop", "popitem", "setdefault", "sort", "reverse",
        "appendleft", "popleft", "extendleft", "fill", "put", "sort_values",
    }
)


@dataclass
class _Write:
    """A candidate shared-state write inside one function."""

    rule: str
    line: int
    col: int
    detail: str
    key: str


@dataclass
class _FuncInfo:
    qual: str
    module: Module
    node: ast.AST
    klass: Optional[str] = None
    calls_qual: set[str] = field(default_factory=set)
    calls_attr: set[str] = field(default_factory=set)
    writes: list[_Write] = field(default_factory=list)
    children: set[str] = field(default_factory=set)  # nested defs


class _Indexer(ast.NodeVisitor):
    """Collect every function/class of one module with quals."""

    def __init__(self, module: Module, funcs: dict, classes: dict):
        self.module = module
        self.funcs = funcs
        self.classes = classes
        self.stack: list[str] = []  # class/function name path
        self.parent_func: list[str] = []  # qual path of enclosing funcs

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qual = ".".join([self.module.name] + self.stack + [node.name])
        self.classes[qual] = node
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    def _visit_func(self, node) -> None:
        qual = ".".join([self.module.name] + self.stack + [node.name])
        klass = self.stack[-1] if self.stack else None
        in_class = bool(self.stack) and ".".join(
            [self.module.name] + self.stack
        ) in self.classes
        info = _FuncInfo(
            qual=qual,
            module=self.module,
            node=node,
            klass=self.stack[-1] if in_class else None,
        )
        self.funcs[qual] = info
        if self.parent_func:
            self.funcs[self.parent_func[-1]].children.add(qual)
        self.stack.append(node.name)
        self.parent_func.append(qual)
        self.generic_visit(node)
        self.parent_func.pop()
        self.stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func


class _BodyAnalyzer(ast.NodeVisitor):
    """Extract calls and shared-state writes from one function body.

    Nested function definitions are skipped — they are indexed as their
    own functions and linked as children.
    """

    def __init__(
        self,
        info: _FuncInfo,
        imports: dict[str, str],
        module_bindings: set[str],
        module_classes: set[str],
        all_classes: set[str],
    ):
        self.info = info
        self.imports = imports
        self.module_bindings = module_bindings
        self.module_classes = module_classes
        self.all_classes = all_classes
        node = info.node
        self.locals = collect_bindings(node)
        self.globals_decl: set[str] = set()
        self.nonlocals_decl: set[str] = set()
        self._collect_decls(node, top=True)

    def _collect_decls(self, node: ast.AST, top: bool) -> None:
        """global/nonlocal statements of this function's own scope."""
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scope: analyzed separately
            if isinstance(child, ast.Global):
                self.globals_decl.update(child.names)
            elif isinstance(child, ast.Nonlocal):
                self.nonlocals_decl.update(child.names)
            else:
                self._collect_decls(child, top=False)

    def run(self) -> None:
        for child in ast.iter_child_nodes(self.info.node):
            self.visit(child)

    def visit_FunctionDef(self, node) -> None:
        return  # separate function; analyzed on its own

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node) -> None:
        return  # local classes: out of scope

    # -- call collection ------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name == "cls" and self.info.klass:
                # An alternate constructor: cls(...) runs the class's own
                # __init__ (the edge builder maps a class to it).
                self.info.calls_qual.add(self.info.qual.rpartition(".")[0])
            elif name in self.locals and name not in self.globals_decl:
                pass  # bound locally (could be a nested def — children link)
            elif name in self.imports:
                self.info.calls_qual.add(self.imports[name])
            elif name in self.module_bindings:
                self.info.calls_qual.add(f"{self.info.module.name}.{name}")
        elif isinstance(func, ast.Attribute):
            parts = attr_chain(func)
            if parts is not None:
                head = parts[0]
                if head in ("self", "cls") and self.info.klass:
                    owner = self.info.qual.rsplit(".", 2)[0]
                    self.info.calls_qual.add(
                        f"{owner}.{self.info.klass}.{parts[-1]}"
                    )
                    self.info.calls_attr.add(parts[-1])
                elif head in self.imports and head not in self.locals:
                    dotted = ".".join([self.imports[head]] + parts[1:])
                    self.info.calls_qual.add(dotted)
                elif head in self.module_bindings and head not in self.locals:
                    self.info.calls_qual.add(
                        ".".join([self.info.module.name] + parts)
                    )
                else:
                    self.info.calls_attr.add(parts[-1])
            else:
                attr = func.attr
                self.info.calls_attr.add(attr)
        # Mutating method call on shared state, in any expression
        # position: GLOBAL.append(x), y = CACHE.pop(k), Cls.reg.update().
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            kind = self._base_kind(func.value)
            if kind is not None:
                rule = "RS202" if kind[0] == "class" else "RS201"
                shared = (
                    "class-level attribute"
                    if kind[0] == "class"
                    else "module-level object"
                )
                self._record(
                    rule,
                    node,
                    f"in-place mutation {kind[1]}.{func.attr}(...) of a "
                    f"{shared}",
                    key=f"mutation:{kind[1]}.{func.attr}",
                )
        self.generic_visit(node)

    # -- write collection -----------------------------------------------
    def _record(self, rule: str, node: ast.AST, detail: str, key: str) -> None:
        self.info.writes.append(
            _Write(
                rule=rule,
                line=node.lineno,
                col=node.col_offset + 1,
                detail=detail,
                key=key,
            )
        )

    def _base_kind(self, base: ast.AST) -> Optional[tuple[str, str]]:
        """Classify the base object of an attribute/subscript write.

        Returns ``(kind, name)`` with kind one of ``"class"`` (a class
        object — project class or ``cls``/``type(self)``) or
        ``"module-global"`` (module-level binding or imported module
        attribute), or None when the base is local/instance state.
        """
        # type(self).attr / self.__class__.attr
        if isinstance(base, ast.Call) and isinstance(base.func, ast.Name):
            if base.func.id == "type" and len(base.args) == 1:
                arg = base.args[0]
                if isinstance(arg, ast.Name) and arg.id == "self":
                    return ("class", "type(self)")
        parts = attr_chain(base)
        if parts is None:
            return None
        head = parts[0]
        if head == "self":
            if len(parts) >= 2 and parts[1] == "__class__":
                return ("class", "self.__class__")
            return None  # instance state: worker-owned
        if head == "cls":
            return ("class", "cls")
        if head in self.locals and head not in self.globals_decl:
            return None
        if head in self.imports:
            dotted = ".".join([self.imports[head]] + parts[1:])
            if dotted in self.all_classes:
                return ("class", dotted)
            return ("module-global", dotted)
        if head in self.module_bindings:
            mod = self.info.module.name
            if f"{mod}.{head}" in self.module_classes or head in {
                c.rsplit(".", 1)[1] for c in self.module_classes
            }:
                return ("class", head)
            return ("module-global", f"{mod}." + ".".join(parts))
        return None

    def _check_target(self, target: ast.AST, node: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.globals_decl:
                self._record(
                    "RS201",
                    node,
                    f"assignment to module global {target.id!r} (declared "
                    "global)",
                    key=f"global-write:{target.id}",
                )
            elif target.id in self.nonlocals_decl:
                self._record(
                    "RS203",
                    node,
                    f"assignment to captured closure variable {target.id!r} "
                    "(declared nonlocal)",
                    key=f"nonlocal-write:{target.id}",
                )
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            kind = self._base_kind(target.value)
            if kind is None:
                return
            what = "attribute" if isinstance(target, ast.Attribute) else "item"
            label = (
                target.attr
                if isinstance(target, ast.Attribute)
                else "[...]"
            )
            if kind[0] == "class":
                self._record(
                    "RS202",
                    node,
                    f"write to class-level {what} {kind[1]}.{label} — "
                    "shared across all instances and diverges per worker "
                    "process",
                    key=f"class-write:{kind[1]}.{label}",
                )
            else:
                self._record(
                    "RS201",
                    node,
                    f"write to module-level state {kind[1]}.{label} — "
                    "each worker process mutates its own copy",
                    key=f"module-write:{kind[1]}.{label}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_target(elt, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target, node)
        self.generic_visit(node)


class ShardSafetyPass:
    """RS201-RS203 over worker-reachable code."""

    name = "shard-safety"
    rule_ids = ("RS201", "RS202", "RS203")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        funcs: dict[str, _FuncInfo] = {}
        classes: dict[str, ast.ClassDef] = {}
        for module in project.package_modules:
            _Indexer(module, funcs, classes).visit(module.tree)

        methods_by_name: dict[str, list[str]] = {}
        for qual, info in funcs.items():
            if info.klass is not None:
                methods_by_name.setdefault(
                    qual.rsplit(".", 1)[1], []
                ).append(qual)

        for module in project.package_modules:
            imports = import_table(module)
            module_bindings = collect_bindings(module.tree)
            module_classes = {
                q for q in classes if q.rsplit(".", 1)[0] == module.name
            }
            for info in funcs.values():
                if info.module is module:
                    _BodyAnalyzer(
                        info,
                        imports,
                        module_bindings,
                        module_classes,
                        set(classes),
                    ).run()

        edges = self._build_edges(funcs, classes, methods_by_name)
        reachable, via = self._reach(WORKER_ENTRY_POINTS, edges)

        findings: list[Finding] = []
        for qual in sorted(reachable):
            info = funcs.get(qual)
            if info is None:
                continue
            chain = " -> ".join(
                part.rsplit(".", 1)[1] if "." in part else part
                for part in via[qual]
            )
            for write in info.writes:
                findings.append(
                    Finding(
                        rule=write.rule,
                        path=info.module.rel,
                        line=write.line,
                        col=write.col,
                        message=(
                            f"{write.detail}; reachable from shard-worker "
                            f"entry point via {chain}"
                        ),
                        symbol=qual[len(info.module.name) + 1 :],
                        key=write.key,
                    )
                )
        return findings

    def _build_edges(
        self,
        funcs: dict[str, _FuncInfo],
        classes: dict[str, ast.ClassDef],
        methods_by_name: dict[str, list[str]],
    ) -> dict[str, set[str]]:
        edges: dict[str, set[str]] = {q: set() for q in funcs}
        for qual, info in funcs.items():
            out = edges[qual]
            out |= info.children  # nested defs belong to their parent
            for target in info.calls_qual:
                if target in funcs:
                    out.add(target)
                elif target in classes:
                    init = f"{target}.__init__"
                    if init in funcs:
                        out.add(init)
                else:
                    # Attribute tail may be a method of a resolved class:
                    # repro.x.Cls.method via `mod.Cls.method(...)`.
                    head, _, tail = target.rpartition(".")
                    if head in classes and f"{head}.{tail}" in funcs:
                        out.add(f"{head}.{tail}")
            for attr in info.calls_attr:
                if attr in FALLBACK_DENYLIST:
                    continue
                for candidate in methods_by_name.get(attr, ()):
                    out.add(candidate)
        return edges

    def _reach(
        self, entries: tuple[str, ...], edges: dict[str, set[str]]
    ) -> tuple[set[str], dict[str, tuple[str, ...]]]:
        """BFS; returns reachable quals and the chain that reached each."""
        via: dict[str, tuple[str, ...]] = {}
        queue: list[str] = []
        for entry in entries:
            if entry in edges and entry not in via:
                via[entry] = (entry,)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            for nxt in sorted(edges.get(current, ())):
                if nxt not in via:
                    via[nxt] = via[current] + (nxt,)
                    queue.append(nxt)
        return set(via), via
