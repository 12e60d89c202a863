"""Project model shared by every pass: parsed modules + name resolution.

A :class:`Project` is the set of parsed modules under one source root.
On top of it this module provides the alias/scope machinery the passes
share:

* :func:`import_table` — per-module map of local alias to the dotted
  path it denotes (``np`` -> ``numpy``, ``names`` -> ``repro.obs.names``),
  with relative imports resolved against the module's package;
* :func:`attr_chain` — flatten ``a.b.c`` into ``["a", "b", "c"]``;
* :func:`resolve_dotted` — resolve an attribute/name expression to the
  dotted path of the object it refers to, honouring local shadowing
  (a parameter named ``time`` hides the module);
* :class:`ScopeStack` / :func:`collect_bindings` — the function-scope
  binding sets that make the visitors alias-aware;
* :func:`runtime_imports` — the module's imports excluding
  ``if TYPE_CHECKING:`` blocks (annotation-only imports do not create
  runtime coupling and are exempt from the layer contract).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

__all__ = [
    "Module",
    "PACKAGE",
    "Project",
    "ScopeStack",
    "attr_chain",
    "collect_bindings",
    "import_table",
    "in_scope",
    "iter_source_files",
    "resolve_dotted",
    "runtime_imports",
]

#: The top-level package the contracts speak about.
PACKAGE = "repro"


def in_scope(name: str, prefixes: Sequence[str]) -> bool:
    """Is the dotted module ``name`` one of ``prefixes`` or inside one?"""
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def iter_source_files(
    src_root: Path, rel_to: Optional[Path] = None
) -> list[tuple[Path, str, str]]:
    """Every ``(path, dotted_name, rel)`` under one source root.

    The single source of truth for which files a lint run covers —
    :meth:`Project.load` parses exactly this list, and the incremental
    cache hashes exactly this list, so a warm run can verify coverage
    without parsing anything.
    """
    src_root = src_root.resolve()
    base = (rel_to or src_root.parent).resolve()
    out: list[tuple[Path, str, str]] = []
    for path in sorted(src_root.rglob("*.py")):
        relparts = path.relative_to(src_root).parts
        if relparts[-1] == "__init__.py":
            dotted = ".".join(relparts[:-1])
        else:
            dotted = ".".join(relparts)[: -len(".py")]
        if not dotted:  # a bare __init__.py directly in src_root
            continue
        out.append((path, dotted, path.relative_to(base).as_posix()))
    return out


@dataclass
class Module:
    """One parsed source file."""

    name: str  # dotted module name, e.g. "repro.core.scrubber"
    path: Path
    rel: str  # posix path relative to the lint root (finding paths)
    source: str
    tree: ast.Module

    @property
    def package(self) -> str:
        """The package containing this module (itself, for __init__)."""
        if self.path.name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]


class Project:
    """All modules under a source root, indexed by dotted name."""

    def __init__(self, modules: Sequence[Module]):
        self.modules: tuple[Module, ...] = tuple(
            sorted(modules, key=lambda m: m.name)
        )
        self.by_name: dict[str, Module] = {m.name: m for m in self.modules}
        #: What the passes check: a stray top-level script beside the
        #: package is parsed and counted, but no contract covers it.
        self.package_modules: tuple[Module, ...] = tuple(
            m for m in self.modules if m.name.split(".")[0] == PACKAGE
        )

    @classmethod
    def load(cls, src_root: Path, rel_to: Optional[Path] = None) -> "Project":
        """Parse every ``*.py`` under ``src_root``.

        ``src_root`` is the directory *containing* the top-level
        package(s) (the repo's ``src/``). ``rel_to`` controls the path
        prefix findings display (default: ``src_root``'s parent, so
        paths read ``src/repro/...`` from the repo root).
        """
        modules = []
        for path, dotted, rel in iter_source_files(src_root, rel_to):
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
            modules.append(
                Module(
                    name=dotted, path=path, rel=rel, source=source, tree=tree
                )
            )
        return cls(modules)


def attr_chain(node: ast.AST) -> Optional[list[str]]:
    """``a.b.c`` -> ``["a", "b", "c"]``; None if the base isn't a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _resolve_relative(module: Module, level: int, target: Optional[str]) -> str:
    """Absolute dotted path for a ``from ...x import y`` module part."""
    base_parts = module.package.split(".") if module.package else []
    if level > 1:
        base_parts = base_parts[: len(base_parts) - (level - 1)]
    if target:
        base_parts = base_parts + target.split(".")
    return ".".join(base_parts)


def import_table(module: Module) -> dict[str, str]:
    """Map each import-bound local name to the dotted path it denotes.

    Only module-level and function-level imports reachable by a plain
    walk are collected; the table is a *name* table, so ``import a.b``
    binds ``a`` -> ``a`` (attribute access continues the chain).
    """
    table: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    table[alias.asname] = alias.name
                else:
                    table[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _resolve_relative(module, node.level, node.module)
            else:
                base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                table[local] = f"{base}.{alias.name}" if base else alias.name
    return table


class ScopeStack:
    """A stack of local-binding sets; the module scope sits at index 0."""

    def __init__(self, module_bindings: set[str]):
        self._stack: list[set[str]] = [set(module_bindings)]

    def push(self, bindings: set[str]) -> None:
        self._stack.append(set(bindings))

    def pop(self) -> None:
        self._stack.pop()

    def is_local(self, name: str) -> bool:
        """Bound in any *function* scope (module scope doesn't count)."""
        return any(name in scope for scope in self._stack[1:])

    def is_bound(self, name: str) -> bool:
        return any(name in scope for scope in self._stack)


def collect_bindings(node: ast.AST, include_nested: bool = False) -> set[str]:
    """Names bound inside ``node``'s own scope.

    Covers parameters, assignment/for/with/except/match targets, local
    imports, and nested def/class statement names. ``global`` and
    ``nonlocal`` declarations *remove* the name (it is explicitly not
    local). Nested function/class bodies are skipped unless
    ``include_nested`` — they are their own scopes.
    """
    bound: set[str] = set()
    unbound: set[str] = set()

    def visit(n: ast.AST, top: bool) -> None:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not top:
                bound.add(n.name)
                if not include_nested:
                    return
            else:
                args = getattr(n, "args", None)
                if args is not None:
                    for a in (
                        list(args.posonlyargs)
                        + list(args.args)
                        + list(args.kwonlyargs)
                        + ([args.vararg] if args.vararg else [])
                        + ([args.kwarg] if args.kwarg else [])
                    ):
                        bound.add(a.arg)
        elif isinstance(n, ast.Name) and isinstance(n.ctx, (ast.Store, ast.Del)):
            bound.add(n.id)
        elif isinstance(n, (ast.Global, ast.Nonlocal)):
            unbound.update(n.names)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            bound.add(n.name)
        elif isinstance(n, ast.Import):
            for alias in n.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(n, ast.ImportFrom):
            for alias in n.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name)
        elif isinstance(n, (ast.Lambda,)) and not top:
            return
        for child in ast.iter_child_nodes(n):
            visit(child, False)

    visit(node, True)
    return bound - unbound


def resolve_dotted(
    node: ast.AST, scopes: ScopeStack, imports: dict[str, str]
) -> Optional[str]:
    """Dotted path of the object an expression refers to, or None.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    when ``np`` is the numpy import and not shadowed by a local binding.
    """
    parts = attr_chain(node)
    if parts is None:
        return None
    head = parts[0]
    if scopes.is_local(head):
        return None
    target = imports.get(head)
    if target is None:
        return None
    return ".".join([target] + parts[1:])


def runtime_imports(
    module: Module,
) -> Iterator[tuple[ast.stmt, str]]:
    """Yield ``(node, dotted_target)`` for every runtime import.

    Imports under ``if TYPE_CHECKING:`` are skipped — they exist for
    annotations only and create no runtime coupling. ``from pkg import
    name`` yields ``pkg.name`` per alias so submodule imports resolve.
    Function bodies are walked too: lazy imports are runtime imports.
    """
    seen: set[int] = set()
    results: list[tuple[ast.stmt, str]] = []

    def collect(nodes: Sequence[ast.stmt], type_checking: bool) -> None:
        for node in nodes:
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, ast.If):
                test = node.test
                flag = getattr(test, "id", getattr(test, "attr", None))
                if flag == "TYPE_CHECKING":
                    collect(node.body, True)
                    collect(node.orelse, type_checking)
                    continue
            if isinstance(node, ast.Import):
                if not type_checking:
                    for alias in node.names:
                        results.append((node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                if not type_checking:
                    if node.level:
                        base = _resolve_relative(module, node.level, node.module)
                    else:
                        base = node.module or ""
                    for alias in node.names:
                        if alias.name == "*":
                            results.append((node, base))
                        else:
                            results.append(
                                (node, f"{base}.{alias.name}" if base else alias.name)
                            )
            else:
                for block_name in (
                    "body", "orelse", "finalbody", "handlers",
                ):
                    block = getattr(node, block_name, None)
                    if isinstance(block, list):
                        stmts = []
                        for item in block:
                            if isinstance(item, ast.ExceptHandler):
                                stmts.extend(item.body)
                            elif isinstance(item, ast.stmt):
                                stmts.append(item)
                        collect(stmts, type_checking)

    collect(module.tree.body, False)
    yield from results
