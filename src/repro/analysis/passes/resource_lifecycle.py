"""Resource-lifecycle pass: RS601–RS603 over the CFG dataflow engine.

The engine owns OS-level resources — shared-memory segments, the model
plane, journal file handles, worker processes — whose leaks only show
up at runtime (as orphaned ``/dev/shm`` segments or resource-tracker
warnings after a crash). This pass turns "every acquired resource is
released on every path out of the acquiring function" into a lint-gated
contract, using :mod:`repro.analysis.cfg`:

* **RS601** — a resource may reach a *normal* exit (a ``return`` or
  falling off the end) while still live: no release call, no escape,
  no ownership transfer. Acquiring a constructor and discarding the
  result is the degenerate case.
* **RS602** — every normal path releases, but an *exception* path does
  not: a call between acquisition and release can raise, and no
  handler or ``finally`` cleans up. This is the classic
  partially-constructed-state leak.
* **RS603** — the ``__init__`` variant: the resource was transferred
  to ``self``, but a later statement of ``__init__`` can raise, so the
  half-built object (which the caller never receives) strands the
  resource. The fix is a handler that releases and re-raises.

What counts as settling a resource's fate:

* a **release call** — ``x.close()``, ``self._shm.unlink()``, or a
  blanket ``self.close()`` (which settles every self-owned site);
* an **escape** — the tracked name passed as a call argument
  (``weakref.finalize(self, _reap, seg)``, ``os.close(fd)``,
  ``_destroy_segment(segment)``) or returned: ownership moved to code
  this intraprocedural analysis cannot see, so it stops tracking;
* a **transfer to self** — ``self._shm = seg``: the object now owns
  it (subject to RS603);
* a **``with`` block** — ``with open(p) as f:`` is managed by the
  context manager and never tracked;
* an **alias** — ``y = x`` stops tracking (either name may release).

Exception edges see a statement's *pre* state with releases applied:
an acquisition that raised never acquired, but a ``close()`` that
raised still counts as released (else every ``finally: x.close()``
would flag its own failure edge). Branch refinements kill facts on
``x is None`` edges, so the conditional-acquire +
``if x is not None: x.close()`` idiom verifies cleanly.

Only *directly assigned* acquisitions are tracked; a constructor call
buried in a larger expression (``json.load(open(p))``) escapes into
that expression unseen. That trade keeps the pass quiet enough to gate
CI; the corpus pins the supported shapes. The analysis is
intraprocedural, so a resource that reaches a function through a
helper's return value is only seen when the helper itself is listed in
:data:`RESOURCE_CONSTRUCTORS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.analysis import cfg as cfglib
from repro.analysis.cfg import CFG, Block, DataflowAnalysis
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.project import (
    Module,
    Project,
    ScopeStack,
    attr_chain,
    collect_bindings,
    import_table,
)

__all__ = ["ResourceLifecyclePass", "RESOURCE_CONSTRUCTORS"]

#: The OS-level resources this repository acquires: resolved dotted
#: call path -> human label (shown in RS6xx messages). Acquiring one
#: binds a resource that must reach a release method, a ``with`` block,
#: an ownership transfer, or an escape on every path out of the
#: function — including the exception edges. The builtin ``open`` is
#: matched by bare name when unshadowed. The objects that own worker
#: processes are listed under their defining module and their package
#: re-export, since call sites import them either way.
RESOURCE_CONSTRUCTORS: Mapping[str, str] = {
    "open": "file handle",
    "os.open": "file descriptor",
    "os.fdopen": "file handle",
    "multiprocessing.shared_memory.SharedMemory": "shared-memory segment",
    "repro.core.parallel.shm.attach_segment": "shared-memory segment",
    "repro.core.parallel.shm.ShmRing": "shm ring",
    "repro.core.parallel.shm.ShmRing.attach": "shm ring",
    "repro.core.recovery.journal.VerdictJournal": "verdict journal",
    "repro.core.recovery.journal.VerdictJournal.open": "verdict journal",
    "repro.core.recovery.snapshot.CheckpointStore": "checkpoint store",
    "repro.core.parallel.backends.make_backend": "shard backend",
    "repro.core.parallel.make_backend": "shard backend",
    "repro.core.parallel.backends.WorkerPool": "worker pool",
    "repro.core.resilience.supervisor.SupervisedProcessBackend": "worker pool",
    "repro.core.resilience.SupervisedProcessBackend": "worker pool",
    "repro.core.parallel.engine.ShardedStreamingScrubber": "sharded engine",
    "repro.core.parallel.ShardedStreamingScrubber": "sharded engine",
    "repro.core.recovery.session.RecoverySession": "recovery session",
    "repro.core.recovery.RecoverySession": "recovery session",
}

#: Method names that count as releasing the receiver.
RELEASE_METHODS = frozenset(
    {
        "close", "destroy", "unlink", "release", "terminate", "kill",
        "join", "shutdown", "stop", "finalize", "detach",
    }
)

#: Trailing attribute names that mark a process spawn even when the
#: receiver cannot be resolved (``self._ctx.Process(...)``).
SPAWN_ATTRS = frozenset({"Process", "Popen"})


@dataclass(frozen=True)
class _Site:
    """One acquisition site."""

    line: int
    col: int
    label: str  # human label from the constructor table
    var: str  # name it was bound to at acquisition ("" if discarded)


@dataclass
class _Actions:
    """Static effects of one CFG block on the resource facts."""

    gens: list[tuple[int, str, str]] = field(default_factory=list)
    release_keys: set[str] = field(default_factory=set)
    escape_keys: set[str] = field(default_factory=set)
    rebind_keys: set[str] = field(default_factory=set)
    transfers: list[tuple[str, str]] = field(default_factory=list)
    self_release: bool = False


def _var_key(node: ast.AST) -> Optional[str]:
    parts = attr_chain(node)
    return ".".join(parts) if parts else None


class _ResourceFlow(DataflowAnalysis):
    """Forward may-analysis: the set of live (site, varkey, owner)."""

    direction = "forward"

    def __init__(self, actions: dict[int, _Actions]):
        self.actions = actions

    def transfer(self, block: Block, fact):
        return self._apply(block, fact, exc=False)

    def transfer_exc(self, block: Block, fact):
        return self._apply(block, fact, exc=True)

    def refine(self, fact, edge):
        if edge.refine is not None and edge.refine[0] == "none":
            key = edge.refine[1]
            return frozenset(f for f in fact if f[1] != key)
        return fact

    def _apply(self, block: Block, fact, exc: bool):
        actions = self.actions.get(block.index)
        if actions is None:
            return fact
        out = set(fact)
        if actions.self_release:
            out = {f for f in out if f[2] != "self"}
        if actions.release_keys:
            out = {f for f in out if f[1] not in actions.release_keys}
        if actions.escape_keys:
            out = {f for f in out if f[1] not in actions.escape_keys}
        if not exc:
            # Rebinds, transfers and acquisitions only take effect when
            # the statement completed.
            if actions.rebind_keys:
                out = {f for f in out if f[1] not in actions.rebind_keys}
            for src, dst in actions.transfers:
                out = {
                    (f[0], dst, "self") if f[1] == src else f for f in out
                }
            out.update(actions.gens)
        return frozenset(out)


class _FunctionCheck:
    """RS601–RS603 for one function of one module."""

    def __init__(
        self,
        module: Module,
        resolve_table: dict[str, str],
        qualname: str,
        func: ast.AST,
    ):
        self.module = module
        self.table = resolve_table
        self.qualname = qualname
        self.func = func
        self.scopes = ScopeStack(collect_bindings(module.tree))
        self.scopes.push(collect_bindings(func))
        self.sites: list[_Site] = []
        self.findings: list[Finding] = []

    # -- resolution -----------------------------------------------------
    def _resolve(self, node: ast.AST) -> Optional[str]:
        parts = attr_chain(node)
        if parts is None:
            return None
        head = parts[0]
        if self.scopes.is_local(head):
            return None
        target = self.table.get(head)
        if target is None:
            return None
        return ".".join([target] + parts[1:])

    def _constructor_label(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            if not self.scopes.is_bound("open"):
                return RESOURCE_CONSTRUCTORS["open"]
        dotted = self._resolve(func)
        if dotted is not None:
            label = RESOURCE_CONSTRUCTORS.get(dotted)
            if label is not None:
                return label
        parts = attr_chain(func)
        if parts and parts[-1] in SPAWN_ATTRS:
            return "worker process"
        return None

    def _value_constructor(self, value: ast.AST) -> Optional[tuple[ast.Call, str]]:
        """The constructor call an assigned value acquires, if any."""
        candidates = [value]
        if isinstance(value, ast.IfExp):
            candidates = [value.body, value.orelse]
        for cand in candidates:
            if isinstance(cand, ast.Call):
                label = self._constructor_label(cand)
                if label is not None:
                    return cand, label
        return None

    # -- per-block action extraction ------------------------------------
    def _actions_for(self, block: Block) -> Optional[_Actions]:
        stmt = block.stmt
        if stmt is None:
            return None
        actions = _Actions()
        if block.role == "stmt":
            self._stmt_actions(stmt, actions)
            exprs = [stmt]
        elif block.role == "test":
            exprs = [stmt.test]
        elif block.role == "loop":
            exprs = [stmt.iter]
            for name in collect_bindings(stmt.target):
                actions.rebind_keys.add(name)
        elif block.role == "with":
            self._with_actions(stmt, actions)
            exprs = []
        elif block.role == "except":
            if getattr(stmt, "name", None):
                actions.rebind_keys.add(stmt.name)
            exprs = []
        else:  # join / with-exit
            return None
        for expr in exprs:
            self._call_effects(expr, actions)
        if (
            actions.gens
            or actions.release_keys
            or actions.escape_keys
            or actions.rebind_keys
            or actions.transfers
            or actions.self_release
        ):
            return actions
        return None

    def _call_effects(self, node: ast.AST, actions: _Actions) -> None:
        """Releases and escapes from every call executed by ``node``."""
        for n in cfglib._walk_executed(node):
            if not isinstance(n, ast.Call):
                continue
            func = n.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in RELEASE_METHODS
            ):
                base = _var_key(func.value)
                if base == "self":
                    actions.self_release = True
                elif base is not None:
                    actions.release_keys.add(base)
            for arg in list(n.args) + [kw.value for kw in n.keywords]:
                if isinstance(arg, ast.Starred):
                    arg = arg.value
                if isinstance(arg, ast.Name):
                    actions.escape_keys.add(arg.id)
                elif isinstance(arg, (ast.Tuple, ast.List)):
                    for elt in arg.elts:
                        if isinstance(elt, ast.Name):
                            actions.escape_keys.add(elt.id)

    def _gen(
        self, actions: _Actions, call: ast.Call, label: str, key: str, owner: str
    ) -> None:
        site = len(self.sites)
        self.sites.append(
            _Site(
                line=call.lineno,
                col=call.col_offset + 1,
                label=label,
                var=key,
            )
        )
        actions.gens.append((site, key, owner))

    def _stmt_actions(self, stmt: ast.stmt, actions: _Actions) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is None or len(targets) != 1:
                return
            target = targets[0]
            acquired = self._value_constructor(value)
            if isinstance(target, ast.Name):
                actions.rebind_keys.add(target.id)
                if acquired is not None:
                    self._gen(actions, acquired[0], acquired[1], target.id, "local")
                elif isinstance(value, ast.Name):
                    # Alias: either name may release it later; stop
                    # tracking rather than guess.
                    actions.escape_keys.add(value.id)
            else:
                self_key = self._self_target_key(target)
                if self_key is None:
                    return
                actions.rebind_keys.add(self_key)
                if acquired is not None:
                    self._gen(actions, acquired[0], acquired[1], self_key, "self")
                elif isinstance(value, ast.Name):
                    actions.transfers.append((value.id, self_key))
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            label = self._constructor_label(stmt.value)
            if label is not None:
                self._gen(
                    actions,
                    stmt.value,
                    label,
                    f"<discarded:{stmt.value.lineno}>",
                    "local",
                )
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            values = (
                list(stmt.value.elts)
                if isinstance(stmt.value, (ast.Tuple, ast.List))
                else [stmt.value]
            )
            for v in values:
                if isinstance(v, ast.Name):
                    actions.escape_keys.add(v.id)

    def _self_target_key(self, target: ast.AST) -> Optional[str]:
        """``self._shm`` -> "self._shm"; ``self._rings[i]`` -> "self._rings[]"."""
        if isinstance(target, ast.Attribute):
            key = _var_key(target)
            if key is not None and key.split(".")[0] == "self":
                return key
        elif isinstance(target, ast.Subscript):
            key = _var_key(target.value)
            if key is not None and key.split(".")[0] == "self":
                return key + "[]"
        return None

    def _with_actions(self, stmt: ast.AST, actions: _Actions) -> None:
        for item in stmt.items:
            # A constructor entered via `with` is managed by its
            # context manager: never tracked. An already-live name used
            # as a context manager (contextlib.closing(x)) escapes.
            for n in cfglib._walk_executed(item.context_expr):
                if isinstance(n, ast.Name):
                    actions.escape_keys.add(n.id)
            if item.optional_vars is not None:
                for name in collect_bindings(item.optional_vars):
                    actions.rebind_keys.add(name)

    # -- driver ---------------------------------------------------------
    def analyze(self) -> list[Finding]:
        graph = CFG.build(self.func)
        actions: dict[int, _Actions] = {}
        for block in graph.blocks:
            a = self._actions_for(block)
            if a is not None:
                actions[block.index] = a
        if not self.sites:
            return self.findings
        facts = cfglib.solve(graph, _ResourceFlow(actions))
        exit_fact = facts[CFG.EXIT]
        raise_fact = facts[CFG.RAISE]
        is_init = getattr(self.func, "name", "") == "__init__"
        for index, site in enumerate(self.sites):
            at_exit = any(
                f[0] == index and f[2] == "local" for f in exit_fact
            )
            at_raise_local = any(
                f[0] == index and f[2] == "local" for f in raise_fact
            )
            at_raise_self = any(
                f[0] == index and f[2] == "self" for f in raise_fact
            )
            if at_exit:
                self._leak(
                    "RS601",
                    site,
                    f"{site.label} ({site.var}) may leak on a normal path "
                    f"out of {self.qualname} — release it, transfer "
                    "ownership, or use a with-block",
                )
            elif at_raise_local:
                self._leak(
                    "RS602",
                    site,
                    f"{site.label} ({site.var}) leaks when a later call "
                    f"raises in {self.qualname} — add a try/finally or an "
                    "exception handler that releases it",
                )
            if at_raise_self and is_init:
                self._leak(
                    "RS603",
                    site,
                    f"{site.label} on {site.var} is stranded when "
                    f"__init__ raises after acquiring it — release in an "
                    "exception handler and re-raise",
                )
        return self.findings

    def _leak(self, rule: str, site: _Site, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.module.rel,
                line=site.line,
                col=site.col,
                message=message,
                symbol=self.qualname,
                key=f"resource:{site.label}:{site.var}",
            )
        )


class ResourceLifecyclePass:
    """RS601/RS602/RS603 over every function of the package."""

    name = "resource_lifecycle"
    rule_ids = ("RS601", "RS602", "RS603")

    def run(self, project: Project, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for module in project.package_modules:
            table = dict(import_table(module))
            for node in module.tree.body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    # Module-local constructors resolve like imports do:
                    # `attach_segment(...)` inside shm.py is
                    # `repro.core.parallel.shm.attach_segment`.
                    table.setdefault(node.name, f"{module.name}.{node.name}")
            for qualname, func, _cls in cfglib.iter_functions(module.tree):
                check = _FunctionCheck(module, table, qualname, func)
                findings.extend(check.analyze())
        return findings
