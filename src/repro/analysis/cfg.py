"""Intraprocedural control-flow graphs and a worklist dataflow solver.

This module graduates the analyzer from AST pattern-matching to
path-sensitive reasoning: the resource-lifecycle pass (RS601–RS603)
needs to prove "every acquired segment is released on *every* path out
of the function, including the exception edges", which is a dataflow
property, not a syntactic one.

Design decisions, in the order they bit:

* **One statement per block.** Python functions are small; basic-block
  packing would buy nothing and cost precision bookkeeping. Compound
  statements contribute a *header* block (the ``if``/``while`` test,
  the ``for`` iterable, the ``with`` context managers) plus the blocks
  of their bodies.
* **Three synthetic blocks** frame every function: ``entry``, ``exit``
  (all normal completions: falling off the end and every ``return``)
  and ``raise`` (exceptions escaping the function). A leak analysis
  reads its verdicts off the facts that reach ``exit`` and ``raise``.
* **Exception edges are explicit.** A statement *may raise* when it
  contains a call (not counting code inside nested ``def``/``lambda``
  /``class`` bodies, which does not execute here) or is a ``raise`` /
  ``assert``. Each may-raise block gets an ``exc`` edge to the innermost
  enclosing handler — or to the ``raise`` block. Plain subscript/
  attribute stores are deliberately *not* may-raise: treating every
  ``ctrl[i] = 0`` as a potential ``IndexError`` would drown the useful
  exception paths in noise.
* **``finally`` bodies are duplicated per continuation.** A single
  shared finally block would merge the normal, return and exception
  continuations and manufacture paths that do not exist (e.g. "raised,
  ran finally, then fell through normally" — exactly the false positive
  that would flag every ``try/finally: x.close()``). Instead the
  builder lazily materialises up to one copy of the finalbody per
  continuation kind (normal / return / exception / break / continue),
  each wired to its own target. Copies are built on demand, so a
  ``try/finally`` with no ``return`` inside pays for two copies, not
  five.
* **Handlers without a catch-all still propagate.** An ``except
  ValueError:`` handler receives the ``exc`` edge *and* the exception
  may continue outward; only a bare ``except:`` / ``except
  (Base)Exception`` stops outward propagation. (Treating ``Exception``
  as catch-all is technically unsound for ``KeyboardInterrupt`` but
  matches how cleanup handlers are actually written.)
* **Branch edges carry None-refinements.** ``if ring is not None:``
  tests produce edge annotations (``("none", "ring")`` on the false
  edge, ``("not-none", "ring")`` on the true edge; bare-name truthiness
  works too) that an analysis can use to kill facts that cannot hold on
  that edge — the standard guard idiom around conditionally-acquired
  resources.

The solver (:func:`solve`) is a classic monotone worklist over a
:class:`DataflowAnalysis`: forward or backward, may (union) or must
(intersection, via the :data:`TOP` sentinel), with an analysis-supplied
``transfer_exc`` so exception edges can see a statement's *pre* state
(an acquisition that raised never acquired) while release calls still
count on their own failure edges.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = [
    "Block",
    "CFG",
    "DataflowAnalysis",
    "Edge",
    "TOP",
    "iter_functions",
    "may_raise",
    "solve",
]

#: Lattice top for must-analyses: "every fact holds" before any path
#: has been seen. ``DataflowAnalysis.join`` treats it as the identity.
TOP = object()

#: Exception-handler types that stop outward propagation.
_CATCH_ALL_NAMES = frozenset({"Exception", "BaseException"})


@dataclass(frozen=True)
class Block:
    """One CFG node: a statement, a header, or a synthetic frame node.

    ``role`` is one of ``entry`` / ``exit`` / ``raise`` (synthetic),
    ``stmt`` (a simple statement), ``test`` (an ``if``/``while``
    header), ``loop`` (a ``for`` header: iterable + target binding),
    ``with`` / ``with-exit`` (context-manager enter and normal leave),
    ``except`` (a handler entry: the exception-name binding) or
    ``join`` (an empty merge point).
    """

    index: int
    role: str
    stmt: Optional[ast.AST]

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass(frozen=True)
class Edge:
    """A directed edge; ``kind`` is normal/true/false/exc.

    ``refine`` is an optional ``("none" | "not-none", varkey)``
    annotation derived from the branch condition; ``varkey`` is the
    dotted form of a name or ``self``-attribute chain.
    """

    src: int
    dst: int
    kind: str = "normal"
    refine: Optional[tuple[str, str]] = None


class CFG:
    """The control-flow graph of one function body."""

    ENTRY = 0
    EXIT = 1
    RAISE = 2

    def __init__(self) -> None:
        self.blocks: list[Block] = []
        self.edges: list[Edge] = []
        self.succ: dict[int, list[Edge]] = {}
        self.pred: dict[int, list[Edge]] = {}

    @classmethod
    def build(cls, func: ast.AST) -> "CFG":
        """Build the CFG of a ``FunctionDef``/``AsyncFunctionDef``."""
        return _Builder().build(func)

    def add_block(self, role: str, stmt: Optional[ast.AST]) -> int:
        index = len(self.blocks)
        self.blocks.append(Block(index=index, role=role, stmt=stmt))
        self.succ[index] = []
        self.pred[index] = []
        return index

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: str = "normal",
        refine: Optional[tuple[str, str]] = None,
    ) -> None:
        edge = Edge(src=src, dst=dst, kind=kind, refine=refine)
        self.edges.append(edge)
        self.succ[src].append(edge)
        self.pred[dst].append(edge)


# ---------------------------------------------------------------------------
# may-raise
# ---------------------------------------------------------------------------

def _walk_executed(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` skipping code that does not execute *here*.

    Nested function/class bodies run later (or never); only their
    decorators, defaults, and base-class expressions execute at the
    statement itself.
    """
    stack: list[ast.AST] = [node]
    first = True
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
            first and n is node
        ):
            stack.extend(n.decorator_list)
            stack.extend(d for d in n.args.defaults)
            stack.extend(d for d in n.args.kw_defaults if d is not None)
        elif isinstance(n, ast.Lambda):
            stack.extend(n.args.defaults)
            stack.extend(d for d in n.args.kw_defaults if d is not None)
        elif isinstance(n, ast.ClassDef):
            stack.extend(n.decorator_list)
            stack.extend(n.bases)
            stack.extend(k.value for k in n.keywords)
        else:
            stack.extend(ast.iter_child_nodes(n))
        first = False


def _contains_call(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    return any(
        isinstance(n, (ast.Call, ast.Await, ast.Yield, ast.YieldFrom))
        for n in _walk_executed(node)
    )


def may_raise(stmt: ast.AST) -> bool:
    """Can executing this *simple* statement raise?

    Calls, ``raise`` and ``assert`` can; plain stores (including
    subscript/attribute stores) are deliberately considered safe — see
    the module docstring.
    """
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        return True
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        # Only decorators/defaults/bases execute at the def site.
        parts: list[ast.AST] = list(stmt.decorator_list)
        if isinstance(stmt, ast.ClassDef):
            parts += list(stmt.bases) + [k.value for k in stmt.keywords]
        else:
            parts += [d for d in stmt.args.defaults]
            parts += [d for d in stmt.args.kw_defaults if d is not None]
        return any(_contains_call(p) for p in parts)
    return _contains_call(stmt)


# ---------------------------------------------------------------------------
# branch refinements
# ---------------------------------------------------------------------------

def _var_key(node: ast.AST) -> Optional[str]:
    """Dotted key of a Name or attribute chain (``self._shm``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)
    return None


def _refinements(
    test: ast.AST,
) -> tuple[Optional[tuple[str, str]], Optional[tuple[str, str]]]:
    """(true-edge, false-edge) refinements of a branch condition."""
    key = _var_key(test)
    if key is not None:
        return (("not-none", key), ("none", key))
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        true_r, false_r = _refinements(test.operand)
        return (false_r, true_r)
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        key = _var_key(test.left)
        if key is not None:
            if isinstance(test.ops[0], ast.Is):
                return (("none", key), ("not-none", key))
            if isinstance(test.ops[0], ast.IsNot):
                return (("not-none", key), ("none", key))
    return (None, None)


def _always_true(test: ast.AST) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for t in types:
        name = getattr(t, "id", getattr(t, "attr", None))
        if name in _CATCH_ALL_NAMES:
            return True
    return False


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------

#: A dangling edge waiting for its destination: (src, kind, refine).
_Pending = tuple[int, str, Optional[tuple[str, str]]]
#: A continuation: lazily yields the blocks control transfers to.
_Cont = Callable[[], list[int]]


@dataclass
class _Frame:
    """The continuations in scope while building a statement list."""

    exc: _Cont
    ret: _Cont
    brk: Optional[_Cont] = None
    cont: Optional[_Cont] = None


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()

    def build(self, func: ast.AST) -> CFG:
        cfg = self.cfg
        assert cfg.add_block("entry", None) == CFG.ENTRY
        assert cfg.add_block("exit", None) == CFG.EXIT
        assert cfg.add_block("raise", None) == CFG.RAISE
        frame = _Frame(exc=lambda: [CFG.RAISE], ret=lambda: [CFG.EXIT])
        out = self._stmts(
            list(func.body), [(CFG.ENTRY, "normal", None)], frame
        )
        self._seal(out, [CFG.EXIT])
        return cfg

    # -- plumbing -------------------------------------------------------
    def _seal(self, pending: list[_Pending], targets: list[int]) -> None:
        for src, kind, refine in pending:
            for dst in targets:
                self.cfg.add_edge(src, dst, kind, refine)

    def _exc_edges(self, block: int, frame: _Frame) -> None:
        for dst in frame.exc():
            self.cfg.add_edge(block, dst, "exc")

    def _stmts(
        self, body: list[ast.stmt], preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        for stmt in body:
            preds = self._stmt(stmt, preds, frame)
        return preds

    # -- statements -----------------------------------------------------
    def _stmt(
        self, stmt: ast.stmt, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds, frame)
        if isinstance(stmt, ast.While):
            return self._while(stmt, preds, frame)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, preds, frame)
        if isinstance(stmt, ast.Try) or (
            hasattr(ast, "TryStar") and isinstance(stmt, ast.TryStar)
        ):
            return self._try(stmt, preds, frame)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, frame)
        if isinstance(stmt, ast.Return):
            block = self.cfg.add_block("stmt", stmt)
            self._seal(preds, [block])
            if _contains_call(stmt.value):
                self._exc_edges(block, frame)
            for dst in frame.ret():
                self.cfg.add_edge(block, dst, "normal")
            return []
        if isinstance(stmt, ast.Raise):
            block = self.cfg.add_block("stmt", stmt)
            self._seal(preds, [block])
            self._exc_edges(block, frame)
            return []
        if isinstance(stmt, ast.Break):
            block = self.cfg.add_block("stmt", stmt)
            self._seal(preds, [block])
            if frame.brk is not None:
                for dst in frame.brk():
                    self.cfg.add_edge(block, dst, "normal")
            return []
        if isinstance(stmt, ast.Continue):
            block = self.cfg.add_block("stmt", stmt)
            self._seal(preds, [block])
            if frame.cont is not None:
                for dst in frame.cont():
                    self.cfg.add_edge(block, dst, "normal")
            return []
        # Every other statement is a simple block.
        block = self.cfg.add_block("stmt", stmt)
        self._seal(preds, [block])
        if may_raise(stmt):
            self._exc_edges(block, frame)
        return [(block, "normal", None)]

    def _if(
        self, stmt: ast.If, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        test = self.cfg.add_block("test", stmt)
        self._seal(preds, [test])
        if _contains_call(stmt.test):
            self._exc_edges(test, frame)
        true_r, false_r = _refinements(stmt.test)
        out = self._stmts(stmt.body, [(test, "true", true_r)], frame)
        if stmt.orelse:
            out += self._stmts(stmt.orelse, [(test, "false", false_r)], frame)
        else:
            out += [(test, "false", false_r)]
        return out

    def _while(
        self, stmt: ast.While, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        test = self.cfg.add_block("test", stmt)
        after = self.cfg.add_block("join", stmt)
        self._seal(preds, [test])
        if _contains_call(stmt.test):
            self._exc_edges(test, frame)
        true_r, false_r = _refinements(stmt.test)
        loop_frame = _Frame(
            exc=frame.exc,
            ret=frame.ret,
            brk=lambda: [after],
            cont=lambda: [test],
        )
        body_out = self._stmts(stmt.body, [(test, "true", true_r)], loop_frame)
        self._seal(body_out, [test])
        if not _always_true(stmt.test):
            if stmt.orelse:
                else_out = self._stmts(
                    stmt.orelse, [(test, "false", false_r)], frame
                )
                self._seal(else_out, [after])
            else:
                self.cfg.add_edge(test, after, "false", false_r)
        return [(after, "normal", None)]

    def _for(
        self, stmt: ast.For, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        head = self.cfg.add_block("loop", stmt)
        after = self.cfg.add_block("join", stmt)
        self._seal(preds, [head])
        if _contains_call(stmt.iter):
            self._exc_edges(head, frame)
        loop_frame = _Frame(
            exc=frame.exc,
            ret=frame.ret,
            brk=lambda: [after],
            cont=lambda: [head],
        )
        body_out = self._stmts(stmt.body, [(head, "true", None)], loop_frame)
        self._seal(body_out, [head])
        if stmt.orelse:
            else_out = self._stmts(stmt.orelse, [(head, "false", None)], frame)
            self._seal(else_out, [after])
        else:
            self.cfg.add_edge(head, after, "false")
        return [(after, "normal", None)]

    def _with(
        self, stmt: ast.With, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        enter = self.cfg.add_block("with", stmt)
        self._seal(preds, [enter])
        if any(_contains_call(item.context_expr) for item in stmt.items):
            self._exc_edges(enter, frame)
        body_out = self._stmts(stmt.body, [(enter, "normal", None)], frame)
        leave = self.cfg.add_block("with-exit", stmt)
        self._seal(body_out, [leave])
        return [(leave, "normal", None)]

    def _try(
        self, stmt: ast.Try, preds: list[_Pending], frame: _Frame
    ) -> list[_Pending]:
        after = self.cfg.add_block("join", stmt)
        if stmt.finalbody:
            copies: dict[str, int] = {}

            def through_finally(key: str, cont: _Cont) -> _Cont:
                def thunk() -> list[int]:
                    if key not in copies:
                        fb = self.cfg.add_block("join", stmt)
                        copies[key] = fb
                        f_out = self._stmts(
                            list(stmt.finalbody), [(fb, "normal", None)], frame
                        )
                        self._seal(f_out, cont())
                    return [copies[key]]

                return thunk

            inner = _Frame(
                exc=through_finally("exc", frame.exc),
                ret=through_finally("ret", frame.ret),
                brk=(
                    through_finally("brk", frame.brk)
                    if frame.brk is not None
                    else None
                ),
                cont=(
                    through_finally("cont", frame.cont)
                    if frame.cont is not None
                    else None
                ),
            )
            normal_cont: _Cont = through_finally("normal", lambda: [after])
        else:
            inner = frame
            normal_cont = lambda: [after]  # noqa: E731

        handler_blocks: list[int] = []
        if stmt.handlers:
            handler_blocks = [
                self.cfg.add_block("except", h) for h in stmt.handlers
            ]
            catch_all = any(_is_catch_all(h) for h in stmt.handlers)

            def body_exc() -> list[int]:
                targets = list(handler_blocks)
                if not catch_all:
                    targets += inner.exc()
                return targets

            body_frame = _Frame(
                exc=body_exc, ret=inner.ret, brk=inner.brk, cont=inner.cont
            )
        else:
            body_frame = inner

        ends = self._stmts(list(stmt.body), preds, body_frame)
        if stmt.orelse:
            # The else block runs only after an exception-free body and
            # is *not* protected by the handlers.
            ends = self._stmts(stmt.orelse, ends, inner)
        for handler, hb in zip(stmt.handlers, handler_blocks):
            ends += self._stmts(
                list(handler.body), [(hb, "normal", None)], inner
            )
        self._seal(ends, normal_cont())
        return [(after, "normal", None)]


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

class DataflowAnalysis:
    """Base class for worklist analyses over a :class:`CFG`.

    Subclasses set ``direction`` ("forward"/"backward") and override
    ``transfer`` (and, for forward analyses that distinguish the
    pre-state visible on exception edges, ``transfer_exc``). ``join``
    defaults to set-union (a *may* analysis); a *must* analysis
    intersects and uses :data:`TOP` as the initial value.
    """

    direction = "forward"

    def boundary(self, cfg: CFG) -> object:
        """Fact at the boundary block (entry forward, exits backward)."""
        return frozenset()

    def initial(self, cfg: CFG) -> object:
        """Fact every other block starts from (TOP for must-analyses)."""
        return frozenset()

    def join(self, left: object, right: object) -> object:
        if left is TOP:
            return right
        if right is TOP:
            return left
        return left | right  # type: ignore[operator]

    def transfer(self, block: Block, fact: object) -> object:
        return fact

    def transfer_exc(self, block: Block, fact: object) -> object:
        """Fact carried by this block's exception edges (forward only).

        Defaults to ``transfer``; override to expose the pre-state
        (e.g. an acquisition that raised never acquired).
        """
        return self.transfer(block, fact)

    def refine(self, fact: object, edge: Edge) -> object:
        """Adjust a fact along one edge (branch refinements)."""
        return fact


def solve(cfg: CFG, analysis: DataflowAnalysis) -> dict[int, object]:
    """Run ``analysis`` to a fixed point; returns the per-block fact.

    Forward: the returned fact is the block's *input* (join over
    incoming edges); read leak verdicts off ``EXIT``/``RAISE``.
    Backward: the fact is the block's *output* (join over the facts
    flowing back from its successors).
    """
    forward = analysis.direction == "forward"
    facts: dict[int, object] = {
        b.index: analysis.initial(cfg) for b in cfg.blocks
    }
    if forward:
        facts[CFG.ENTRY] = analysis.boundary(cfg)
    else:
        facts[CFG.EXIT] = analysis.boundary(cfg)
        facts[CFG.RAISE] = analysis.boundary(cfg)
    work = deque(b.index for b in cfg.blocks)
    while work:
        index = work.popleft()
        block = cfg.blocks[index]
        base = facts[index]
        if base is TOP:
            # Nothing has reached this block yet (the boundary blocks
            # are seeded with boundary(), never TOP); propagating TOP
            # would poison must-analyses downstream, and transfer
            # functions need not understand the sentinel.
            continue
        out_normal = analysis.transfer(block, base)
        out_exc = (
            analysis.transfer_exc(block, base) if forward else out_normal
        )
        edges = cfg.succ[index] if forward else cfg.pred[index]
        for edge in edges:
            fact = out_exc if (forward and edge.kind == "exc") else out_normal
            fact = analysis.refine(fact, edge)
            dst = edge.dst if forward else edge.src
            merged = analysis.join(facts[dst], fact)
            if merged != facts[dst]:
                facts[dst] = merged
                work.append(dst)
    return facts


# ---------------------------------------------------------------------------
# function inventory (shared by the CFG-driven passes)
# ---------------------------------------------------------------------------

def iter_functions(
    tree: ast.AST,
) -> list[tuple[str, ast.AST, Optional[ast.ClassDef]]]:
    """Every function in a module: (qualname, node, enclosing class).

    Nested functions are yielded too (with the enclosing class of their
    *definition site* dropped — they are not methods).
    """
    out: list[tuple[str, ast.AST, Optional[ast.ClassDef]]] = []

    def walk(
        node: ast.AST, qual: str, cls: Optional[ast.ClassDef]
    ) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{qual}.{child.name}" if qual else child.name
                out.append((name, child, cls))
                walk(child, name, None)
            elif isinstance(child, ast.ClassDef):
                name = f"{qual}.{child.name}" if qual else child.name
                walk(child, name, child)
            else:
                walk(child, qual, cls)

    walk(tree, "", None)
    return out
