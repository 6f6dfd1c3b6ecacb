"""Intraprocedural control-flow graphs with post-dominators.

MMU001 needs a fact the AST alone cannot give: *which statements lie
on every path* from a point to function exit.  This module builds a
statement-granularity CFG for one function body — one block per
statement — and computes post-dominators over it with the classic
iterative set algorithm (the graphs are function-sized, so the simple
fixpoint beats the engineering cost of Lengauer–Tarjan).

Modelling choices, deliberately conservative and documented here so
rule semantics are auditable:

* Every ``if``/``while``/``for`` test block gets an edge into the body
  and an edge to the join/else — including ``while True`` (constant
  tests are not folded; an extra path only makes post-dominance
  *harder* to claim, never easier).
* ``try`` bodies get one edge from the ``try`` statement's block to
  each handler entry — handlers are reachable, but mid-body implicit
  exceptions are not modelled (only explicit ``raise`` statements
  route to handlers).  Rules that rely on post-dominance therefore
  reason about *normal* control flow plus explicit raises.
* ``finally`` bodies are built once and act as a funnel: every control
  transfer that crosses them (fallthrough, ``return``, ``raise``,
  ``break``, ``continue``) enters the funnel, and the funnel's exits
  fan out to every requested continuation.  This merges paths (a
  ``return`` inside ``try`` appears able to continue past the
  ``finally``), which again only weakens post-dominance claims.
* Nested ``def``/``class`` statements are opaque single blocks; their
  bodies get their own CFGs.

Public surface: :func:`build_cfg`, :class:`CFG` (``enclosing_block``,
``successors``, ``postdominates``).
"""

import ast
from typing import Dict, FrozenSet, List, Optional, Sequence


def _header_roots(stmt: ast.AST) -> List[ast.AST]:
    """Subtrees a block's statement evaluates *itself*.

    Simple statements own their whole tree; compound statements own
    only their header (test / iter / with-items / subject) — their
    bodies are other blocks.  Nested ``def``/``class`` are opaque, so
    they own only their decorators and defaults, not the body.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        roots: List[ast.AST] = []
        for item in stmt.items:
            roots.append(item.context_expr)
            if item.optional_vars is not None:
                roots.append(item.optional_vars)
        return roots
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        roots = list(stmt.decorator_list)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.extend(stmt.args.defaults)
            roots.extend(d for d in stmt.args.kw_defaults if d is not None)
        else:
            roots.extend(stmt.bases)
            roots.extend(stmt.keywords)
        return roots
    return [stmt]


class Block:
    """One CFG node: a single statement, or a synthetic marker."""

    __slots__ = ("index", "stmt", "kind", "succs")

    def __init__(self, index: int, stmt: Optional[ast.stmt] = None,
                 kind: str = "stmt"):
        self.index = index
        self.stmt = stmt
        self.kind = kind  # "entry" | "exit" | "stmt" | "handler" | "finally"
        self.succs: List[int] = []

    def __repr__(self) -> str:
        what = self.kind if self.stmt is None else type(self.stmt).__name__
        return f"Block({self.index}, {what})"


class CFG:
    """The finished graph for one function body."""

    def __init__(self, func: ast.AST, blocks: List[Block], entry: int,
                 exit_index: int):
        self.func = func
        self.blocks = blocks
        self.entry = entry
        self.exit = exit_index
        self._node_block: Optional[Dict[int, int]] = None
        self._pdom: Optional[Dict[int, FrozenSet[int]]] = None

    def successors(self, index: int) -> Sequence[int]:
        return self.blocks[index].succs

    def enclosing_block(self, node: ast.AST) -> Optional[int]:
        """Block whose statement *executes* ``node`` (e.g. the call
        inside an Assign, or inside an ``if`` test).

        Compound statements only claim their header expressions: a call
        in an ``if`` *body* belongs to the body statement's block, not
        the header's — otherwise the header block (built first) would
        swallow its whole subtree and post-dominance queries would
        collapse distinct program points into one block.
        """
        if self._node_block is None:
            index: Dict[int, int] = {}
            for b in self.blocks:
                if b.stmt is None:
                    continue
                index.setdefault(id(b.stmt), b.index)
                for root in _header_roots(b.stmt):
                    for sub in ast.walk(root):
                        index.setdefault(id(sub), b.index)
            self._node_block = index
        return self._node_block.get(id(node))

    def postdominators(self) -> Dict[int, FrozenSet[int]]:
        """block index -> the set of blocks post-dominating it.

        Classic iterative dataflow from the exit: pdom(n) = {n} ∪
        ⋂ pdom(succ).  Blocks that cannot reach the exit keep the full
        set (vacuously post-dominated), the conventional — and for
        MMU001 conservative — answer.
        """
        if self._pdom is None:
            everything = frozenset(b.index for b in self.blocks)
            pdom = {b.index: everything for b in self.blocks}
            pdom[self.exit] = frozenset({self.exit})
            changed = True
            while changed:
                changed = False
                for b in self.blocks:
                    if b.index == self.exit or not b.succs:
                        continue
                    new = frozenset.intersection(
                        *(pdom[s] for s in b.succs)) | {b.index}
                    if new != pdom[b.index]:
                        pdom[b.index] = new
                        changed = True
            self._pdom = pdom
        return self._pdom

    def postdominates(self, a: int, b: int) -> bool:
        """True iff every ``b``->exit path passes through ``a``."""
        return a in self.postdominators()[b]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

class _LoopCtx:
    __slots__ = ("header", "breaks")

    def __init__(self, header: int):
        self.header = header
        self.breaks: List[int] = []


class _TryCtx:
    __slots__ = ("handler_entries", "finally_entry", "loop_depth",
                 "pending_exit", "pending_breaks", "pending_continues")

    def __init__(self, handler_entries: List[int],
                 finally_entry: Optional[int], loop_depth: int):
        self.handler_entries = list(handler_entries)
        self.finally_entry = finally_entry
        self.loop_depth = loop_depth
        self.pending_exit = False
        self.pending_breaks: List[_LoopCtx] = []
        self.pending_continues: List[_LoopCtx] = []


class _Builder:
    def __init__(self, func: ast.AST):
        self.func = func
        self.blocks: List[Block] = []
        self.entry = self._new(kind="entry")
        self.exit = self._new(kind="exit")
        self.loop_stack: List[_LoopCtx] = []
        self.try_stack: List[_TryCtx] = []

    # -- plumbing --------------------------------------------------------------

    def _new(self, stmt: Optional[ast.stmt] = None, kind: str = "stmt") -> int:
        block = Block(len(self.blocks), stmt, kind)
        self.blocks.append(block)
        return block.index

    def _connect(self, preds: List[int], target: int) -> None:
        for index in preds:
            self.blocks[index].succs.append(target)

    # -- exceptional / non-local routing ---------------------------------------

    def _route_to_exit(self, preds: List[int]) -> None:
        """Return (or unhandled raise): through enclosing finallys."""
        for ctx in reversed(self.try_stack):
            if ctx.finally_entry is not None:
                self._connect(preds, ctx.finally_entry)
                ctx.pending_exit = True
                return
        self._connect(preds, self.exit)

    def _route_raise(self, preds: List[int]) -> None:
        """Explicit raise: nearest live handlers, else finallys + exit."""
        for ctx in reversed(self.try_stack):
            if ctx.handler_entries:
                for handler in ctx.handler_entries:
                    self._connect(preds, handler)
                return
            if ctx.finally_entry is not None:
                self._connect(preds, ctx.finally_entry)
                ctx.pending_exit = True
                return
        self._connect(preds, self.exit)

    def _route_break(self, preds: List[int], loop: _LoopCtx) -> None:
        depth = self.loop_stack.index(loop) + 1
        for ctx in reversed(self.try_stack):
            if ctx.finally_entry is not None and ctx.loop_depth >= depth:
                self._connect(preds, ctx.finally_entry)
                ctx.pending_breaks.append(loop)
                return
        loop.breaks.extend(preds)

    def _route_continue(self, preds: List[int], loop: _LoopCtx) -> None:
        depth = self.loop_stack.index(loop) + 1
        for ctx in reversed(self.try_stack):
            if ctx.finally_entry is not None and ctx.loop_depth >= depth:
                self._connect(preds, ctx.finally_entry)
                ctx.pending_continues.append(loop)
                return
        self._connect(preds, loop.header)

    # -- statement translation -------------------------------------------------

    def build(self) -> CFG:
        exits = self._seq(self.func.body, [self.entry])
        self._connect(exits, self.exit)
        return CFG(self.func, self.blocks, self.entry, self.exit)

    def _seq(self, stmts: Sequence[ast.stmt], preds: List[int]) -> List[int]:
        for stmt in stmts:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        block = self._new(stmt)
        self._connect(preds, block)

        if isinstance(stmt, ast.If):
            true_exits = self._seq(stmt.body, [block])
            if stmt.orelse:
                false_exits = self._seq(stmt.orelse, [block])
            else:
                false_exits = [block]
            return true_exits + false_exits

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            loop = _LoopCtx(block)
            self.loop_stack.append(loop)
            body_exits = self._seq(stmt.body, [block])
            self._connect(body_exits, block)  # back edge
            self.loop_stack.pop()
            exits: List[int] = [block]
            if stmt.orelse:
                exits = self._seq(stmt.orelse, exits)
            return exits + loop.breaks

        if isinstance(stmt, ast.Break):
            self._route_break([block], self.loop_stack[-1])
            return []

        if isinstance(stmt, ast.Continue):
            self._route_continue([block], self.loop_stack[-1])
            return []

        if isinstance(stmt, ast.Return):
            self._route_to_exit([block])
            return []

        if isinstance(stmt, ast.Raise):
            self._route_raise([block])
            return []

        if isinstance(stmt, ast.Try):
            return self._try(stmt, block)

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._seq(stmt.body, [block])

        if isinstance(stmt, ast.Match):
            exits = []
            for case in stmt.cases:
                exits += self._seq(case.body, [block])
            exits.append(block)  # no case matched
            return exits

        # Plain statement (incl. nested def/class, kept opaque).
        return [block]

    def _try(self, stmt: ast.Try, block: int) -> List[int]:
        handler_entries = [self._new(h, kind="handler") for h in stmt.handlers]
        finally_entry = (self._new(kind="finally")
                         if stmt.finalbody else None)
        for handler in handler_entries:
            # "Something in the body may raise": keeps handlers
            # reachable without severing every body statement's
            # post-dominance (see module docstring).
            self._connect([block], handler)

        ctx = _TryCtx(handler_entries, finally_entry, len(self.loop_stack))
        self.try_stack.append(ctx)
        body_exits = self._seq(stmt.body, [block])
        if stmt.orelse:
            # Exceptions in else do not reach this try's handlers.
            ctx.handler_entries = []
            body_exits = self._seq(stmt.orelse, body_exits)

        ctx.handler_entries = []  # raises in handlers go outward
        handler_exits: List[int] = []
        for entry in handler_entries:
            handler_block = self.blocks[entry]
            handler_exits += self._seq(handler_block.stmt.body,
                                       [entry])

        normal_exits = body_exits + handler_exits
        self.try_stack.pop()

        if finally_entry is None:
            return normal_exits

        self._connect(normal_exits, finally_entry)
        finally_exits = self._seq(stmt.finalbody, [finally_entry])
        # Fan the funnel out to every continuation routed through it.
        if ctx.pending_exit:
            self._route_to_exit(finally_exits)
        for loop in ctx.pending_breaks:
            self._route_break(finally_exits, loop)
        for loop in ctx.pending_continues:
            self._route_continue(finally_exits, loop)
        # Normal fallthrough continues after the try statement.
        return finally_exits


def build_cfg(func: ast.AST) -> CFG:
    """CFG for one ``FunctionDef``/``AsyncFunctionDef`` (or any node
    with a statement-list ``body``, e.g. a ``Module`` in tests)."""
    if not hasattr(func, "body") or not isinstance(func.body, list):
        raise TypeError(f"cannot build a CFG for {type(func).__name__}")
    return _Builder(func).build()
