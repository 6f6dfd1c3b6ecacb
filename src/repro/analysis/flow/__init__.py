"""Whole-program analyses shared by rules.

:class:`ProjectContext` is the engine's hand-off to every rule: each
``check(mod, project)`` call receives the context of its run.  It owns
the parsed modules and lazily builds the shared
:class:`~repro.analysis.flow.callgraph.CallGraph`,
:class:`~repro.analysis.flow.taint.TaintAnalysis` (SEC002/SEC003) and
the per-function post-dominator CFGs (MMU001) exactly once; rules that
never touch them pay nothing.  A unit test checks a lone module with
``ProjectContext([mod])``: the same code paths, just without
cross-module edges.
"""

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.callgraph import CallGraph, FuncKey, FunctionNode
from repro.analysis.flow.cfg import CFG, build_cfg
from repro.analysis.flow.taint import TaintAnalysis

__all__ = ["CallGraph", "TaintAnalysis", "ProjectContext", "CFG",
           "build_cfg"]


class ProjectContext:
    """All modules of one run plus lazily-built shared analyses."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = list(modules)
        self._callgraph: Optional[CallGraph] = None
        self._taint: Optional[TaintAnalysis] = None
        self._callers: Optional[Dict[FuncKey, List[Tuple]]] = None
        self._cfgs: Dict[int, CFG] = {}
        self._memos: Dict[str, Dict] = {}

    @property
    def callgraph(self) -> CallGraph:
        if self._callgraph is None:
            self._callgraph = CallGraph.build(self.modules)
        return self._callgraph

    @property
    def taint(self) -> TaintAnalysis:
        if self._taint is None:
            self._taint = TaintAnalysis(self.callgraph)
        return self._taint

    @property
    def callers(self) -> Dict[FuncKey, List[Tuple[FunctionNode, object]]]:
        """Reverse call edges: callee key -> ``(caller, call node)``."""
        if self._callers is None:
            self._callers = {}
            for fn in self.callgraph.functions.values():
                for site in fn.calls:
                    if site.callee is not None:
                        self._callers.setdefault(site.callee, []).append(
                            (fn, site.node))
        return self._callers

    def memo(self, name: str) -> Dict:
        """A dict that lives as long as this run, for a rule's own
        caches (keyed by rule id)."""
        return self._memos.setdefault(name, {})

    def cfg_for(self, fn: FunctionNode) -> CFG:
        """The function's CFG, built once per run: MMU001 asks for a
        caller's graph again each time it checks a delegation."""
        key = id(fn.node)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = self._cfgs[key] = build_cfg(fn.node)
        return cfg
