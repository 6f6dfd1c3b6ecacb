"""Whole-program analyses shared by rules.

:class:`ProjectContext` is the engine's hand-off to every rule: each
``check(mod, project)`` call receives the context of its run.  It owns
the parsed modules and lazily builds the shared
:class:`~repro.analysis.flow.callgraph.CallGraph` (CYC001) and
:class:`~repro.analysis.flow.taint.TaintAnalysis` (SEC002/SEC003)
exactly once; rules that never touch them pay nothing.  A unit test
checks a lone module with ``ProjectContext([mod])``: the same code
paths, just without cross-module edges.
"""

from typing import List, Optional, Sequence

from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.callgraph import CallGraph
from repro.analysis.flow.taint import TaintAnalysis

__all__ = ["CallGraph", "TaintAnalysis", "ProjectContext"]


class ProjectContext:
    """All modules of one run plus lazily-built shared analyses."""

    def __init__(self, modules: Sequence[ModuleInfo]):
        self.modules: List[ModuleInfo] = list(modules)
        self._callgraph: Optional[CallGraph] = None
        self._taint: Optional[TaintAnalysis] = None

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
