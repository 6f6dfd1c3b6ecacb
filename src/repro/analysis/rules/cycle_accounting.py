"""CYC001: touching costed primitives must charge the cycle ledger.

The reproduction's performance claims are virtual-cycle counts, so a
code path that moves page-sized data or runs page crypto *without*
charging the :class:`~repro.hw.cycles.CycleAccount` silently makes that
work free and skews every benchmark built on top.  This rule walks the
**shared call graph** (:mod:`repro.analysis.flow.callgraph` — the same
graph the taint rules use) for every function in ``repro.hw`` and
``repro.core``: if a function (or any helper its resolved call edges
reach, transitively) invokes one of the uncosted primitives, then that
call graph must also contain a charge — either a direct
``.charge(...)`` / ``._charge(...)`` or a call into one of the known
self-charging engine entry points.

The primitives are *uncosted by design* (``PhysicalMemory`` and
``PageCipher`` model hardware/crypto mechanisms and know nothing about
time); the obligation to account for them sits with their callers,
which is exactly what this rule pins down.
"""

from typing import Iterator, Set

from repro.analysis.engine import ModuleInfo
from repro.analysis.flow.callgraph import CallGraph, FuncKey, FunctionNode
from repro.analysis.rules.base import Rule

#: Attribute calls that move page data or run page crypto without
#: charging internally.
PRIMITIVES = {
    "read_frame", "write_frame", "zero_frame",
    "encrypt_page", "decrypt_page", "verify_page",
    "seal_message", "open_message",
}

#: Calls that *are* a charge.
CHARGES = {"charge", "_charge"}

#: Engine entry points that charge internally before/after touching
#: primitives, so calling them discharges the obligation.
COSTED_DELEGATES = {
    "resolve_app_access", "resolve_system_access",
    "read_block", "write_block",
}

#: Only the simulated hardware and the TCB carry the obligation; the
#: guest kernel's accounting is audited through its own cost table and
#: the benchmarks' conservation checks.
CHECKED_PREFIXES = ("repro.hw", "repro.core")


def _charges_directly(fn: FunctionNode) -> bool:
    return any(site.is_attr and site.name in CHARGES | COSTED_DELEGATES
               for site in fn.calls)


def _graph_charges(graph: CallGraph, key: FuncKey,
                   seen: Set[FuncKey]) -> bool:
    if key in seen or key not in graph.functions:
        return False
    seen.add(key)
    fn = graph.functions[key]
    if _charges_directly(fn):
        return True
    return any(
        _graph_charges(graph, site.callee, seen)
        for site in fn.calls if site.callee is not None
    )


class CycleAccountingRule(Rule):
    rule_id = "CYC001"
    name = "cycle-accounting"
    summary = ("hw/ and core/ functions touching memory/cipher "
               "primitives must charge the CycleAccount (directly or "
               "via any helper reachable on the shared call graph)")

    def check(self, mod: ModuleInfo, project) -> Iterator:
        if not any(mod.module == p or mod.module.startswith(p + ".")
                   for p in CHECKED_PREFIXES):
            return
        graph = project.callgraph
        for fn in graph.functions_in(mod):
            primitive_sites = [
                site for site in fn.calls
                if site.is_attr and site.name in PRIMITIVES
            ]
            if not primitive_sites:
                continue
            if _graph_charges(graph, fn.key, set()):
                continue
            for site in primitive_sites:
                yield self.finding(
                    mod, site.node,
                    f"'{site.name}' is a costed primitive but nothing in "
                    "this function's call graph charges the "
                    "CycleAccount; charge the appropriate CostTable "
                    "entry (or delegate to a costed engine path)",
                )
