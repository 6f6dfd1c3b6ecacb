"""MMU001 — every PTE/cloak-visibility mutation reaches a TLB flush.

The bug class: software changes a translation (guest pagetable write,
shadow entry drop, a page re-encrypted under live mappings) but a stale
TLB entry keeps honouring the old one — the exact window Overshadow's
multi-shadowing must never open, because a stale *plaintext* mapping
after an encrypt is a direct secrecy breach.

The invariant, stated over the CFG: every mutation site must be
**post-dominated** by an invalidation — on *all* paths from the
mutation to function exit, some TLB/shadow invalidation executes.
Falling off an early ``return`` between a pagetable write and its
``invlpg`` is precisely what post-dominance catches and line-order
eyeballing does not.

Two mutation families are tracked:

* **PTE writes** — calls to ``map``/``unmap``/``set_writable``/
  ``write_entry`` on a ``PageTableWalker`` (resolved via the call
  graph, or spelled through a ``*walker*`` receiver).  Checked in
  every module except ``repro.hw.pagetable`` itself, which *defines*
  the primitives.
* **Cloak visibility flips** — ``resolve_app_access`` /
  ``resolve_system_access`` / ``encrypt_all_plaintext`` /
  ``note_plaintext``, checked only in ``repro.core.vmm``: the VMM owns
  MMU coherence; ``CloakEngine`` is the mechanism layer and its
  internal calls are the VMM's responsibility at the call site.

A mutation with no local invalidation may still be *delegated*: if
every known caller's call site is itself post-dominated by an
invalidation (recursively, to depth 3), the coherence obligation is
discharged one frame up.  Zero known callers means no discharge.
"""

from typing import Iterable, List, Set

from repro.analysis.engine import Finding, ModuleInfo
from repro.analysis.rules.base import Rule, dotted_name

#: PageTableWalker methods that change a translation.
PTE_MUTATORS = frozenset({"map", "unmap", "set_writable", "write_entry"})

#: VMM-level calls that change what a live mapping may reveal.
CLOAK_MUTATORS = frozenset({
    "resolve_app_access", "resolve_system_access",
    "encrypt_all_plaintext", "note_plaintext",
})

#: Calls that discharge the obligation (TLB, shadow and MMU spellings).
INVALIDATORS = frozenset({
    "invlpg", "_invlpg", "invalidate_page", "invalidate_asid",
    "invalidate_vpn", "invalidate_frame", "invalidate_view",
    "flush", "flush_all", "drop_asid", "_invalidate_frame_mappings",
})

#: Defines the PTE primitives; writing them there is the point.
EXEMPT_MODULES = frozenset({"repro.hw.pagetable"})

_DELEGATION_DEPTH = 3


class TlbCoherenceRule(Rule):
    rule_id = "MMU001"
    name = "tlb-coherence"
    summary = ("pagetable/cloak mutations must be post-dominated by a "
               "TLB/shadow invalidation on every path")

    # -- the check -------------------------------------------------------------

    def check(self, mod: ModuleInfo, project) -> Iterable[Finding]:
        if mod.module in EXEMPT_MODULES:
            return
        for fn in project.callgraph.functions_in(mod,
                                                 include_module_scope=True):
            mutations = [site for site in fn.calls
                         if self._is_mutation(site, mod)]
            if not mutations:
                continue
            cfg = project.cfg_for(fn)
            inval_blocks = self._invalidation_blocks(cfg, fn)
            for site in mutations:
                block = cfg.enclosing_block(site.node)
                if block is None:
                    continue
                if any(cfg.postdominates(c, block) for c in inval_blocks):
                    continue
                if self._delegates(project, fn, _DELEGATION_DEPTH,
                                   frozenset({fn.key})):
                    continue
                yield self.finding(
                    mod, site.node,
                    f"`{site.name}` mutates a translation but no TLB/shadow "
                    "invalidation post-dominates it — a path to return "
                    "leaves stale mappings live (add an invalidation on "
                    "every path, or justify inline with "
                    "`# repro: allow[MMU001]` and a reason)")

    def _is_mutation(self, site, mod: ModuleInfo) -> bool:
        if site.name in CLOAK_MUTATORS:
            return mod.module == "repro.core.vmm"
        if site.name not in PTE_MUTATORS:
            return False
        if site.callee is not None and site.callee[1].startswith(
                "PageTableWalker."):
            return True
        if site.is_attr:
            receiver = dotted_name(site.node.func.value)
            if receiver is not None and "walker" in receiver.rsplit(
                    ".", 1)[-1].lower():
                return True
        return False

    def _invalidation_blocks(self, cfg, fn) -> List[int]:
        blocks: Set[int] = set()
        for site in fn.calls:
            if site.name in INVALIDATORS:
                block = cfg.enclosing_block(site.node)
                if block is not None:
                    blocks.add(block)
        return sorted(blocks)

    def _delegates(self, project, fn, depth: int,
                   visited: frozenset) -> bool:
        """True iff *every* known caller invalidates after calling
        ``fn`` (directly or by its own delegation)."""
        delegated = project.memo(self.rule_id)
        cached = delegated.get(fn.key)
        if cached is not None:
            return cached
        callers = project.callers.get(fn.key, [])
        if not callers or depth <= 0:
            delegated[fn.key] = False
            return False
        ok = True
        for caller, call_node in callers:
            if caller.key in visited:
                ok = False  # recursion cycle: nobody discharges it
                break
            cfg = project.cfg_for(caller)
            block = cfg.enclosing_block(call_node)
            inval = self._invalidation_blocks(cfg, caller)
            if block is not None and any(
                    cfg.postdominates(c, block) for c in inval):
                continue
            if not self._delegates(project, caller, depth - 1,
                                   visited | {caller.key}):
                ok = False
                break
        delegated[fn.key] = ok
        return ok
