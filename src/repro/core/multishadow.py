"""Multi-shadowing: several shadow page tables per guest address space.

A conventional VMM keeps one shadow page table per guest address
space, caching guest-virtual -> machine translations.  Overshadow's
key mechanism is to keep *several*, selected by the current protection
context (the "view"): the owner application's view maps cloaked pages
to plaintext frames; the system view maps the same pages only after
the cloak engine has made the frames safe (encrypted).

The shadow store also keeps a reverse index from frames to the shadow
entries that map them, so a cloaking transition on a frame can
surgically invalidate every stale mapping — including mappings the
same frame has in *other* address spaces (shared file mappings).
"""

from typing import Dict, List, Optional, Set, Tuple

from repro.hw.cycles import StatCounters
from repro.hw.tlb import TLBEntry

#: Shadow policies for the R-A3 ablation.
POLICY_TAGGED = "tagged"   # multi-shadowing: shadows persist across switches
POLICY_FLUSH = "flush"     # single shadow: every view switch flushes


class ShadowContext:
    """One shadow page table: translations for one (asid, view) pair."""

    __slots__ = ("asid", "view", "entries")

    def __init__(self, asid: int, view: int):
        self.asid = asid
        self.view = view
        self.entries: Dict[int, TLBEntry] = {}

    def __len__(self) -> int:
        return len(self.entries)


Mapping = Tuple[int, int, int]  # (asid, view, vpn)


class MultiShadow:
    """The VMM's collection of shadow contexts."""

    def __init__(self, stats: Optional[StatCounters] = None,
                 policy: str = POLICY_TAGGED):
        if policy not in (POLICY_TAGGED, POLICY_FLUSH):
            raise ValueError(f"unknown shadow policy {policy!r}")
        self.policy = policy
        self._stats = stats or StatCounters()
        self._shadows: Dict[Tuple[int, int], ShadowContext] = {}
        self._frame_mappings: Dict[int, Set[Mapping]] = {}
        #: Views that exist per asid, in creation order — lets invlpg
        #: visit only the handful of views of one address space instead
        #: of scanning every shadow context in the store.
        self._asid_views: Dict[int, List[int]] = {}
        self._entry_count = 0
        self.peak_entries = 0

    # -- lookup / install -----------------------------------------------------

    def context(self, asid: int, view: int) -> ShadowContext:
        key = (asid, view)
        ctx = self._shadows.get(key)
        if ctx is None:
            ctx = ShadowContext(asid, view)
            self._shadows[key] = ctx
            self._asid_views.setdefault(asid, []).append(view)
        return ctx

    def lookup(self, asid: int, view: int, vpn: int) -> Optional[TLBEntry]:
        """One frame per shadow fill: the context probe and the hit or
        miss counter are inline.  A miss on the context still creates
        it (R-T3 reports ``shadow_contexts``)."""
        ctx = self._shadows.get((asid, view))
        if ctx is None:
            ctx = self.context(asid, view)
        entry = ctx.entries.get(vpn)
        name = "shadow.hits" if entry is not None else "shadow.misses"
        counts = self._stats.counts
        counts[name] = counts.get(name, 0) + 1
        return entry

    def install(self, asid: int, view: int, entry: TLBEntry) -> None:
        ctx = self._shadows.get((asid, view))
        if ctx is None:
            ctx = self.context(asid, view)
        old = ctx.entries.get(entry.vpn)
        if old is not None and old.pfn != entry.pfn:
            # Overwriting a mapping that pointed at a different frame:
            # keep the reverse index exact.
            self._remove(asid, view, entry.vpn)
            old = None
        if old is None:
            self._entry_count += 1
        ctx.entries[entry.vpn] = entry
        self._frame_mappings.setdefault(entry.pfn, set()).add(
            (asid, view, entry.vpn)
        )
        if self._entry_count > self.peak_entries:
            self.peak_entries = self._entry_count
        counts = self._stats.counts
        counts["shadow.fills"] = counts.get("shadow.fills", 0) + 1

    # -- invalidation ------------------------------------------------------------

    def _remove(self, asid: int, view: int, vpn: int) -> None:
        ctx = self._shadows.get((asid, view))
        if ctx is None:
            return
        entry = ctx.entries.pop(vpn, None)
        if entry is not None:
            self._entry_count -= 1
            mappings = self._frame_mappings.get(entry.pfn)
            if mappings is not None:
                mappings.discard((asid, view, vpn))
                if not mappings:
                    del self._frame_mappings[entry.pfn]

    def invalidate_vpn(self, asid: int, vpn: int) -> List[Mapping]:
        """Drop ``vpn`` from every view of one address space (invlpg)."""
        shadows = self._shadows
        victims = [
            (asid, v, vpn)
            for v in self._asid_views.get(asid, ())
            if vpn in shadows[(asid, v)].entries
        ]
        for a, v, p in victims:
            self._remove(a, v, p)
        return victims

    def invalidate_frame(self, gpfn: int) -> List[Mapping]:
        """Drop every shadow entry that maps ``gpfn``, in any address
        space and view.  Returns the dropped mappings so the caller can
        purge the TLB to match."""
        victims = list(self._frame_mappings.get(gpfn, ()))
        for asid, view, vpn in victims:
            self._remove(asid, view, vpn)
        return victims

    def drop_asid(self, asid: int) -> int:
        """Discard all shadows of one address space (address-space death)."""
        count = 0
        for key in [(asid, v) for v in self._asid_views.pop(asid, ())]:
            ctx = self._shadows.pop(key)
            count += len(ctx.entries)
            self._entry_count -= len(ctx.entries)
            for vpn, entry in ctx.entries.items():
                mappings = self._frame_mappings.get(entry.pfn)
                if mappings is not None:
                    mappings.discard((key[0], key[1], vpn))
                    if not mappings:
                        del self._frame_mappings[entry.pfn]
        return count

    def flush_all(self) -> int:
        count = self._entry_count
        self._shadows.clear()
        self._frame_mappings.clear()
        self._asid_views.clear()
        self._entry_count = 0
        return count

    # -- introspection --------------------------------------------------------------

    def mappings_of_frame(self, gpfn: int) -> Set[Mapping]:
        return set(self._frame_mappings.get(gpfn, ()))

    def shadow_count(self) -> int:
        return len(self._shadows)

    def entry_count(self) -> int:
        return self._entry_count
