"""Software TLB, tagged by (address space, view).

The *view* tag is the hook multi-shadowing needs: the same virtual page
of the same address space can be cached with different permissions —
or deliberately not cached — depending on whether the CPU is running
the cloaked application's view or the system (kernel / other apps)
view.  Tagging avoids full flushes on world switches, mirroring the
paper's observation that multi-shadowing composes with tagged shadow
contexts rather than forcing a flush per transition.
"""

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.obs import bus


class TLBEntry:
    """One cached translation.

    ``dirty`` mirrors the guest PTE's dirty bit: a write through an
    entry whose dirty bit is clear must re-walk so the guest table's D
    bit gets set, exactly as x86 TLBs behave.
    """

    __slots__ = ("vpn", "pfn", "writable", "user", "dirty")

    def __init__(self, vpn: int, pfn: int, writable: bool, user: bool,
                 dirty: bool = False):
        self.vpn = vpn
        self.pfn = pfn
        self.writable = writable
        self.user = user
        self.dirty = dirty

    def __repr__(self) -> str:
        mode = "u" if self.user else "s"
        rw = "w" if self.writable else "r"
        return f"TLBEntry(vpn={self.vpn:#x} -> pfn={self.pfn}, {rw}{mode})"


Key = Tuple[int, int, int]  # (asid, view, vpn)


class SoftwareTLB:
    """LRU translation cache keyed by (asid, view, vpn)."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self._capacity = capacity
        self._entries: "OrderedDict[Key, TLBEntry]" = OrderedDict()
        #: vpn -> the resident keys caching it, so ``invalidate_page``
        #: visits the handful of (asid, view) tags of one page instead
        #: of every entry.  Exact: every write of ``_entries`` (insert,
        #: eviction, invalidation, flush) updates it in the same step,
        #: and no vpn maps to an empty set.
        self._by_vpn: Dict[int, Set[Key]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return self._capacity

    def lookup(self, asid: int, view: int, vpn: int) -> Optional[TLBEntry]:
        """Direct-dict hit path: one probe, one LRU touch, no scan.

        This sits on the MMU's per-access fast path, so it must stay
        allocation-free beyond the key tuple.  The LRU touch
        (``move_to_end``) is unconditional — recency accumulated while
        the TLB is still filling decides later evictions, and eviction
        order feeds straight into miss counts and virtual cycles.
        """
        entries = self._entries
        key = (asid, view, vpn)
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def insert(self, asid: int, view: int, entry: TLBEntry) -> None:
        vpn = entry.vpn
        key = (asid, view, vpn)
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        else:
            if len(entries) >= self._capacity:
                victim, __ = entries.popitem(last=False)
                self._unindex(victim)
                if bus.ACTIVE:
                    bus.tlb_evict(victim[0], victim[1], victim[2])
            keys = self._by_vpn.get(vpn)
            if keys is None:
                self._by_vpn[vpn] = {key}
            else:
                keys.add(key)
        entries[key] = entry

    def _unindex(self, key: Key) -> None:
        keys = self._by_vpn[key[2]]
        keys.discard(key)
        if not keys:
            del self._by_vpn[key[2]]

    def _drop(self, key: Key) -> None:
        """Remove one resident entry (and its index slot)."""
        del self._entries[key]
        self._unindex(key)

    def invalidate_page(self, vpn: int, asid: Optional[int] = None) -> int:
        """Drop all cached translations of ``vpn`` (optionally one asid).

        Returns the number of entries removed.  This is the ``invlpg``
        analogue the guest kernel issues after editing a PTE, and the
        hook the VMM uses when a page's cloak state flips.  Removal
        leaves the LRU order of the survivors untouched.
        """
        keys = self._by_vpn.get(vpn)
        dropped = 0
        if keys is not None:
            entries = self._entries
            if asid is None:
                dropped = len(keys)
                for key in keys:
                    del entries[key]
                del self._by_vpn[vpn]
            else:
                for key in [key for key in keys if key[0] == asid]:
                    del entries[key]
                    keys.discard(key)
                    dropped += 1
                if not keys:
                    del self._by_vpn[vpn]
        if bus.ACTIVE:
            bus.tlb_invalidate(-1 if asid is None else asid, vpn, dropped)
        return dropped

    def invalidate_asid(self, asid: int) -> int:
        """Drop all translations for one address space (CR3-write analogue)."""
        victims = [key for key in self._entries if key[0] == asid]
        for key in victims:
            self._drop(key)
        return len(victims)

    def flush(self) -> None:
        self._entries.clear()
        self._by_vpn.clear()

    def entries(self) -> Iterator[Tuple[Key, TLBEntry]]:
        return iter(list(self._entries.items()))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
