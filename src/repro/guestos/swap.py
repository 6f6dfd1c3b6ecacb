"""Anonymous-page swapping: the kernel's reclaim path.

Under memory pressure a kernel steals resident pages, writes them to
swap, and faults them back on demand.  For Overshadow this is a
*hostile-looking but legitimate* workload: every swap-out of a cloaked
plaintext page forces an encrypt transition (the DMA gateway
guarantees the device never sees plaintext), and every swap-in is
verified against the page's (version, IV, MAC) on the next
application touch.  The cloaking protocol was designed so that exactly
this sequence works without OS cooperation.

Reclaim runs from the machine loop on a configurable cadence (see
``MachineParams.reclaim_interval_cycles``), scanning processes
round-robin and evicting anonymous pages FIFO — deliberately dumb, as
a pressure generator should be.
"""

from typing import Dict, List, Optional, Tuple

from repro.guestos.blockcache import BlockCache
from repro.guestos.process import Process, ProcessState, VMA
from repro.hw.cycles import StatCounters
from repro.hw.phys import FrameAllocator
from repro.obs import bus


class SwapSpace:
    """Slot allocation over the disk, namespaced away from file data.

    Reuses the block cache's allocator with negative pseudo-inode ids
    (one per address space), so swap and file blocks never collide.
    """

    def __init__(self, cache: BlockCache):
        self._cache = cache

    @staticmethod
    def _pseudo_inode(asid: int) -> int:
        return -(asid + 1)

    def write_out(self, asid: int, vpn: int, gpfn: int) -> None:
        self._cache.writeback_page(self._pseudo_inode(asid), vpn, gpfn)

    def read_in(self, asid: int, vpn: int, gpfn: int) -> bool:
        return self._cache.readin_page(self._pseudo_inode(asid), vpn, gpfn)

    def has_slot(self, asid: int, vpn: int) -> bool:
        return self._cache.block_of(self._pseudo_inode(asid), vpn) is not None

    def drop_slot(self, asid: int, vpn: int) -> bool:
        """Invalidate one slot (the page was unmapped, not faulted in)."""
        return self._cache.drop_page(self._pseudo_inode(asid), vpn)

    def drop_address_space(self, asid: int) -> int:
        return self._cache.drop_file(self._pseudo_inode(asid))


class PageReclaimer:
    """Picks and evicts resident anonymous pages.

    Holds the kernel's process table, frame allocator, counters and
    block cache, not the kernel itself: the kernel owns the reclaimer,
    and a back-reference would make every machine a reference cycle.
    """

    def __init__(self, processes: Dict[int, Process], alloc: FrameAllocator,
                 stats: StatCounters, cache: BlockCache):
        self._processes = processes
        self._alloc = alloc
        self._stats = stats
        self.swap = SwapSpace(cache)
        #: Rotates across processes so no single victim starves.
        self._next_pid_index = 0
        self.pages_evicted = 0
        self.pages_swapped_in = 0

    # -- eviction ------------------------------------------------------------

    def _eviction_candidates(self, proc: Process) -> List[Tuple[int, int]]:
        """(vpn, pfn) pairs of resident anonymous pages of ``proc``."""
        candidates = []
        for vpn, pfn in proc.aspace.mapped_pages():
            vma = proc.aspace.find_vma(vpn)
            if vma is None or vma.kind != VMA.ANON:
                continue
            candidates.append((vpn, pfn))
        return candidates

    def reclaim(self, target_pages: int) -> int:
        """Evict up to ``target_pages`` anonymous pages; returns count."""
        procs = [p for p in self._processes.values()
                 if p.state in (ProcessState.READY, ProcessState.BLOCKED,
                                ProcessState.RUNNING)]
        if not procs:
            return 0
        evicted = 0
        # Round-robin over processes, FIFO within each.
        for offset in range(len(procs)):
            if evicted >= target_pages:
                break
            proc = procs[(self._next_pid_index + offset) % len(procs)]
            for vpn, pfn in self._eviction_candidates(proc):
                if evicted >= target_pages:
                    break
                self._evict_one(proc, vpn, pfn)
                evicted += 1
        self._next_pid_index += 1
        self.pages_evicted += evicted
        self._stats.bump("kernel.pages_evicted", evicted)
        return evicted

    def _evict_one(self, proc: Process, vpn: int, pfn: int) -> None:
        # The write-out DMAs through the IOMMU interposition, which
        # encrypts cloaked plaintext in place before the device (and
        # this kernel) ever sees the bytes.
        self.swap.write_out(proc.asid, vpn, pfn)
        bus.swap_out(proc.asid, vpn, pfn)
        proc.aspace.unmap_page(vpn)
        self._alloc.free(pfn)

    # -- swap-in (called from the page-fault handler) ----------------------------

    def swap_in(self, proc: Process, vpn: int) -> Optional[int]:
        """Fault-in a previously evicted page; returns the new pfn, or
        None when the page was never swapped."""
        if not self.swap.has_slot(proc.asid, vpn):
            return None
        pfn = self._alloc.alloc()
        self.swap.read_in(proc.asid, vpn, pfn)
        bus.swap_in(proc.asid, vpn, pfn)
        vma = proc.aspace.find_vma(vpn)
        writable = vma.writable if vma is not None else True
        proc.aspace.map_page(vpn, pfn, writable=writable)
        self.pages_swapped_in += 1
        self._stats.bump("kernel.pages_swapped_in")
        return pfn
