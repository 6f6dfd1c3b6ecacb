"""The software MMU: every guest memory access funnels through here.

Translation order is TLB → translation authority.  The *authority* is
whoever owns the real translation logic; in this system that is always
the VMM (:class:`repro.core.vmm.VMM`), whose fill path walks the guest
page tables, consults the cloaking engine, and installs shadow-derived
entries.  The MMU itself knows nothing about cloaking — it only knows
that some component it trusts turns (asid, view, vpn) into a frame or a
fault, which is exactly the hardware/VMM split the paper relies on.

Access context (asid, view, mode) is machine state, set on world
switches and kernel entries, not a per-call argument: that mirrors how
a CPU's CR3/CPL select translations implicitly.
"""

import weakref
from typing import List, Optional, Tuple

from repro.hw.cycles import CycleAccount
from repro.hw.faults import AccessKind, PageFault, PageFaultReason
from repro.hw.params import CostTable, PAGE_SHIFT, PAGE_SIZE
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import SoftwareTLB, TLBEntry
from repro.obs import bus

#: View tag for the system world: the guest kernel and all uncloaked
#: applications share this view.  Cloaked domains use their domain id.
SYSTEM_VIEW = 0

#: Privilege modes, kept here to avoid an hw-internal import cycle.
MODE_USER = "user"
MODE_KERNEL = "kernel"

_READ = AccessKind.READ
_WRITE = AccessKind.WRITE


class TranslationAuthority:
    """Interface the MMU calls on a TLB miss.

    Implementations must either return a :class:`TLBEntry` (already
    cloak-resolved: the named frame really is accessible to this view)
    or raise :class:`PageFault` for the guest to handle.
    """

    def fill(
        self,
        asid: int,
        view: int,
        vpn: int,
        access: AccessKind,
        mode: str,
    ) -> TLBEntry:
        raise NotImplementedError


def _no_authority() -> None:
    """Stands in for the authority's weak reference until one is
    attached: called on a miss, it names no authority."""
    return None


class MMU:
    """Translates and performs guest memory accesses."""

    def __init__(
        self,
        phys: PhysicalMemory,
        tlb: SoftwareTLB,
        cycles: CycleAccount,
        costs: CostTable,
    ):
        self._phys = phys
        self._tlb = tlb
        self._cycles = cycles
        self._costs = costs
        #: A weak reference, called on a miss.  The VMM holds the MMU
        #: (and the CPU that holds it), so a strong back-edge would
        #: make every machine a reference cycle that only the cyclic
        #: collector frees; the machine and its kernel keep the VMM
        #: alive for as long as the MMU is in use.
        self._authority = _no_authority
        # The access context (see module docstring).  This is the only
        # copy in the machine: the VMM's world switches write it, the
        # kernel sets it before touching user memory, and the CPU reads
        # it from here.
        self.asid = 0
        self.view = SYSTEM_VIEW
        self.mode = MODE_KERNEL

    # -- wiring ------------------------------------------------------------

    def attach_authority(self, authority: TranslationAuthority) -> None:
        self._authority = weakref.ref(authority)

    @property
    def tlb(self) -> SoftwareTLB:
        return self._tlb

    # -- context -----------------------------------------------------------

    def set_context(self, asid: int, view: int, mode: str) -> None:
        self.asid = asid
        self.view = view
        self.mode = mode

    @property
    def context(self) -> Tuple[int, int, str]:
        return self.asid, self.view, self.mode

    # -- translation -------------------------------------------------------

    def translate(self, vaddr: int, access: AccessKind) -> int:
        """Translate one address; returns the physical byte address."""
        entry = self._translate_page(vaddr >> PAGE_SHIFT, vaddr, access)
        return (entry.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    # The TLB and the VMM's shadow cache share one TLBEntry record on
    # purpose: a dirty-bit upgrade through either reference must be
    # visible to both, exactly like a hardware TLB caching the shadow PTE.
    def _translate_page(self, vpn: int, vaddr: int, access: AccessKind) -> TLBEntry:
        """TLB probe, refill when needed, then the permission check.

        A refill happens on a miss and on a write through a clean
        entry (so the guest PTE's dirty bit gets set, x86 TLB
        behaviour).  The probe always goes through ``lookup``: a fault
        plan's TLB audits every use of an entry there.
        """
        asid = self.asid
        view = self.view
        entry = self._tlb.lookup(asid, view, vpn)
        if entry is None or (access is _WRITE and not entry.dirty):
            authority = self._authority()
            if authority is None:
                raise RuntimeError("MMU has no translation authority attached")
            if entry is not None:
                self._tlb.invalidate_page(vpn, asid=asid)
            self._cycles.charge("mmu", self._costs.tlb_fill)
            entry = authority.fill(asid, view, vpn, access, self.mode)
            self._tlb.insert(asid, view, entry)
            if bus.ACTIVE:
                bus.tlb_fill(asid, view, vpn)
        if not entry.user and self.mode == MODE_USER:
            raise PageFault(vaddr, access, PageFaultReason.USER_SUPERVISOR)
        if access is _WRITE and not entry.writable:
            raise PageFault(vaddr, access, PageFaultReason.PROTECTION)
        return entry

    # -- data access ---------------------------------------------------------

    # Each access is charged once, after its data has moved: one memory
    # operation for up to eight bytes, else the copy cost (``copy_cost``,
    # computed inline; never less than one operation).  A zero-length
    # access translates nothing but still costs one operation.

    def read(self, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``vaddr`` (may span pages)."""
        if size < 0:
            raise ValueError("negative read size")
        offset = vaddr & (PAGE_SIZE - 1)
        if 0 < size and offset + size <= PAGE_SIZE:
            data = self._phys.read(
                self._translate_page(vaddr >> PAGE_SHIFT, vaddr, _READ).pfn,
                offset, size)
        else:
            chunks: List[bytes] = []
            for page_vaddr, offset, length in self._split(vaddr, size):
                entry = self._translate_page(page_vaddr >> PAGE_SHIFT,
                                             page_vaddr, _READ)
                chunks.append(self._phys.read(entry.pfn, offset, length))
            data = b"".join(chunks)
        costs = self._costs
        self._cycles.charge("mem", costs.mem_access if size <= 8 else
                            max(costs.mem_access, int(costs.mem_byte * size)))
        return data

    def write(self, vaddr: int, data: bytes) -> None:
        """Write ``data`` at ``vaddr`` (may span pages)."""
        size = len(data)
        offset = vaddr & (PAGE_SIZE - 1)
        if 0 < size and offset + size <= PAGE_SIZE:
            self._phys.write(
                self._translate_page(vaddr >> PAGE_SHIFT, vaddr, _WRITE).pfn,
                offset, data)
        else:
            pos = 0
            for page_vaddr, offset, length in self._split(vaddr, size):
                entry = self._translate_page(page_vaddr >> PAGE_SHIFT,
                                             page_vaddr, _WRITE)
                self._phys.write(entry.pfn, offset, data[pos : pos + length])
                pos += length
        costs = self._costs
        self._cycles.charge("mem", costs.mem_access if size <= 8 else
                            max(costs.mem_access, int(costs.mem_byte * size)))

    @staticmethod
    def _split(vaddr: int, size: int):
        """Break (vaddr, size) into per-page (page_vaddr, offset, length)."""
        remaining = size
        cursor = vaddr
        while remaining > 0:
            offset = cursor & (PAGE_SIZE - 1)
            length = min(PAGE_SIZE - offset, remaining)
            yield cursor, offset, length
            cursor += length
            remaining -= length

    # -- invalidation hooks (invlpg analogues) --------------------------------

    def invalidate_page(self, vpn: int, asid: Optional[int] = None) -> None:
        self._tlb.invalidate_page(vpn, asid=asid)

    def invalidate_asid(self, asid: int) -> None:
        self._tlb.invalidate_asid(asid)

    def flush(self) -> None:
        self._tlb.flush()
