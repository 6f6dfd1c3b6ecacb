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

from typing import List, Optional, Tuple

from repro.hw.cycles import CycleAccount
from repro.hw.faults import AccessKind, GeneralProtectionFault, PageFault, PageFaultReason
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
        self._authority: Optional[TranslationAuthority] = None
        # Current access context; see module docstring.
        self._asid = 0
        self._view = SYSTEM_VIEW
        self._mode = MODE_KERNEL

    # -- wiring ------------------------------------------------------------

    def attach_authority(self, authority: TranslationAuthority) -> None:
        self._authority = authority

    @property
    def tlb(self) -> SoftwareTLB:
        return self._tlb

    # -- context -----------------------------------------------------------

    def set_context(self, asid: int, view: int, mode: str) -> None:
        self._asid = asid
        self._view = view
        self._mode = mode

    @property
    def context(self) -> Tuple[int, int, str]:
        return self._asid, self._view, self._mode

    # -- translation -------------------------------------------------------

    def translate(self, vaddr: int, access: AccessKind) -> int:
        """Translate one address; returns the physical byte address."""
        entry = self._translate_page(vaddr >> PAGE_SHIFT, vaddr, access)
        return (entry.pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1))

    # The TLB and the VMM's shadow cache share one TLBEntry record on
    # purpose: a dirty-bit upgrade through either reference must be
    # visible to both, exactly like a hardware TLB caching the shadow PTE.
    def _translate_page(self, vpn: int, vaddr: int, access: AccessKind) -> TLBEntry:
        if self._authority is None:
            raise RuntimeError("MMU has no translation authority attached")
        entry = self._tlb.lookup(self._asid, self._view, vpn)
        if entry is not None and access is not AccessKind.WRITE:
            # Read hit: the case that dominates every workload.
            # One TLB probe, no fill decision, straight to the
            # permission check.
            self._check_permissions(entry, vaddr, access)
            return entry
        needs_fill = entry is None or (access.is_write and not entry.dirty)
        if needs_fill:
            if entry is not None:
                # Write through a clean entry: refill so the guest
                # PTE's dirty bit gets set (x86 TLB behaviour).
                self._tlb.invalidate_page(vpn, asid=self._asid)
            self._cycles.charge("mmu", self._costs.tlb_fill)
            entry = self._authority.fill(self._asid, self._view, vpn, access, self._mode)
            self._tlb.insert(self._asid, self._view, entry)
            if bus.ACTIVE:
                bus.tlb_fill(self._asid, self._view, vpn)
        self._check_permissions(entry, vaddr, access)
        return entry

    def _check_permissions(self, entry: TLBEntry, vaddr: int, access: AccessKind) -> None:
        if self._mode == MODE_USER and not entry.user:
            raise PageFault(vaddr, access, PageFaultReason.USER_SUPERVISOR)
        if access.is_write and not entry.writable:
            raise PageFault(vaddr, access, PageFaultReason.PROTECTION)

    # -- data access ---------------------------------------------------------

    def read(self, vaddr: int, size: int) -> bytes:
        """Read ``size`` bytes at ``vaddr`` (may span pages)."""
        if size < 0:
            raise ValueError("negative read size")
        if size == 0:
            # Zero-length access: no translation, but the access itself
            # still costs one memory operation (same as before the
            # fast-path split; see _charge_transfer).
            self._charge_transfer(0)
            return b""
        offset = vaddr & (PAGE_SIZE - 1)
        if offset + size <= PAGE_SIZE:
            # Single-page fast path: one translation, one physical
            # read, no chunk list or join.
            entry = self._translate_page(vaddr >> PAGE_SHIFT, vaddr, AccessKind.READ)
            data = self._phys.read(entry.pfn, offset, size)
            self._charge_transfer(size)
            return data
        chunks: List[bytes] = []
        for page_vaddr, offset, length in self._split(vaddr, size):
            entry = self._translate_page(page_vaddr >> PAGE_SHIFT, page_vaddr, AccessKind.READ)
            chunks.append(self._phys.read(entry.pfn, offset, length))
        self._charge_transfer(size)
        return b"".join(chunks)

    def write(self, vaddr: int, data: bytes) -> None:
        """Write ``data`` at ``vaddr`` (may span pages)."""
        size = len(data)
        if size == 0:
            self._charge_transfer(0)
            return
        offset = vaddr & (PAGE_SIZE - 1)
        if offset + size <= PAGE_SIZE:
            entry = self._translate_page(vaddr >> PAGE_SHIFT, vaddr, AccessKind.WRITE)
            self._phys.write(entry.pfn, offset, data)
            self._charge_transfer(size)
            return
        pos = 0
        for page_vaddr, offset, length in self._split(vaddr, size):
            entry = self._translate_page(page_vaddr >> PAGE_SHIFT, page_vaddr, AccessKind.WRITE)
            self._phys.write(entry.pfn, offset, data[pos : pos + length])
            pos += length
        self._charge_transfer(size)

    def _charge_transfer(self, size: int) -> None:
        if size <= 8:
            self._cycles.charge("mem", self._costs.mem_access)
        else:
            self._cycles.charge("mem", max(self._costs.mem_access,
                                           self._costs.copy_cost(size)))

    @staticmethod
    def _split(vaddr: int, size: int):
        """Break (vaddr, size) into per-page (page_vaddr, offset, length)."""
        if size <= 0:
            return
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
