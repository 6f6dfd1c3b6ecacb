"""Model-based stateful testing of the full translation + cloaking
stack.

A hypothesis state machine interleaves application accesses, kernel
accesses, and kernel page-table edits against one cloaked address
space, checking after every step that:

* the application always reads exactly what it last wrote (the model);
* the kernel never observes application plaintext;
* TLB/shadow state stays coherent across remaps and transitions.

This is the invariant the entire system hangs on, exercised across
thousands of op orderings no hand-written test would try.
"""

import hashlib

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.errors import OvershadowError
from repro.core.hypercall import Hypercall
from repro.core.metadata import CloakState
from repro.core.vmm import VMM
from repro.hw.cpu import VirtualCPU
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.mmu import MMU, MODE_KERNEL, MODE_USER, SYSTEM_VIEW
from repro.hw.pagetable import PageTableWalker
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import FrameAllocator, PhysicalMemory
from repro.hw.tlb import SoftwareTLB

ASID = 1
PID = 7
BASE_VPN = 0x200
NPAGES = 4
IMAGE = b"stateful test app"
_PLAINTEXT = (CloakState.PLAINTEXT_CLEAN, CloakState.PLAINTEXT_DIRTY)


def _payload(tag: int) -> bytes:
    return hashlib.sha256(b"payload%d" % tag).digest()


class CloakCoherence(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.phys = PhysicalMemory(128)
        self.alloc = FrameAllocator(128)
        cycles = CycleAccount()
        costs = CostTable()
        self.mmu = MMU(self.phys, SoftwareTLB(16), cycles, costs)
        self.cpu = VirtualCPU(self.mmu, cycles, costs)
        self.vmm = VMM(self.phys, self.mmu, self.cpu, cycles,
                       StatCounters(), costs)
        self.walker = PageTableWalker(self.phys)
        self.root = self.alloc.alloc()
        self.phys.zero_frame(self.root)
        self.vmm.register_address_space(ASID, self.root)

        self.vmm.register_identity("app", IMAGE)
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        self.vmm.hypercall(Hypercall.CLOAK_INIT, ("app", IMAGE, PID))

        self.frames = {}
        for i in range(NPAGES):
            pfn = self.alloc.alloc()
            self.walker.map(self.root, BASE_VPN + i, pfn, True, True,
                            self.alloc.alloc)
            self.vmm.invlpg(ASID, BASE_VPN + i)
            self.frames[BASE_VPN + i] = pfn

        self.vmm.enter_user(PID, ASID)
        self.vmm.hypercall(Hypercall.CLOAK_RANGE,
                           (BASE_VPN, BASE_VPN + NPAGES, "state"))
        #: The model: vpn -> last plaintext written (64 bytes), or None.
        self.model = {BASE_VPN + i: None for i in range(NPAGES)}
        #: Pages the application has materialised (zero-filled counts:
        #: tampering them must be detected too).
        self.touched = set()
        self.tag = 0
        self.dead = False

    # -- moves ----------------------------------------------------------------

    vpns = st.integers(min_value=0, max_value=NPAGES - 1)

    def _vaddr(self, index: int) -> int:
        return (BASE_VPN + index) << 12

    @rule(index=vpns)
    def app_write(self, index):
        if self.dead:
            return
        self.tag += 1
        data = _payload(self.tag)
        self.vmm.enter_user(PID, ASID)
        self.mmu.write(self._vaddr(index), data)
        self.model[BASE_VPN + index] = data
        self.touched.add(BASE_VPN + index)

    @rule(index=vpns)
    def app_read(self, index):
        if self.dead:
            return
        self.vmm.enter_user(PID, ASID)
        observed = self.mmu.read(self._vaddr(index), 32)
        self.touched.add(BASE_VPN + index)
        expected = self.model[BASE_VPN + index]
        if expected is None:
            assert observed == bytes(32)  # fresh pages read zero
        else:
            assert observed == expected[:32]

    @rule(index=vpns)
    def kernel_read(self, index):
        if self.dead:
            return
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_KERNEL)
        observed = self.mmu.read(self._vaddr(index), 32)
        expected = self.model[BASE_VPN + index]
        if expected is not None:
            assert observed != expected[:32]  # never plaintext

    @rule(index=vpns)
    def kernel_swaps_page_to_new_frame(self, index):
        """Legal paging: read (forces encrypt), move, remap."""
        if self.dead:
            return
        vpn = BASE_VPN + index
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_KERNEL)
        self.mmu.read(self._vaddr(index), 1)  # encrypt if plaintext
        old_pfn = self.frames[vpn]
        new_pfn = self.alloc.alloc()
        self.phys.write_frame(new_pfn, self.phys.read_frame(old_pfn))
        self.phys.zero_frame(old_pfn)
        self.walker.map(self.root, vpn, new_pfn, True, True, self.alloc.alloc)
        self.vmm.invlpg(ASID, vpn)
        self.alloc.free(old_pfn)
        self.frames[vpn] = new_pfn

    @rule(index=vpns, offset=st.integers(0, PAGE_SIZE - 1))
    def kernel_tampers(self, index, offset):
        """Illegal: the kernel flips a byte.  From now on the app's
        next touch of this page must raise, never mis-read."""
        if self.dead:
            return
        vpn = BASE_VPN + index
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_KERNEL)
        current = self.mmu.read(self._vaddr(index) + offset, 1)
        self.mmu.write(self._vaddr(index) + offset,
                       bytes([current[0] ^ 0x55]))
        # The write itself forced encryption first, so from the app's
        # perspective this page is now corrupted ciphertext.  Any page
        # the app has materialised (even only zero-filled) must now
        # refuse to decrypt.
        if vpn in self.touched:
            self.vmm.enter_user(PID, ASID)
            try:
                observed = self.mmu.read(self._vaddr(index), 32)
            except OvershadowError:
                self.dead = True  # correct: detected
                return
            # Only acceptable alternative: the tampered byte was
            # outside our 32-byte window AND decrypt verified — but a
            # MAC covers the whole page, so reaching here is a bug.
            raise AssertionError(
                f"tampered page read returned {observed!r} without violation"
            )

    @rule(index=vpns)
    def app_recycles_page(self, index):
        """The shim releases a page (brk shrink): its contents are
        dead, and the next touch materialises a fresh zero page."""
        if self.dead:
            return
        vpn = BASE_VPN + index
        self.vmm.enter_user(PID, ASID)
        self.vmm.hypercall(Hypercall.PAGE_RECYCLE, (vpn, 1))
        self.model[vpn] = None
        self.touched.discard(vpn)

    # -- global invariants --------------------------------------------------------

    @invariant()
    def plaintext_frame_index_consistent(self):
        store = self.vmm.metadata
        for gpfn, md in list(store._plaintext_frames.items()):
            assert md.resident_gpfn == gpfn

    @invariant()
    def no_mapping_reveals_a_stale_frame(self):
        """Every shadow mapping and every TLB entry agrees with the
        cloak state of the frame it points at: the system view never
        maps live plaintext, and the owner's view of a cloaked page
        maps only that page's own plaintext frame."""
        mappings = [(asid, view, vpn, gpfn)
                    for gpfn, keys in self.vmm.shadows._frame_mappings.items()
                    for asid, view, vpn in keys]
        mappings += [(asid, view, vpn, entry.pfn)
                     for (asid, view, vpn), entry in self.mmu._tlb.entries()]
        metadata = self.vmm.metadata
        for asid, view, vpn, gpfn in mappings:
            if view == SYSTEM_VIEW:
                assert metadata.plaintext_in_frame(gpfn) is None, \
                    (asid, vpn, gpfn)
                continue
            domain = self.vmm.domains.get(view)
            if domain.is_cloaked(vpn):
                md = metadata.lookup(domain.domain_id, vpn)
                assert md is not None and md.resident_gpfn == gpfn \
                    and md.state in _PLAINTEXT, (asid, view, vpn, gpfn, md)


CloakCoherence.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None,
)
TestCloakCoherence = CloakCoherence.TestCase
