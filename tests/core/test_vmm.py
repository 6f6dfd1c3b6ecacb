"""Integration-style tests of the VMM against hand-built guest state.

No guest OS here: the test plays the role of a (possibly malicious)
kernel, editing guest page tables directly and switching worlds, while
a pretend application touches memory through the MMU.
"""

import pytest

from repro.core.ctc import ExitReason
from repro.core.errors import HypercallError, IdentityViolation, IntegrityViolation
from repro.core.hypercall import Hypercall, HypercallDispatcher
from repro.core.metadata import CloakState
from repro.core.multishadow import POLICY_FLUSH
from repro.core.vmm import VMM, VMMConfig
from repro.hw.cpu import ALL_REGISTERS, VirtualCPU
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.faults import PageFault, PageFaultReason
from repro.hw.mmu import MMU, MODE_KERNEL, MODE_USER, SYSTEM_VIEW
from repro.hw.pagetable import PageTableWalker
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import FrameAllocator, PhysicalMemory
from repro.hw.tlb import SoftwareTLB

IMAGE = b"test application image"
ASID = 1
PID = 10
CODE_VPN = 0x100
DATA_VPN = 0x200
UNCLOAKED_VPN = 0x300


class Harness:
    """Wires hw + VMM and exposes kernel-role helpers."""

    def __init__(self, config=None):
        self.phys = PhysicalMemory(256)
        self.alloc = FrameAllocator(256)
        self.cycles = CycleAccount()
        self.stats = StatCounters()
        costs = CostTable()
        self.mmu = MMU(self.phys, SoftwareTLB(64), self.cycles, costs)
        self.cpu = VirtualCPU(self.mmu, self.cycles, costs)
        self.vmm = VMM(self.phys, self.mmu, self.cpu, self.cycles, self.stats,
                       costs, config=config)
        self.walker = PageTableWalker(self.phys)
        self.root = self.alloc.alloc()
        self.phys.zero_frame(self.root)
        self.vmm.register_address_space(ASID, self.root)
        self.frames = {}

    # -- kernel-role actions ------------------------------------------------

    def kmap(self, vpn, writable=True, user=True):
        pfn = self.alloc.alloc()
        self.walker.map(self.root, vpn, pfn, writable, user, self.alloc.alloc)
        self.vmm.invlpg(ASID, vpn)
        self.frames[vpn] = pfn
        return pfn

    def kremap(self, vpn, pfn):
        self.walker.map(self.root, vpn, pfn, True, True, self.alloc.alloc)
        self.vmm.invlpg(ASID, vpn)
        self.frames[vpn] = pfn

    def kernel_read(self, vaddr, size):
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_KERNEL)
        return self.mmu.read(vaddr, size)

    def kernel_write(self, vaddr, data):
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_KERNEL)
        self.mmu.write(vaddr, data)

    # -- app-role actions --------------------------------------------------------

    def make_cloaked_app(self):
        self.vmm.register_identity("app", IMAGE)
        self.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        did = self.vmm.hypercall(
            Hypercall.CLOAK_INIT, ("app", IMAGE, PID)
        )
        for vpn in (CODE_VPN, DATA_VPN):
            self.kmap(vpn)
        self.kmap(UNCLOAKED_VPN)
        self.vmm.enter_user(PID, ASID)
        self.vmm.hypercall(Hypercall.CLOAK_RANGE, (CODE_VPN, CODE_VPN + 16, "code"))
        self.vmm.hypercall(Hypercall.CLOAK_RANGE, (DATA_VPN, DATA_VPN + 16, "data"))
        return did

    def app_write(self, vaddr, data):
        self.vmm.enter_user(PID, ASID)
        self.mmu.write(vaddr, data)

    def app_read(self, vaddr, size):
        self.vmm.enter_user(PID, ASID)
        return self.mmu.read(vaddr, size)


@pytest.fixture
def h():
    return Harness()


class TestUncloakedBaseline:
    def test_plain_translation(self, h):
        h.kmap(0x50)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        addr = 0x50 << 12
        h.mmu.write(addr, b"plain")
        assert h.mmu.read(addr, 5) == b"plain"

    def test_unmapped_page_faults(self, h):
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(PageFault):
            h.mmu.read(0x77 << 12, 1)

    def test_unknown_asid_faults(self, h):
        h.mmu.set_context(99, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(PageFault):
            h.mmu.read(0x50 << 12, 1)

    def test_kernel_sees_uncloaked_app_memory(self, h):
        """Without Overshadow, the kernel reads everything — baseline."""
        h.kmap(0x50)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        h.mmu.write(0x50 << 12, b"exposed")
        assert h.kernel_read(0x50 << 12, 7) == b"exposed"


class TestWorldSwitchContext:
    """World switches write the MMU's access context, the machine's
    only copy of (asid, view, mode)."""

    def test_enter_user_sets_user_context(self, h):
        did = h.make_cloaked_app()
        h.mmu.set_context(ASID + 1, SYSTEM_VIEW, MODE_KERNEL)
        assert h.vmm.enter_user(PID, ASID) == did
        assert h.mmu.context == (ASID, did, MODE_USER)

    def test_exit_user_sets_kernel_context(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert h.mmu.context == (ASID, SYSTEM_VIEW, MODE_KERNEL)

    # The switch hands register dicts over instead of copying values
    # in and out of one; none of the handoffs may leave two owners.

    def test_enter_user_leaves_the_ctc_no_reference_to_the_live_file(self, h):
        h.make_cloaked_app()
        h.cpu.regs["r6"] = 0x5EC12E7
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        ctc = h.vmm.ctcs.get(PID)
        saved = ctc.saved_regs
        h.vmm.enter_user(PID, ASID)
        live = h.cpu.regs.live
        assert live is saved and live["r6"] == 0x5EC12E7
        assert ctc.saved_regs is None and not ctc.valid
        assert all(regs is not live for regs in ctc.nesting)
        # A later save copies the live file instead of keeping it.
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert ctc.saved_regs is not live
        assert ctc.saved_regs["r6"] == 0x5EC12E7

    def test_exit_user_hands_the_kernel_a_fresh_file(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        for number, name in enumerate(ALL_REGISTERS, start=1):
            h.cpu.regs[name] = number
        before = h.cpu.regs.live
        staged = ["r0", "r2"]
        h.vmm.exit_user(PID, ExitReason.SYSCALL, visible_regs=staged)
        live = h.cpu.regs.live
        assert live == {name: (ALL_REGISTERS.index(name) + 1
                               if name in staged else 0)
                        for name in ALL_REGISTERS}
        assert list(live) == list(ALL_REGISTERS)
        saved = h.vmm.ctcs.get(PID).saved_regs
        assert live is not saved and live is not before
        assert saved == {name: number for number, name
                         in enumerate(ALL_REGISTERS, start=1)}

    def test_pcb_load_does_not_alias_the_kernel_snapshot(self, h):
        pcb = {name: 0 for name in ALL_REGISTERS}
        pcb["r5"] = 7
        h.cpu.regs.load(pcb)
        pcb["r5"] = 0xBAD        # the kernel plants a value afterwards
        pcb["r6"] = 0xBAD
        assert h.cpu.regs.live is not pcb
        assert h.cpu.regs["r5"] == 7 and h.cpu.regs["r6"] == 0


class TestGuestAccessedDirtyBits:
    """The shadow fill walks the guest table once and updates the
    leaf's A/D bits by the x86 rule: any access sets A, a write sets D
    only when it will be permitted."""

    VPN = 0x60

    def _guest_pte(self, h):
        return h.walker.walk(h.root, self.VPN)

    def test_read_fill_sets_accessed_only(self, h):
        h.kmap(self.VPN)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        h.mmu.read(self.VPN << 12, 4)
        pte = self._guest_pte(h)
        assert pte.accessed and not pte.dirty

    def test_permitted_write_sets_both_and_walks_once(self, h):
        h.kmap(self.VPN)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        costs = CostTable()
        before = h.cycles.get("mmu")
        h.mmu.write(self.VPN << 12, b"x")
        pte = self._guest_pte(h)
        assert pte.accessed and pte.dirty
        # One TLB fill and one two-level walk, not two walks.
        assert h.cycles.get("mmu") - before == \
            costs.tlb_fill + 2 * costs.pt_walk_level

    def test_write_to_read_only_mapping_leaves_dirty_clear(self, h):
        h.kmap(self.VPN, writable=False)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(PageFault) as exc:
            h.mmu.write(self.VPN << 12, b"x")
        assert exc.value.reason is PageFaultReason.PROTECTION
        pte = self._guest_pte(h)
        assert pte.accessed and not pte.dirty


class TestCloakingThroughMMU:
    def test_kernel_sees_ciphertext(self, h):
        h.make_cloaked_app()
        secret = b"my secret data"
        addr = DATA_VPN << 12
        h.app_write(addr, secret)
        observed = h.kernel_read(addr, len(secret))
        assert observed != secret
        assert h.stats.get("cloak.encrypts") == 1

    def test_app_gets_plaintext_back_after_kernel_peek(self, h):
        h.make_cloaked_app()
        secret = b"my secret data"
        addr = DATA_VPN << 12
        h.app_write(addr, secret)
        h.kernel_read(addr, len(secret))
        assert h.app_read(addr, len(secret)) == secret
        assert h.stats.get("cloak.decrypts") == 1

    def test_whole_frame_is_ciphertext_to_kernel(self, h):
        h.make_cloaked_app()
        addr = DATA_VPN << 12
        h.app_write(addr, b"A" * PAGE_SIZE)
        frame = h.kernel_read(addr, PAGE_SIZE)
        # A page of 'A's must not show through.
        assert frame.count(b"A") < PAGE_SIZE // 16

    def test_uncloaked_page_of_cloaked_app_stays_shared(self, h):
        """Marshalling buffers: visible to both worlds by design."""
        h.make_cloaked_app()
        addr = UNCLOAKED_VPN << 12
        h.app_write(addr, b"marshalled args")
        assert h.kernel_read(addr, 15) == b"marshalled args"
        h.kernel_write(addr, b"kernel reply   ")
        assert h.app_read(addr, 15) == b"kernel reply   "

    def test_kernel_tamper_detected_on_app_access(self, h):
        h.make_cloaked_app()
        addr = DATA_VPN << 12
        h.app_write(addr, b"integrity matters")
        h.kernel_read(addr, 4)  # force encryption
        h.kernel_write(addr, b"\x00\x01\x02\x03")  # tamper ciphertext
        with pytest.raises(IntegrityViolation):
            h.app_read(addr, 4)

    def test_kernel_swap_roundtrip_is_legal(self, h):
        """Kernel moves ciphertext to a new frame (paging): app still
        reads its data."""
        h.make_cloaked_app()
        addr = DATA_VPN << 12
        h.app_write(addr, b"swap me out")
        h.kernel_read(addr, 1)  # encrypt
        old_pfn = h.frames[DATA_VPN]
        ciphertext = h.phys.read_frame(old_pfn)
        new_pfn = h.alloc.alloc()
        h.phys.write_frame(new_pfn, ciphertext)
        h.phys.zero_frame(old_pfn)
        h.kremap(DATA_VPN, new_pfn)
        assert h.app_read(addr, 11) == b"swap me out"

    def test_fresh_cloaked_page_zero_filled(self, h):
        h.make_cloaked_app()
        pfn = h.frames[CODE_VPN]
        h.phys.write(pfn, 0, b"kernel seeded junk")
        assert h.app_read(CODE_VPN << 12, 18) == bytes(18)

    def test_remap_cloaked_pages_swapped_detected(self, h):
        """Kernel swaps the frames of two cloaked pages: MAC binding
        to the vpn catches it."""
        h.make_cloaked_app()
        a, b = DATA_VPN, DATA_VPN + 1
        h.kmap(b)
        h.app_write(a << 12, b"page a")
        h.app_write(b << 12, b"page b")
        h.kernel_read(a << 12, 1)
        h.kernel_read(b << 12, 1)
        pfn_a, pfn_b = h.frames[a], h.frames[b]
        h.kremap(a, pfn_b)
        h.kremap(b, pfn_a)
        with pytest.raises(IntegrityViolation):
            h.app_read(a << 12, 6)


class TestRegisterProtection:
    def test_registers_scrubbed_on_exit(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        h.cpu.regs["r5"] = 0x5EC12E7  # a secret value
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert h.cpu.regs["r5"] == 0  # kernel sees nothing

    def test_syscall_args_stay_visible(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        h.cpu.regs["r0"] = 42
        h.cpu.regs["r6"] = 0xDEAD
        h.vmm.exit_user(PID, ExitReason.SYSCALL, visible_regs=("r0",))
        assert h.cpu.regs["r0"] == 42
        assert h.cpu.regs["r6"] == 0

    def test_kernel_planted_registers_discarded_on_resume(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        h.cpu.regs["r5"] = 1234
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        h.cpu.regs["r5"] = 0xDEADBEEF  # kernel tries to plant a value
        h.vmm.enter_user(PID, ASID)
        assert h.cpu.regs["r5"] == 1234

    def test_uncloaked_thread_registers_not_scrubbed(self, h):
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        h.cpu.regs["r5"] = 77
        h.vmm.exit_user(999, ExitReason.SYSCALL)
        assert h.cpu.regs["r5"] == 77


class TestForkAndTeardown:
    def test_fork_clones_domain_with_shared_lineage(self, h):
        did = h.make_cloaked_app()
        child_did = h.vmm.notify_fork(PID, PID + 1, ASID + 1)
        assert child_did is not None and child_did != did
        parent = h.vmm.domains.get(did)
        child = h.vmm.domains.get(child_did)
        assert child.lineage_id == parent.lineage_id
        assert child.is_cloaked(DATA_VPN)

    def test_fork_of_uncloaked_parent_is_noop(self, h):
        assert h.vmm.notify_fork(999, 1000, 5) is None

    def test_child_decrypts_parent_data_in_child_address_space(self, h):
        h.make_cloaked_app()
        addr = DATA_VPN << 12
        h.app_write(addr, b"inherited secret")
        h.kernel_read(addr, 1)  # encrypt (what a fork copy would see)

        # Kernel clones the address space: new root, copied frames.
        child_asid, child_pid = ASID + 1, PID + 1
        child_root = h.alloc.alloc()
        h.phys.zero_frame(child_root)
        copies = {}
        for vpn, leaf in h.walker.mapped_vpns(h.root):
            new_pfn = h.alloc.alloc()
            h.phys.write_frame(new_pfn, h.phys.read_frame(leaf.pfn))
            h.walker.map(child_root, vpn, new_pfn, leaf.writable, leaf.user,
                         h.alloc.alloc)
            copies[vpn] = new_pfn
        h.vmm.register_address_space(child_asid, child_root)
        h.vmm.notify_fork(PID, child_pid, child_asid)

        h.vmm.enter_user(child_pid, child_asid)
        assert h.mmu.read(addr, 16) == b"inherited secret"

    def test_thread_exit_scrubs_lineage(self, h):
        h.make_cloaked_app()
        addr = DATA_VPN << 12
        h.app_write(addr, b"ephemeral")
        pfn = h.frames[DATA_VPN]
        h.vmm.notify_thread_exit(PID)
        assert h.phys.read_frame(pfn) == bytes(PAGE_SIZE)
        assert h.vmm.domains.maybe_get(1) is None


class TestHypercallDispatcher:
    def test_replace_swaps_and_returns_the_previous_handler(self):
        dispatcher = HypercallDispatcher()
        original = lambda vmm, caller: "original"    # noqa: E731
        dispatcher.register(Hypercall.GET_IDENTITY, original)
        previous = dispatcher.replace(Hypercall.GET_IDENTITY,
                                      lambda vmm, caller: "replaced")
        assert previous is original
        assert dispatcher.dispatch(None, 1, Hypercall.GET_IDENTITY,
                                   ()) == "replaced"

    def test_replace_of_an_unregistered_number_raises(self):
        dispatcher = HypercallDispatcher()
        with pytest.raises(ValueError, match="PAGE_RECYCLE"):
            dispatcher.replace(Hypercall.PAGE_RECYCLE, lambda vmm, caller: 0)
        with pytest.raises(HypercallError,
                           match="unimplemented hypercall Hypercall.PAGE_RECYCLE"):
            dispatcher.dispatch(None, 1, Hypercall.PAGE_RECYCLE, ())

    def test_duplicate_registration_names_the_member(self):
        dispatcher = HypercallDispatcher()
        dispatcher.register(Hypercall.CLOAK_RANGE, lambda caller: None)
        with pytest.raises(ValueError,
                           match="duplicate handler for Hypercall.CLOAK_RANGE"):
            dispatcher.register(Hypercall.CLOAK_RANGE, lambda caller: None)


class TestHypercallAuthorization:
    def test_cloak_range_requires_cloaked_caller(self, h):
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(HypercallError):
            h.vmm.hypercall(Hypercall.CLOAK_RANGE, (0, 1, ""))

    def test_cloak_init_requires_uncloaked_caller(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        with pytest.raises(HypercallError):
            h.vmm.hypercall(Hypercall.CLOAK_INIT, ("app", IMAGE, PID))

    def test_unregistered_identity_rejected(self, h):
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(HypercallError):
            h.vmm.hypercall(Hypercall.CLOAK_INIT, ("ghost", IMAGE, PID))

    def test_wrong_image_hash_rejected(self, h):
        h.vmm.register_identity("app", IMAGE)
        h.mmu.set_context(ASID, SYSTEM_VIEW, MODE_USER)
        with pytest.raises(IdentityViolation):
            h.vmm.hypercall(
                Hypercall.CLOAK_INIT, ("app", b"trojaned image", PID)
            )

    def test_get_identity(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        from repro.core import crypto

        assert h.vmm.hypercall(Hypercall.GET_IDENTITY) == crypto.hash_image(IMAGE).hex()


class TestPolicies:
    def test_flush_policy_charges_on_view_switch(self):
        h = Harness(VMMConfig(shadow_policy=POLICY_FLUSH))
        h.make_cloaked_app()
        h.app_write(DATA_VPN << 12, b"x")
        before = h.stats.get("vmm.shadow_flushes")
        h.vmm.exit_user(PID, ExitReason.SYSCALL)  # view -> SYSTEM: flush
        h.vmm.enter_user(PID, ASID)               # view -> domain: flush
        assert h.stats.get("vmm.shadow_flushes") >= before + 2

    def test_eager_reencrypt_leaves_no_plaintext(self):
        h = Harness(VMMConfig(eager_reencrypt=True))
        h.make_cloaked_app()
        h.app_write(DATA_VPN << 12, b"secret")
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert h.vmm.metadata.plaintext_frame_count() == 0

    def test_lazy_default_keeps_plaintext_until_touched(self, h):
        h.make_cloaked_app()
        h.app_write(DATA_VPN << 12, b"secret")
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert h.vmm.metadata.plaintext_frame_count() == 1


def test_resource_report(h):
    h.make_cloaked_app()
    h.app_write(DATA_VPN << 12, b"x")
    report = h.vmm.resource_report()
    assert report["domains"] == 1
    assert report["page_metadata_entries"] >= 1
    assert report["page_metadata_bytes"] > 0
    assert report["shadow_entries"] >= 1


class TestFrameCoherence:
    """Every path that changes, zeroes or forgets a mapped frame's cloak
    state must drop that frame's shadow mappings and TLB entries, or a
    stale entry keeps exposing the frame across the change."""

    @staticmethod
    def assert_unmapped(h, gpfn):
        assert h.vmm.shadows.mappings_of_frame(gpfn) == set()
        assert [key for key, entry in h.mmu.tlb.entries()
                if entry.pfn == gpfn] == []

    @staticmethod
    def mapped_plaintext(h, vpn=DATA_VPN):
        """The app writes ``vpn``: its frame holds live plaintext, mapped."""
        h.app_write(vpn << 12, b"live plaintext")
        gpfn = h.frames[vpn]
        assert h.vmm.shadows.mappings_of_frame(gpfn)
        assert any(entry.pfn == gpfn for __, entry in h.mmu.tlb.entries())
        return gpfn

    def test_uncloak_range_drops_the_zeroed_frame(self, h):
        h.make_cloaked_app()
        gpfn = self.mapped_plaintext(h)
        assert h.vmm.hypercall(Hypercall.UNCLOAK_RANGE,
                               (DATA_VPN, DATA_VPN + 16))
        assert h.phys.read_frame(gpfn) == bytes(PAGE_SIZE)
        self.assert_unmapped(h, gpfn)

    def test_page_recycle_drops_the_zeroed_frame(self, h):
        h.make_cloaked_app()
        gpfn = self.mapped_plaintext(h)
        assert h.vmm.hypercall(Hypercall.PAGE_RECYCLE, (DATA_VPN, 1)) == 1
        assert h.phys.read_frame(gpfn) == bytes(PAGE_SIZE)
        self.assert_unmapped(h, gpfn)

    def test_file_unbind_drops_the_sealed_frame(self, h):
        h.make_cloaked_app()
        h.vmm.enter_user(PID, ASID)
        h.vmm.hypercall(Hypercall.FILE_BIND, (DATA_VPN, 7, 0, 1))
        gpfn = self.mapped_plaintext(h)
        assert h.vmm.hypercall(Hypercall.FILE_UNBIND, (DATA_VPN, 1)) == 1
        assert b"live plaintext" not in h.phys.read_frame(gpfn)
        self.assert_unmapped(h, gpfn)

    def test_adopt_image_drops_the_loaders_mapping(self, h):
        """The kernel maps the image page it loaded; adopting the page
        as cloaked plaintext must revoke that system-view mapping."""
        h.make_cloaked_app()
        gpfn = h.frames[CODE_VPN]
        h.phys.write(gpfn, 0, IMAGE)
        assert h.kernel_read(CODE_VPN << 12, len(IMAGE)) == IMAGE
        assert h.vmm.shadows.mappings_of_frame(gpfn)
        h.vmm.enter_user(PID, ASID)
        h.vmm.hypercall(Hypercall.ADOPT_IMAGE, (CODE_VPN << 12, len(IMAGE)))
        self.assert_unmapped(h, gpfn)
        assert h.kernel_read(CODE_VPN << 12, len(IMAGE)) != IMAGE

    def test_eager_exit_drops_every_sealed_frame(self):
        h = Harness(VMMConfig(eager_reencrypt=True))
        h.make_cloaked_app()
        gpfn = self.mapped_plaintext(h)
        h.vmm.exit_user(PID, ExitReason.INTERRUPT)
        assert b"live plaintext" not in h.phys.read_frame(gpfn)
        self.assert_unmapped(h, gpfn)
