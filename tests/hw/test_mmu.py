"""Unit tests for the MMU, using a stub translation authority."""

import pytest

from repro.hw.cycles import CycleAccount
from repro.hw.faults import AccessKind, PageFault, PageFaultReason
from repro.hw.mmu import MMU, MODE_KERNEL, MODE_USER, SYSTEM_VIEW, TranslationAuthority
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import SoftwareTLB, TLBEntry


class DictAuthority(TranslationAuthority):
    """Maps (asid, vpn) -> (pfn, writable, user) from a plain dict."""

    def __init__(self, mappings):
        self.mappings = mappings
        self.fills = 0

    def fill(self, asid, view, vpn, access, mode):
        self.fills += 1
        try:
            pfn, writable, user = self.mappings[(asid, vpn)]
        except KeyError:
            raise PageFault(vpn << 12, access, PageFaultReason.NOT_PRESENT)
        return TLBEntry(vpn, pfn, writable, user, dirty=access.is_write)


@pytest.fixture
def machine():
    phys = PhysicalMemory(32)
    cycles = CycleAccount()
    tlb = SoftwareTLB(16)
    mmu = MMU(phys, tlb, cycles, CostTable())
    authority = DictAuthority({
        (1, 0x10): (4, True, True),
        (1, 0x11): (5, True, True),
        (1, 0x20): (6, False, True),   # read-only
        (1, 0x30): (7, True, False),   # supervisor-only
    })
    mmu.attach_authority(authority)
    mmu.set_context(1, SYSTEM_VIEW, MODE_USER)
    return phys, mmu, authority, cycles


class TestTranslation:
    def test_read_write_roundtrip(self, machine):
        __, mmu, __, __ = machine
        addr = 0x10 << 12 | 0x100
        mmu.write(addr, b"overshadow")
        assert mmu.read(addr, 10) == b"overshadow"

    def test_unmapped_faults(self, machine):
        __, mmu, __, __ = machine
        with pytest.raises(PageFault) as exc:
            mmu.read(0x99 << 12, 1)
        assert exc.value.reason is PageFaultReason.NOT_PRESENT

    def test_write_to_readonly_faults(self, machine):
        __, mmu, __, __ = machine
        with pytest.raises(PageFault) as exc:
            mmu.write(0x20 << 12, b"x")
        assert exc.value.reason is PageFaultReason.PROTECTION

    def test_read_of_readonly_allowed(self, machine):
        __, mmu, __, __ = machine
        assert mmu.read(0x20 << 12, 4) == bytes(4)

    def test_user_cannot_touch_supervisor_page(self, machine):
        __, mmu, __, __ = machine
        with pytest.raises(PageFault) as exc:
            mmu.read(0x30 << 12, 1)
        assert exc.value.reason is PageFaultReason.USER_SUPERVISOR

    def test_kernel_can_touch_supervisor_page(self, machine):
        __, mmu, __, __ = machine
        mmu.set_context(1, SYSTEM_VIEW, MODE_KERNEL)
        assert mmu.read(0x30 << 12, 1) == b"\x00"

    def test_cross_page_read_write(self, machine):
        """An access spanning 0x10 and 0x11 touches both frames."""
        phys, mmu, __, __ = machine
        base = (0x10 << 12) + PAGE_SIZE - 3
        mmu.write(base, b"abcdef")
        assert phys.read(4, PAGE_SIZE - 3, 3) == b"abc"
        assert phys.read(5, 0, 3) == b"def"
        assert mmu.read(base, 6) == b"abcdef"

    def test_translate_returns_physical_address(self, machine):
        __, mmu, __, __ = machine
        assert mmu.translate(0x10 << 12 | 0xAB, AccessKind.READ) == (4 << 12) | 0xAB


class TestTLBInteraction:
    def test_fill_happens_once_per_page(self, machine):
        __, mmu, authority, __ = machine
        mmu.read(0x10 << 12, 4)
        mmu.read(0x10 << 12 | 8, 4)
        assert authority.fills == 1

    def test_write_after_read_refills_for_dirty_bit(self, machine):
        """A clean TLB entry must be refilled on the first write."""
        __, mmu, authority, __ = machine
        mmu.read(0x10 << 12, 4)
        assert authority.fills == 1
        mmu.write(0x10 << 12, b"x")
        assert authority.fills == 2
        mmu.write(0x10 << 12, b"y")  # now dirty, no refill
        assert authority.fills == 2

    def test_invalidate_forces_refill(self, machine):
        __, mmu, authority, __ = machine
        mmu.read(0x10 << 12, 4)
        mmu.invalidate_page(0x10)
        mmu.read(0x10 << 12, 4)
        assert authority.fills == 2

    def test_authority_change_visible_after_invalidate(self, machine):
        phys, mmu, authority, __ = machine
        mmu.read(0x10 << 12, 4)
        authority.mappings[(1, 0x10)] = (9, True, True)
        # Stale until invalidated — TLBs are not coherent.
        assert mmu.translate(0x10 << 12, AccessKind.READ) == 4 << 12
        mmu.invalidate_page(0x10)
        assert mmu.translate(0x10 << 12, AccessKind.READ) == 9 << 12


class TestCycleCharging:
    def test_reads_charge_mem(self, machine):
        __, mmu, __, cycles = machine
        mmu.read(0x10 << 12, 8)
        assert cycles.get("mem") > 0

    def test_miss_charges_mmu(self, machine):
        __, mmu, __, cycles = machine
        mmu.read(0x10 << 12, 8)
        miss_cost = cycles.get("mmu")
        assert miss_cost > 0
        mmu.read(0x10 << 12, 8)
        assert cycles.get("mmu") == miss_cost  # hit adds nothing

    def test_bulk_copy_charges_per_byte(self, machine):
        __, mmu, __, cycles = machine
        before = cycles.get("mem")
        mmu.read(0x10 << 12, 4096)
        big = cycles.get("mem") - before
        before = cycles.get("mem")
        mmu.read(0x10 << 12, 8)
        small = cycles.get("mem") - before
        assert big > small


class TestZeroLengthAccess:
    """Zero-length accesses never translate (so they cannot fault) but
    still cost one memory operation, like any other access."""

    def test_zero_read_skips_translation(self, machine):
        __, mmu, authority, cycles = machine
        # 0x99 is unmapped: a translated access would page-fault.
        assert mmu.read(0x99 << 12, 0) == b""
        assert authority.fills == 0
        assert cycles.get("mem") == CostTable().mem_access

    def test_zero_write_skips_translation(self, machine):
        __, mmu, authority, cycles = machine
        mmu.write(0x99 << 12, b"")
        assert authority.fills == 0
        assert cycles.get("mem") == CostTable().mem_access

    def test_negative_read_rejected(self, machine):
        __, mmu, __, __ = machine
        with pytest.raises(ValueError):
            mmu.read(0x10 << 12, -1)

    def test_split_yields_nothing_for_zero(self):
        assert list(MMU._split(0x1234, 0)) == []


class TestSinglePageFastPath:
    """The single-page read/write shortcut must agree with the
    general splitting path on boundaries."""

    def test_exact_page_read(self, machine):
        __, mmu, authority, __ = machine
        mmu.write(0x10 << 12, b"A" * PAGE_SIZE)
        assert mmu.read(0x10 << 12, PAGE_SIZE) == b"A" * PAGE_SIZE
        assert authority.fills == 1  # write fill (dirty), read then hits

    def test_read_up_to_page_end(self, machine):
        __, mmu, __, __ = machine
        mmu.write((0x10 << 12) + PAGE_SIZE - 4, b"tail")
        assert mmu.read((0x10 << 12) + PAGE_SIZE - 4, 4) == b"tail"

    def test_cross_page_read_still_splits(self, machine):
        __, mmu, authority, __ = machine
        mmu.write((0x10 << 12) + PAGE_SIZE - 2, b"ab")
        mmu.write(0x11 << 12, b"cd")
        assert mmu.read((0x10 << 12) + PAGE_SIZE - 2, 4) == b"abcd"
        assert authority.fills == 2  # one fill per page, reads hit


def test_no_authority_is_an_error():
    mmu = MMU(PhysicalMemory(1), SoftwareTLB(4), CycleAccount(), CostTable())
    with pytest.raises(RuntimeError):
        mmu.read(0, 1)
