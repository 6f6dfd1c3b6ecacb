"""Unit tests for the tagged software TLB."""

import pytest

from repro.hw.tlb import SoftwareTLB, TLBEntry


def entry(vpn, pfn=1, writable=True, user=True, dirty=False):
    return TLBEntry(vpn, pfn, writable, user, dirty)


class TestLookupInsert:
    def test_miss_then_hit(self):
        tlb = SoftwareTLB(4)
        assert tlb.lookup(1, 0, 0x10) is None
        tlb.insert(1, 0, entry(0x10, pfn=42))
        hit = tlb.lookup(1, 0, 0x10)
        assert hit is not None and hit.pfn == 42
        assert tlb.hits == 1 and tlb.misses == 1

    def test_view_tag_separates_translations(self):
        """The same (asid, vpn) can cache different entries per view."""
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10, pfn=5, writable=False))
        tlb.insert(1, 7, entry(0x10, pfn=5, writable=True))
        assert not tlb.lookup(1, 0, 0x10).writable
        assert tlb.lookup(1, 7, 0x10).writable

    def test_asid_tag_separates_address_spaces(self):
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10, pfn=5))
        assert tlb.lookup(2, 0, 0x10) is None

    def test_reinsert_updates(self):
        tlb = SoftwareTLB(4)
        tlb.insert(1, 0, entry(0x10, pfn=5))
        tlb.insert(1, 0, entry(0x10, pfn=6))
        assert tlb.lookup(1, 0, 0x10).pfn == 6
        assert len(tlb) == 1


class TestEviction:
    def test_lru_eviction(self):
        tlb = SoftwareTLB(2)
        tlb.insert(1, 0, entry(0xA))
        tlb.insert(1, 0, entry(0xB))
        tlb.lookup(1, 0, 0xA)  # A is now most recent
        tlb.insert(1, 0, entry(0xC))  # evicts B
        assert tlb.lookup(1, 0, 0xA) is not None
        assert tlb.lookup(1, 0, 0xB) is None
        assert tlb.lookup(1, 0, 0xC) is not None

    def test_capacity_bounded(self):
        tlb = SoftwareTLB(16)
        for vpn in range(100):
            tlb.insert(1, 0, entry(vpn))
        assert len(tlb) == 16

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            SoftwareTLB(0)


class TestInvalidation:
    def test_invalidate_page_all_tags(self):
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10))
        tlb.insert(1, 3, entry(0x10))
        tlb.insert(2, 0, entry(0x10))
        tlb.insert(1, 0, entry(0x11))
        assert tlb.invalidate_page(0x10) == 3
        assert tlb.lookup(1, 0, 0x11) is not None

    def test_invalidate_page_single_asid(self):
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10))
        tlb.insert(2, 0, entry(0x10))
        assert tlb.invalidate_page(0x10, asid=1) == 1
        assert tlb.lookup(2, 0, 0x10) is not None

    def test_invalidate_asid(self):
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10))
        tlb.insert(1, 5, entry(0x11))
        tlb.insert(2, 0, entry(0x12))
        assert tlb.invalidate_asid(1) == 2
        assert tlb.lookup(2, 0, 0x12) is not None

    def test_flush(self):
        tlb = SoftwareTLB(8)
        tlb.insert(1, 0, entry(0x10))
        tlb.flush()
        assert len(tlb) == 0


def test_hit_rate():
    tlb = SoftwareTLB(4)
    tlb.insert(1, 0, entry(0x10))
    tlb.lookup(1, 0, 0x10)
    tlb.lookup(1, 0, 0x11)
    assert tlb.hit_rate == 0.5
