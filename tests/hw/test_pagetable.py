"""Unit and property tests for guest page tables in physical memory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.faults import AccessKind
from repro.hw.pagetable import (
    ENTRIES_PER_TABLE,
    PageTableEntry,
    PageTableWalker,
    split_vpn,
)
from repro.hw.phys import FrameAllocator, PhysicalMemory


@pytest.fixture
def setup():
    phys = PhysicalMemory(128)
    alloc = FrameAllocator(128)
    walker = PageTableWalker(phys)
    root = alloc.alloc()
    phys.zero_frame(root)
    return phys, alloc, walker, root


def test_pte_encode_decode_roundtrip():
    entry = PageTableEntry(pfn=0x1234, present=True, writable=True,
                           user=False, accessed=True, dirty=False)
    assert PageTableEntry.decode(entry.encode()) == entry


@given(
    pfn=st.integers(min_value=0, max_value=(1 << 20) - 1),
    flags=st.lists(st.booleans(), min_size=5, max_size=5),
)
def test_pte_roundtrip_property(pfn, flags):
    entry = PageTableEntry(pfn, *flags)
    decoded = PageTableEntry.decode(entry.encode())
    assert decoded == entry
    assert decoded.pfn == pfn


def test_split_vpn():
    assert split_vpn(0) == (0, 0)
    assert split_vpn(0x3FF) == (0, 0x3FF)
    assert split_vpn(0x400) == (1, 0)
    assert split_vpn((5 << 10) | 7) == (5, 7)


class TestWalker:
    def test_unmapped_returns_none(self, setup):
        __, __, walker, root = setup
        assert walker.walk(root, 0x123) is None

    def test_map_then_walk(self, setup):
        __, alloc, walker, root = setup
        walker.map(root, vpn=0x42, pfn=77, writable=True, user=True,
                   alloc_table=alloc.alloc)
        leaf = walker.walk(root, 0x42)
        assert leaf is not None
        assert leaf.pfn == 77
        assert leaf.writable and leaf.user

    def test_map_allocates_table_once_per_directory(self, setup):
        __, alloc, walker, root = setup
        before = alloc.used_count
        walker.map(root, 0, 10, True, True, alloc.alloc)
        walker.map(root, 1, 11, True, True, alloc.alloc)
        assert alloc.used_count == before + 1  # same second-level table
        walker.map(root, 1 << 10, 12, True, True, alloc.alloc)
        assert alloc.used_count == before + 2  # new directory slot

    def test_unmap(self, setup):
        __, alloc, walker, root = setup
        walker.map(root, 5, 9, True, True, alloc.alloc)
        old = walker.unmap(root, 5)
        assert old is not None and old.pfn == 9
        assert walker.walk(root, 5) is None
        assert walker.unmap(root, 5) is None

    def test_accessed_dirty_bits(self, setup):
        __, alloc, walker, root = setup
        walker.map(root, 3, 8, True, True, alloc.alloc)
        leaf = walker.walk(root, 3)
        assert not leaf.accessed and not leaf.dirty
        walker.walk(root, 3, AccessKind.READ)
        leaf = walker.walk(root, 3)
        assert leaf.accessed and not leaf.dirty
        walker.walk(root, 3, AccessKind.WRITE)
        leaf = walker.walk(root, 3)
        assert leaf.dirty

    def test_write_walk_leaves_read_only_leaf_clean(self, setup):
        """x86: D is set only when the write will be permitted."""
        __, alloc, walker, root = setup
        walker.map(root, 3, 8, False, True, alloc.alloc)
        leaf = walker.walk(root, 3, AccessKind.WRITE)
        assert leaf.accessed and not leaf.dirty
        assert not walker.walk(root, 3).dirty

    def test_set_writable(self, setup):
        __, alloc, walker, root = setup
        walker.map(root, 3, 8, writable=True, user=True, alloc_table=alloc.alloc)
        walker.set_writable(root, 3, False)
        assert not walker.walk(root, 3).writable
        walker.set_writable(root, 3, True)
        assert walker.walk(root, 3).writable

    def test_set_writable_unmapped_raises(self, setup):
        __, __, walker, root = setup
        with pytest.raises(KeyError):
            walker.set_writable(root, 3, False)

    def test_mapped_vpns_enumeration(self, setup):
        __, alloc, walker, root = setup
        vpns = [0, 1, 0x400, 0x7FF, (3 << 10) | 5]
        for i, vpn in enumerate(vpns):
            walker.map(root, vpn, 100 + i, True, True, alloc.alloc)
        found = dict(walker.mapped_vpns(root))
        assert sorted(found) == sorted(vpns)
        assert found[0x400].pfn == 102

    def test_tables_are_real_memory(self, setup):
        """Corrupting the table page in memory corrupts translation."""
        phys, alloc, walker, root = setup
        walker.map(root, 0x42, 77, True, True, alloc.alloc)
        # Find the second-level table and zero it behind the walker's back.
        table_pfn = next(walker.table_frames(root))
        phys.zero_frame(table_pfn)
        assert walker.walk(root, 0x42) is None

    def test_bad_index_rejected(self, setup):
        __, __, walker, root = setup
        with pytest.raises(IndexError):
            walker.read_entry(root, ENTRIES_PER_TABLE)
        with pytest.raises(IndexError):
            walker.write_entry(root, -1, PageTableEntry())


@settings(max_examples=30)
@given(
    mappings=st.dictionaries(
        st.integers(min_value=0, max_value=(1 << 20) - 1),
        st.integers(min_value=0, max_value=500),
        min_size=1,
        max_size=30,
    )
)
def test_walker_matches_dict_model(mappings):
    """The in-memory table agrees with a plain dict model."""
    phys = PhysicalMemory(256)
    alloc = FrameAllocator(256)
    walker = PageTableWalker(phys)
    root = alloc.alloc()
    phys.zero_frame(root)
    for vpn, pfn in mappings.items():
        walker.map(root, vpn, pfn, writable=True, user=True, alloc_table=alloc.alloc)
    for vpn, pfn in mappings.items():
        leaf = walker.walk(root, vpn)
        assert leaf is not None and leaf.pfn == pfn
    assert dict((v, e.pfn) for v, e in walker.mapped_vpns(root)) == mappings
