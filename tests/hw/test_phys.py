"""Unit tests for physical memory and the frame allocator."""

import pytest

from repro.hw.params import PAGE_SIZE
from repro.hw.phys import (ZERO_PAGE, FrameAllocator, OutOfMemoryError,
                           PhysicalMemory)


class TestPhysicalMemory:
    def test_starts_zeroed(self):
        mem = PhysicalMemory(4)
        assert mem.read_frame(0) == bytes(PAGE_SIZE)

    def test_unwritten_frames_share_one_zero_page(self):
        mem = PhysicalMemory(4)
        assert mem.read_frame(0) is ZERO_PAGE
        assert mem.read_frame(3) is ZERO_PAGE
        assert 0 not in mem._frames         # reading materialised nothing

    def test_read_write_roundtrip(self):
        mem = PhysicalMemory(4)
        mem.write(2, 100, b"hello")
        assert mem.read(2, 100, 5) == b"hello"

    def test_write_does_not_leak_to_other_frames(self):
        mem = PhysicalMemory(4)
        mem.write(1, 0, b"\xff" * PAGE_SIZE)
        assert mem.read_frame(0) == bytes(PAGE_SIZE)
        assert mem.read_frame(2) == bytes(PAGE_SIZE)

    def test_whole_frame_roundtrip(self):
        mem = PhysicalMemory(2)
        data = bytes(range(256)) * (PAGE_SIZE // 256)
        mem.write_frame(1, data)
        assert mem.read_frame(1) == data

    def test_zero_frame(self):
        mem = PhysicalMemory(2)
        mem.write(0, 0, b"secret")
        mem.zero_frame(0)
        assert mem.read_frame(0) == bytes(PAGE_SIZE)

    def test_zero_frame_of_an_untouched_frame_materialises_nothing(self):
        mem = PhysicalMemory(2)
        mem.zero_frame(1)
        assert 1 not in mem._frames
        assert mem.read_frame(1) is ZERO_PAGE

    def test_frame_mutable_view_aliases_storage(self):
        mem = PhysicalMemory(2)
        frame = mem.frame(1)
        frame[0:3] = b"abc"
        assert mem.read(1, 0, 3) == b"abc"

    def test_bad_pfn_rejected(self):
        mem = PhysicalMemory(2)
        for pfn in (-1, 2):  # negative, and one past the end
            with pytest.raises(IndexError):
                mem.read(pfn, 0, 1)
            with pytest.raises(IndexError):
                mem.write(pfn, 0, b"x")

    def test_cross_frame_range_rejected(self):
        mem = PhysicalMemory(2)
        with pytest.raises(ValueError):
            mem.read(0, PAGE_SIZE - 2, 4)
        with pytest.raises(ValueError):
            mem.write(0, PAGE_SIZE - 1, b"ab")

    def test_write_frame_size_checked(self):
        mem = PhysicalMemory(1)
        with pytest.raises(ValueError):
            mem.write_frame(0, b"short")

    def test_zero_frames_invalid(self):
        with pytest.raises(ValueError):
            PhysicalMemory(0)


class TestFrameAllocator:
    def test_alloc_unique(self):
        alloc = FrameAllocator(16)
        frames = [alloc.alloc() for _ in range(16)]
        assert len(set(frames)) == 16

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(2)
        alloc.alloc()
        alloc.alloc()
        with pytest.raises(OutOfMemoryError):
            alloc.alloc()

    def test_free_recycles(self):
        alloc = FrameAllocator(1)
        pfn = alloc.alloc()
        alloc.free(pfn)
        assert alloc.alloc() == pfn

    def test_double_free_rejected(self):
        alloc = FrameAllocator(2)
        pfn = alloc.alloc()
        alloc.free(pfn)
        with pytest.raises(ValueError):
            alloc.free(pfn)

    def test_free_never_touches_frame_contents(self):
        """The allocator moves pfns; the memory layer owns contents,
        which stay readable until the next owner zeroes the frame."""
        mem = PhysicalMemory(2)
        alloc = FrameAllocator(2)
        pfn = alloc.alloc()
        mem.write(pfn, 0, b"still here")
        alloc.free(pfn)
        assert mem.read(pfn, 0, 10) == b"still here"
        mem.zero_frame(pfn)
        assert mem.read_frame(pfn) == bytes(PAGE_SIZE)

    def test_free_foreign_frame_rejected(self):
        alloc = FrameAllocator(4)
        with pytest.raises(ValueError):
            alloc.free(3)

    def test_reservation_excluded(self):
        alloc = FrameAllocator(8, reserved_low=4)
        frames = [alloc.alloc() for _ in range(alloc.free_count)]
        assert all(pfn >= 4 for pfn in frames)

    def test_reservation_exceeding_memory_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(4, reserved_low=4)

    def test_counters(self):
        alloc = FrameAllocator(4)
        assert alloc.free_count == 4
        pfn = alloc.alloc()
        assert alloc.free_count == 3
        assert alloc.used_count == 1
        assert alloc.is_allocated(pfn)
        alloc.free(pfn)
        assert alloc.used_count == 0
