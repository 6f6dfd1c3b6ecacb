"""The free stack pops exactly what a descending free list would pop.

Frames and disk blocks are handed out from a :class:`FreeStack`, which
keeps only returned items over an ascending watermark.  Allocation
order, and with it every virtual cycle, depends on it popping the
same sequence as the memory-sized ``list(range(end - 1, low - 1, -1))``
it stands in for, under any pops and returns, exhaustion included.
"""

from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from repro.guestos.blockcache import BlockCache, PassthroughDMA
from repro.hw.disk import Disk
from repro.hw.params import PAGE_SIZE
from repro.hw.phys import (FrameAllocator, FreeStack, OutOfMemoryError,
                           PhysicalMemory)

#: One op: ``None`` pops; an int returns the held item at that index
#: (modulo how many are held), or pops when nothing is held.
OPS = st.lists(st.one_of(st.none(), st.integers(0, 63)), max_size=80)


def _drive(low, end, ops, take, give, free_count, exhausted, match=None):
    """Run ``ops`` on an allocator and on the list model side by side."""
    model = list(range(end - 1, low - 1, -1))
    held = []
    for op in ops:
        if op is None or not held:
            if not model:
                with pytest.raises(exhausted, match=match):
                    take()
            else:
                expected = model.pop()
                assert take() == expected
                held.append(expected)
        else:
            item = held.pop(op % len(held))
            give(item)
            model.append(item)
        assert free_count() == len(model)


@settings(max_examples=60, deadline=None)
@given(low=st.integers(0, 8), size=st.integers(0, 12), ops=OPS)
def test_free_stack_pops_like_a_descending_list(low, size, ops):
    stack = FreeStack(low, low + size)
    _drive(low, low + size, ops, stack.pop, stack.append,
           lambda: len(stack), IndexError)


@settings(max_examples=60, deadline=None)
@given(low=st.integers(0, 8), size=st.integers(1, 12), ops=OPS)
def test_frame_allocator_allocates_like_a_descending_list(low, size, ops):
    alloc = FrameAllocator(low + size, reserved_low=low)
    _drive(low, low + size, ops, alloc.alloc, alloc.free,
           lambda: alloc.free_count, OutOfMemoryError)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 12), ops=OPS)
def test_block_cache_allocates_like_a_descending_list(size, ops):
    cache = BlockCache(Disk(size, PAGE_SIZE),
                       PassthroughDMA(PhysicalMemory(1)))
    fresh_inode = count(1)
    inodes = {}

    def take():
        inode = next(fresh_inode)
        lba = cache.writeback_page(inode, 0, 0)
        inodes[lba] = inode
        return lba

    def give(lba):
        assert cache.drop_page(inodes.pop(lba), 0)

    _drive(0, size, ops, take, give, lambda: cache.free_blocks, OSError,
           match="disk full")


def test_an_empty_range_is_refused():
    with pytest.raises(ValueError):
        FreeStack(3, 2)
