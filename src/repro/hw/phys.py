"""Guest-physical memory and frame allocation.

Memory is a set of page frames, each a ``bytearray``.  The cloaking
engine encrypts/decrypts frames *in place*, exactly as Overshadow does
with machine pages: a given frame holds either plaintext (visible to
the owning cloaked application) or ciphertext (what the OS sees).

Only touched frames exist.  A machine's frames live in a dict keyed
by pfn, filled when a frame is first written or viewed, so booting a
machine, snapshotting or restoring it, and every pass of Python's
garbage collector cost O(touched frames), not O(configured memory).
A frame that was never touched reads as zeros.
"""

from typing import Dict, List

from repro.hw.params import PAGE_SIZE

#: What every untouched frame reads as: one shared immutable page,
#: handed out by ``read_frame`` instead of a fresh allocation.
ZERO_PAGE = bytes(PAGE_SIZE)


class OutOfMemoryError(Exception):
    """No free guest-physical frames remain."""


class PhysicalMemory:
    """Byte-addressable guest-physical memory, organised as frames.

    Alongside the copying ``read``/``read_frame`` accessors there is a
    zero-copy path: ``frame_view`` hands out a cached *read-only*
    memoryview of a frame, so page-sized consumers (the cloak engine's
    encrypt input, page-table scans) can hash/XOR/unpack in place
    without first materialising a 4 KiB ``bytes`` copy.  Views stay
    valid for the machine's lifetime — frames are mutated only in
    place, never resized.

    Pickling carries the touched frames by value (a machine snapshot
    is one pickle, :mod:`repro.hw.snapshot`); the views are rebuilt on
    unpickling.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ValueError("need at least one frame")
        self._total = total_frames
        # Frames materialise lazily on first touch: a fresh machine
        # costs O(1) host work regardless of configured memory size,
        # and a never-written frame reads as zeros either way.
        self._frames: Dict[int, bytearray] = {}
        self._views: Dict[int, memoryview] = {}

    def __getstate__(self):
        return self._total, self._frames

    def __setstate__(self, state) -> None:
        self._total, self._frames = state
        self._views = {pfn: memoryview(frame).toreadonly()
                       for pfn, frame in self._frames.items()}

    @property
    def total_frames(self) -> int:
        return self._total

    @property
    def touched_frames(self) -> int:
        """How many frames have materialised (and a snapshot carries)."""
        return len(self._frames)

    def _check(self, pfn: int) -> None:
        if not 0 <= pfn < self._total:
            raise IndexError(f"bad pfn {pfn}")

    def _materialize(self, pfn: int) -> bytearray:
        """A zeroed frame for untouched ``pfn`` (checked by the caller)."""
        frame = self._frames[pfn] = bytearray(PAGE_SIZE)
        self._views[pfn] = memoryview(frame).toreadonly()
        return frame

    # Every accessor indexes the frame dicts first and checks the pfn
    # only on a miss: only valid pfns ever materialise, so the check
    # stays off the path of every guest access and page-table walk
    # that hits a written frame.  A miss (a few percent of accesses on
    # every workload) pays for the KeyError; a hit pays no call.

    def frame(self, pfn: int) -> bytearray:
        """Direct (mutable) access to a frame's backing store.

        Only the VMM's cloak engine and the disk DMA path use this;
        guest software goes through the MMU.
        """
        try:
            return self._frames[pfn]
        except KeyError:
            pass
        self._check(pfn)
        return self._materialize(pfn)

    def frame_view(self, pfn: int) -> memoryview:
        """Read-only zero-copy view of one whole frame.

        The view aliases live memory: callers that need a stable
        snapshot (anything stored or compared later) must copy; callers
        that consume the bytes immediately (hashing, XOR, struct
        unpacking) should prefer this over :meth:`read_frame`.
        """
        try:
            return self._views[pfn]
        except KeyError:
            pass
        self._check(pfn)
        self._materialize(pfn)
        return self._views[pfn]

    def read(self, pfn: int, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0 or offset + size > PAGE_SIZE:
            raise ValueError(f"bad intra-frame range {offset}+{size}")
        try:
            return bytes(self._views[pfn][offset : offset + size])
        except KeyError:
            pass
        self._check(pfn)
        return ZERO_PAGE[offset : offset + size]

    def write(self, pfn: int, offset: int, data: bytes) -> None:
        end = offset + len(data)
        if offset < 0 or end > PAGE_SIZE:
            raise ValueError(f"bad intra-frame range {offset}+{len(data)}")
        try:
            self._frames[pfn][offset:end] = data
            return
        except KeyError:
            pass
        self._check(pfn)
        self._materialize(pfn)[offset:end] = data

    def read_frame(self, pfn: int) -> bytes:
        try:
            return bytes(self._frames[pfn])
        except KeyError:
            pass
        self._check(pfn)
        return ZERO_PAGE

    def write_frame(self, pfn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError("write_frame needs exactly one page of data")
        self.write(pfn, 0, data)

    def frames_containing(self, needle: bytes) -> List[int]:
        """Pfns, ascending, whose current contents contain ``needle``.

        Raw inspection: each touched frame is searched in place, and
        every other frame reads as zeros, so whether those match is
        decided once.  Nothing is materialised, copied or probed.  For
        a needle that is not all zeros the cost is a search of the
        touched frames only.
        """
        frames = self._frames
        hits = [pfn for pfn, frame in frames.items() if needle in frame]
        if needle in ZERO_PAGE:
            hits += [pfn for pfn in range(self._total) if pfn not in frames]
        hits.sort()
        return hits

    def zero_frame(self, pfn: int) -> None:
        self._check(pfn)
        frame = self._frames.get(pfn)
        if frame is not None:
            frame[:] = ZERO_PAGE


class FreeStack:
    """A LIFO free list of the integers ``low .. end - 1``, kept sparse.

    Pops exactly what ``list(range(end - 1, low - 1, -1))`` would pop
    under the same pops and appends: the most recently returned item
    first, and otherwise the lowest item never handed out, read off an
    ascending watermark.  It holds only returned items, so a fresh or
    restored allocator costs O(items returned), not O(end - low).
    """

    def __init__(self, low: int, end: int):
        if low > end:
            raise ValueError(f"empty range {low}..{end}")
        self._returned: List[int] = []
        self._next = low
        self._end = end

    def __len__(self) -> int:
        return len(self._returned) + self._end - self._next

    def pop(self) -> int:
        returned = self._returned
        if returned:
            return returned.pop()
        item = self._next
        if item >= self._end:
            raise IndexError("pop from an empty free stack")
        self._next = item + 1
        return item

    def append(self, item: int) -> None:
        self._returned.append(item)


class FrameAllocator:
    """Free-stack allocator over guest-physical frames.

    The guest kernel owns one of these for general allocation; a small
    region is reserved at boot for the VMM's own use (uncloaked
    marshalling buffers are guest-allocated, so the VMM needs almost
    nothing).

    The allocator never touches frame *contents*: freeing a frame only
    moves the pfn between the free stack and the allocated set.
    Contents remain readable until the next owner zeroes or overwrites
    them.
    """

    def __init__(self, total_frames: int, reserved_low: int = 0):
        if reserved_low >= total_frames:
            raise ValueError("reservation exceeds memory size")
        self._free = FreeStack(reserved_low, total_frames)
        self._total = total_frames - reserved_low
        self._allocated = set()

    @property
    def free_count(self) -> int:
        return len(self._free)

    @property
    def used_count(self) -> int:
        return len(self._allocated)

    def alloc(self) -> int:
        """Allocate one frame; raises :class:`OutOfMemoryError` when full."""
        try:
            pfn = self._free.pop()
        except IndexError:
            raise OutOfMemoryError("no free frames") from None
        self._allocated.add(pfn)
        return pfn

    def free(self, pfn: int) -> None:
        if pfn not in self._allocated:
            raise ValueError(f"double free or foreign frame: {pfn}")
        self._allocated.remove(pfn)
        self._free.append(pfn)

    def is_allocated(self, pfn: int) -> bool:
        return pfn in self._allocated
