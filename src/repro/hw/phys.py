"""Guest-physical memory and frame allocation.

Memory is an array of page frames, each a ``bytearray``.  The cloaking
engine encrypts/decrypts frames *in place*, exactly as Overshadow does
with machine pages: a given frame holds either plaintext (visible to
the owning cloaked application) or ciphertext (what the OS sees).

Snapshots add a second lazy layer under the lazy-zero one: a restored
machine's :class:`PhysicalMemory` starts with **no private frames at
all** — every pfn resolves, in order, to (1) a private ``bytearray``
if the restored machine has written the frame, (2) the snapshot's
shared immutable ``bytes`` image of the frame, or (3) zeros.  Reads
are served from whichever layer holds the frame; the first write
materialises a private copy (a COW fault, counted and probed).  The
shared base entries are immutable ``bytes``, so no restored machine
can ever damage another's view of the snapshot.
"""

from itertools import compress
from typing import List, Optional

from repro.hw.params import PAGE_SIZE
from repro.obs import bus

#: Base layer type: per-pfn immutable frame contents (None = zeros).
BaseFrames = List[Optional[bytes]]

#: What every frame in neither layer reads as: one shared immutable
#: page, handed out by ``read_frame`` instead of a fresh allocation.
ZERO_PAGE = bytes(PAGE_SIZE)


class OutOfMemoryError(Exception):
    """No free guest-physical frames remain."""


class PhysicalMemory:
    """Byte-addressable guest-physical memory, organised as frames.

    Alongside the copying ``read``/``read_frame`` accessors there is a
    zero-copy path: ``frame_view`` hands out a cached *read-only*
    memoryview of a frame, so page-sized consumers (the cloak engine's
    encrypt input, page-table scans) can hash/XOR/unpack in place
    without first materialising a 4 KiB ``bytes`` copy.  Views of
    *materialised* frames stay valid for the machine's lifetime —
    frames are mutated only in place, never resized.  A view of a
    still-COW-shared frame is a view of the immutable snapshot bytes;
    consumers must (and do) use it immediately, before any write to
    the frame can shadow it with a private copy.
    """

    def __init__(self, total_frames: int):
        if total_frames <= 0:
            raise ValueError("need at least one frame")
        # Frames materialise lazily on first touch: a fresh machine
        # costs O(1) host work regardless of configured memory size,
        # and a never-written frame reads as zeros either way.
        self._frames: List[Optional[bytearray]] = [None] * total_frames
        self._views: List[Optional[memoryview]] = [None] * total_frames
        #: COW base layer (restored machines only): pfn -> immutable
        #: snapshot contents, consulted when no private frame exists.
        self._base: Optional[BaseFrames] = None
        #: Private frames materialised from the base layer (restored
        #: machines only; stays 0 on ordinary machines).
        self.cow_faults = 0

    @classmethod
    def from_base(cls, base: BaseFrames) -> "PhysicalMemory":
        """A COW memory over ``base`` (shared immutable frame bytes).

        The per-instance base *list* is copied (so ``zero_frame`` can
        drop entries locally) but the frame ``bytes`` objects are
        shared — restoring from a snapshot is O(frames) pointers, not
        O(frames) pages.
        """
        mem = cls.__new__(cls)
        total = len(base)
        if total <= 0:
            raise ValueError("need at least one frame")
        mem._frames = [None] * total
        mem._views = [None] * total
        mem._base = list(base)
        mem.cow_faults = 0
        return mem

    def freeze_base(self) -> BaseFrames:
        """The current contents of every frame as immutable ``bytes``.

        Composes with an existing base layer: a frame this instance
        never wrote is carried as the *same* shared object, so
        snapshot-of-restored-machine costs only the dirty pages.
        """
        base = self._base
        frozen: BaseFrames = [None] * len(self._frames)
        for pfn, frame in enumerate(self._frames):
            if frame is not None:
                frozen[pfn] = bytes(frame)
            elif base is not None:
                frozen[pfn] = base[pfn]
        return frozen

    @property
    def total_frames(self) -> int:
        return len(self._frames)

    def _check(self, pfn: int) -> None:
        if not 0 <= pfn < len(self._frames):
            raise IndexError(f"bad pfn {pfn}")

    def _materialize(self, pfn: int) -> bytearray:
        frame = self._frames[pfn]
        if frame is None:
            base = self._base
            if base is not None and base[pfn] is not None:
                frame = bytearray(base[pfn])
                self.cow_faults += 1
                if bus.ACTIVE:
                    bus.snapshot_cow_fault(pfn)
            else:
                frame = bytearray(PAGE_SIZE)
            self._frames[pfn] = frame
            self._views[pfn] = memoryview(frame).toreadonly()
        return frame

    def frame(self, pfn: int) -> bytearray:
        """Direct (mutable) access to a frame's backing store.

        Only the VMM's cloak engine and the disk DMA path use this;
        guest software goes through the MMU.
        """
        self._check(pfn)
        return self._materialize(pfn)

    # ``read``, ``write`` and ``frame_view`` are on every guest access
    # or page-table walk, so they check the pfn inline rather than
    # through ``_check``: a negative pfn is refused explicitly (it
    # would otherwise index from the end), and one past the end raises
    # IndexError from the frame-table lookup itself.

    def frame_view(self, pfn: int) -> memoryview:
        """Read-only zero-copy view of one whole frame.

        The view aliases live memory: callers that need a stable
        snapshot (anything stored or compared later) must copy; callers
        that consume the bytes immediately (hashing, XOR, struct
        unpacking) should prefer this over :meth:`read_frame`.
        """
        if pfn < 0:
            raise IndexError(f"bad pfn {pfn}")
        view = self._views[pfn]
        if view is None:
            base = self._base
            if base is not None and base[pfn] is not None:
                # Don't materialise for a read: a fresh view of the
                # shared snapshot bytes, not cached (the first write
                # replaces it with the private frame's view).
                return memoryview(base[pfn])
            self._materialize(pfn)
            view = self._views[pfn]
        return view

    def read(self, pfn: int, offset: int, size: int) -> bytes:
        if pfn < 0:
            raise IndexError(f"bad pfn {pfn}")
        view = self._views[pfn]
        if offset < 0 or size < 0 or offset + size > PAGE_SIZE:
            raise ValueError(f"bad intra-frame range {offset}+{size}")
        if view is None:
            base = self._base
            if base is not None:
                contents = base[pfn]
                if contents is not None:
                    return contents[offset : offset + size]
            return bytes(size)
        return bytes(view[offset : offset + size])

    def write(self, pfn: int, offset: int, data: bytes) -> None:
        if pfn < 0:
            raise IndexError(f"bad pfn {pfn}")
        frame = self._frames[pfn]
        end = offset + len(data)
        if offset < 0 or end > PAGE_SIZE:
            raise ValueError(f"bad intra-frame range {offset}+{len(data)}")
        if frame is None:
            frame = self._materialize(pfn)
        frame[offset:end] = data

    def read_frame(self, pfn: int) -> bytes:
        self._check(pfn)
        frame = self._frames[pfn]
        if frame is None:
            base = self._base
            if base is not None:
                contents = base[pfn]
                if contents is not None:
                    return contents
            return ZERO_PAGE
        return bytes(frame)

    def write_frame(self, pfn: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise ValueError("write_frame needs exactly one page of data")
        self.write(pfn, 0, data)

    def frames_containing(self, needle: bytes) -> List[int]:
        """Pfns, ascending, whose current contents contain ``needle``.

        Raw inspection, layer by layer as :meth:`read_frame` resolves
        them: a private frame is searched in place, a live base entry
        as the shared bytes, and every other frame reads as zeros, so
        whether those match is decided once.  Nothing is materialised,
        copied, counted or probed.  For a needle that is not all zeros
        the cost is one C-speed pass over the frame table plus a search
        of the touched frames only.
        """
        frames = self._frames
        base = self._base
        pfns = range(len(frames))
        # ``compress`` picks out the non-None entries at C speed: a
        # frame or base entry is a non-empty page, hence truthy.
        hits = [pfn for pfn in compress(pfns, frames) if needle in frames[pfn]]
        if base is not None:
            hits += [pfn for pfn in compress(pfns, base)
                     if frames[pfn] is None and needle in base[pfn]]
        if needle in ZERO_PAGE:
            hits += [pfn for pfn in pfns if frames[pfn] is None
                     and (base is None or base[pfn] is None)]
        hits.sort()
        return hits

    def zero_frame(self, pfn: int) -> None:
        self._check(pfn)
        frame = self._frames[pfn]
        if frame is not None:
            frame[:] = ZERO_PAGE
        elif self._base is not None:
            # O(1): an unmaterialised frame zeroes by *dropping* its
            # base entry — no 4 KiB allocation, and only this
            # instance's base list changes (the snapshot's shared
            # bytes are untouched).
            self._base[pfn] = None


class FrameAllocator:
    """Free-list allocator over guest-physical frames.

    The guest kernel owns one of these for general allocation; a small
    region is reserved at boot for the VMM's own use (uncloaked
    marshalling buffers are guest-allocated, so the VMM needs almost
    nothing).

    The allocator never touches frame *contents*: freeing a frame —
    including a COW-shared frame of a restored machine — only moves
    the pfn between the free list and the allocated set.  Contents
    remain readable until the next owner zeroes or overwrites them
    (which, on a restored machine, drops or shadows only that
    machine's private copy; the snapshot base is immutable).
    """

    def __init__(self, total_frames: int, reserved_low: int = 0):
        if reserved_low >= total_frames:
            raise ValueError("reservation exceeds memory size")
        self._free: List[int] = list(range(total_frames - 1, reserved_low - 1, -1))
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
        if not self._free:
            raise OutOfMemoryError("no free frames")
        pfn = self._free.pop()
        self._allocated.add(pfn)
        return pfn

    def free(self, pfn: int) -> None:
        if pfn not in self._allocated:
            raise ValueError(f"double free or foreign frame: {pfn}")
        self._allocated.remove(pfn)
        self._free.append(pfn)

    def is_allocated(self, pfn: int) -> bool:
        return pfn in self._allocated
