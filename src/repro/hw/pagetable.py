"""Guest page tables, stored in guest-physical memory.

The format is a simplified x86-style two-level table: a root page
(analogous to the page directory named by CR3) of 1024 entries, each
naming a second-level table page of 1024 entries, each mapping one
4 KiB page.  Entries are 32-bit little-endian words::

    bits 31..12   page frame number
    bit 4         DIRTY     (set by hardware on write)
    bit 3         ACCESSED  (set by hardware on any access)
    bit 2         USER      (user mode may access)
    bit 1         WRITE     (writes allowed)
    bit 0         PRESENT

Keeping the tables in simulated physical memory (rather than in Python
dicts) matters for fidelity: the guest kernel edits them with ordinary
stores, walk costs are charged per level by the MMU/VMM on the faulting
path, and the VMM's shadow page tables are genuinely derived state that
can go stale — which is what multi-shadowing has to manage.
"""

import struct
from typing import Optional, Tuple

from repro.hw.faults import AccessKind
from repro.hw.params import PAGE_SIZE
from repro.hw.phys import PhysicalMemory

PTE_SIZE = 4
ENTRIES_PER_TABLE = PAGE_SIZE // PTE_SIZE

#: Whole-table decode: one struct call per 1024-entry table page
#: instead of 1024 per-entry physical reads (used by the scanning
#: iterators below; single-entry access stays on read_entry).
_TABLE = struct.Struct(f"<{ENTRIES_PER_TABLE}I")

FLAG_PRESENT = 1 << 0
FLAG_WRITE = 1 << 1
FLAG_USER = 1 << 2
FLAG_ACCESSED = 1 << 3
FLAG_DIRTY = 1 << 4

_PTE = struct.Struct("<I")

_WRITE = AccessKind.WRITE


class PageTableEntry:
    """Decoded view of one PTE word."""

    __slots__ = ("pfn", "present", "writable", "user", "accessed", "dirty")

    def __init__(
        self,
        pfn: int = 0,
        present: bool = False,
        writable: bool = False,
        user: bool = False,
        accessed: bool = False,
        dirty: bool = False,
    ):
        self.pfn = pfn
        self.present = present
        self.writable = writable
        self.user = user
        self.accessed = accessed
        self.dirty = dirty

    @classmethod
    def decode(cls, word: int) -> "PageTableEntry":
        # Every shadow fill decodes one leaf: fill the slots directly
        # rather than through ``__init__``'s keyword arguments.
        pte = cls.__new__(cls)
        pte.pfn = word >> 12
        pte.present = bool(word & FLAG_PRESENT)
        pte.writable = bool(word & FLAG_WRITE)
        pte.user = bool(word & FLAG_USER)
        pte.accessed = bool(word & FLAG_ACCESSED)
        pte.dirty = bool(word & FLAG_DIRTY)
        return pte

    def encode(self) -> int:
        word = self.pfn << 12
        if self.present:
            word |= FLAG_PRESENT
        if self.writable:
            word |= FLAG_WRITE
        if self.user:
            word |= FLAG_USER
        if self.accessed:
            word |= FLAG_ACCESSED
        if self.dirty:
            word |= FLAG_DIRTY
        return word

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageTableEntry):
            return NotImplemented
        return self.encode() == other.encode()

    def __repr__(self) -> str:
        flags = "".join(
            ch if on else "-"
            for ch, on in (
                ("P", self.present),
                ("W", self.writable),
                ("U", self.user),
                ("A", self.accessed),
                ("D", self.dirty),
            )
        )
        return f"PTE(pfn={self.pfn}, {flags})"


def split_vpn(vpn: int) -> Tuple[int, int]:
    """Split a virtual page number into (level-1 index, level-2 index)."""
    return (vpn >> 10) & 0x3FF, vpn & 0x3FF


class PageTableWalker:
    """Reads and writes page tables held in guest-physical memory.

    The *guest kernel* uses :meth:`map` / :meth:`unmap` to edit its
    tables; the *MMU and VMM* use :meth:`walk` to translate.  Both
    operate on the same in-memory bytes, so there is exactly one source
    of truth for guest mappings.
    """

    def __init__(self, phys: PhysicalMemory):
        self._phys = phys

    # -- raw entry access ------------------------------------------------

    def read_entry(self, table_pfn: int, index: int) -> PageTableEntry:
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise IndexError(f"bad PTE index {index}")
        word = _PTE.unpack_from(self._phys.frame_view(table_pfn),
                                index * PTE_SIZE)[0]
        return PageTableEntry.decode(word)

    def write_entry(self, table_pfn: int, index: int, entry: PageTableEntry) -> None:
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise IndexError(f"bad PTE index {index}")
        self._phys.write(table_pfn, index * PTE_SIZE, _PTE.pack(entry.encode()))

    # -- translation -----------------------------------------------------

    def walk(self, root_pfn: int, vpn: int,
             access: Optional[AccessKind] = None) -> Optional[PageTableEntry]:
        """Translate ``vpn`` under the table rooted at ``root_pfn``.

        Returns the leaf PTE, or ``None`` when either level is
        not-present.  With no ``access`` the walk only reads.  For an
        access it updates the leaf's A/D bits in memory the way x86
        hardware does: any access sets A, and a write sets D only when
        the leaf is writable, i.e. when the write will be permitted.
        Both bits land in one store.
        """
        # Raw-word walk: the hottest path in the simulator decodes
        # exactly one PTE object (the returned leaf) instead of three.
        phys = self._phys
        l1 = (vpn >> 10) & 0x3FF  # split_vpn, inline
        l2 = vpn & 0x3FF
        dir_word = _PTE.unpack_from(phys.frame_view(root_pfn),
                                    l1 * PTE_SIZE)[0]
        if not dir_word & FLAG_PRESENT:
            return None
        table_pfn = dir_word >> 12
        word = _PTE.unpack_from(phys.frame_view(table_pfn),
                                l2 * PTE_SIZE)[0]
        if not word & FLAG_PRESENT:
            return None
        if access is not None:
            touched = word | FLAG_ACCESSED
            if access is _WRITE and word & FLAG_WRITE:
                touched |= FLAG_DIRTY
            if touched != word:
                word = touched
                phys.write(table_pfn, l2 * PTE_SIZE, _PTE.pack(word))
        return PageTableEntry.decode(word)

    # -- kernel-side table editing ----------------------------------------

    def map(
        self,
        root_pfn: int,
        vpn: int,
        pfn: int,
        writable: bool,
        user: bool,
        alloc_table,
    ) -> None:
        """Install a mapping, allocating the second-level table if needed.

        ``alloc_table`` is a zero-argument callable returning a fresh
        zeroed frame (the kernel's frame allocator); it is only invoked
        when the directory slot is empty.
        """
        phys = self._phys
        l1, l2 = split_vpn(vpn)
        dir_word = _PTE.unpack_from(phys.frame_view(root_pfn),
                                    l1 * PTE_SIZE)[0]
        if not dir_word & FLAG_PRESENT:
            table_pfn = alloc_table()
            # Uncharged by design: the walker is passive hardware with
            # no ledger; table-install cost is charged per level by the
            # MMU/VMM on the faulting path that triggered this map.
            phys.zero_frame(table_pfn)
            dir_word = (table_pfn << 12) | FLAG_PRESENT | FLAG_WRITE | FLAG_USER
            phys.write(root_pfn, l1 * PTE_SIZE, _PTE.pack(dir_word))
        word = (pfn << 12) | FLAG_PRESENT
        if writable:
            word |= FLAG_WRITE
        if user:
            word |= FLAG_USER
        phys.write(dir_word >> 12, l2 * PTE_SIZE, _PTE.pack(word))

    def unmap(self, root_pfn: int, vpn: int) -> Optional[PageTableEntry]:
        """Remove a mapping; returns the old leaf PTE (or ``None``)."""
        l1, l2 = split_vpn(vpn)
        dir_entry = self.read_entry(root_pfn, l1)
        if not dir_entry.present:
            return None
        leaf = self.read_entry(dir_entry.pfn, l2)
        if not leaf.present:
            return None
        self.write_entry(dir_entry.pfn, l2, PageTableEntry())
        return leaf

    def set_writable(self, root_pfn: int, vpn: int, writable: bool) -> None:
        l1, l2 = split_vpn(vpn)
        dir_entry = self.read_entry(root_pfn, l1)
        if not dir_entry.present:
            raise KeyError(f"vpn {vpn:#x} has no directory entry")
        leaf = self.read_entry(dir_entry.pfn, l2)
        if not leaf.present:
            raise KeyError(f"vpn {vpn:#x} not mapped")
        leaf.writable = writable
        self.write_entry(dir_entry.pfn, l2, leaf)

    def _table_words(self, table_pfn: int) -> Tuple[int, ...]:
        """All 1024 raw PTE words of one table page, decoded in one
        zero-copy struct call."""
        return _TABLE.unpack(self._phys.frame_view(table_pfn))

    def mapped_vpns(self, root_pfn: int):
        """Yield ``(vpn, PageTableEntry)`` for every present leaf mapping.

        Scans decode whole table pages at once; absent entries (the
        overwhelming majority of a sparse address space) cost one int
        test each instead of a physical read and a PTE allocation.
        """
        decode = PageTableEntry.decode
        for l1, dir_word in enumerate(self._table_words(root_pfn)):
            if not dir_word & FLAG_PRESENT:
                continue
            base = l1 << 10
            for l2, word in enumerate(self._table_words(dir_word >> 12)):
                if word & FLAG_PRESENT:
                    yield base | l2, decode(word)

    def table_frames(self, root_pfn: int):
        """Yield the pfns of all second-level table pages under a root."""
        for dir_word in self._table_words(root_pfn):
            if dir_word & FLAG_PRESENT:
                yield dir_word >> 12
