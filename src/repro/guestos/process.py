"""Processes and demand-paged address spaces."""

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.guestos import layout
from repro.hw.pagetable import PageTableWalker
from repro.hw.phys import FrameAllocator, PhysicalMemory


class ProcessState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"
    DEAD = "dead"


class VMA:
    """One virtual memory area: a contiguous, uniformly-typed mapping."""

    __slots__ = ("start_vpn", "npages", "writable", "kind", "inode_id",
                 "file_page", "shared", "label")

    ANON = "anon"
    FILE = "file"

    def __init__(self, start_vpn: int, npages: int, writable: bool = True,
                 kind: str = ANON, inode_id: Optional[int] = None,
                 file_page: int = 0, shared: bool = False, label: str = ""):
        if npages <= 0:
            raise ValueError("empty VMA")
        self.start_vpn = start_vpn
        self.npages = npages
        self.writable = writable
        self.kind = kind
        self.inode_id = inode_id
        self.file_page = file_page
        self.shared = shared
        self.label = label

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.npages

    def __contains__(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.start_vpn + self.npages

    def overlaps(self, start_vpn: int, end_vpn: int) -> bool:
        return self.start_vpn < end_vpn and start_vpn < self.end_vpn

    def file_page_of(self, vpn: int) -> int:
        return self.file_page + (vpn - self.start_vpn)

    def __repr__(self) -> str:
        return (f"VMA({self.start_vpn:#x}+{self.npages}p {self.kind}"
                f"{' shared' if self.shared else ''} {self.label})")


class AddressSpace:
    """Page tables + VMA list of one process.

    Pages are mapped on demand by the kernel's page-fault handler;
    :meth:`add_vma` only records the region.  All PTE edits flow
    through here so the ``invlpg`` callback keeps the VMM's derived
    state coherent.
    """

    def __init__(self, asid: int, phys: PhysicalMemory, alloc: FrameAllocator,
                 invlpg: Callable[[int, int], None]):
        self.asid = asid
        self._phys = phys
        self._alloc = alloc
        self._invlpg = invlpg
        self._walker = PageTableWalker(phys)
        self.root_pfn = alloc.alloc()
        phys.zero_frame(self.root_pfn)
        self.vmas: List[VMA] = []
        self.brk_vaddr = layout.HEAP_BASE
        self._mmap_cursor = layout.MMAP_BASE
        #: Frames owned by this AS (for teardown), vpn -> pfn.  Exact
        #: mirror of the present leaves: every PTE edit flows through
        #: map_page/unmap_page, so scans over the mapping set read this
        #: dict instead of walking table pages.
        self._frames: Dict[int, int] = {}
        #: Second-level table pages, directory index -> pfn.
        self._tables: Dict[int, int] = {}

    # -- VMA management ------------------------------------------------------

    def add_vma(self, vma: VMA) -> VMA:
        for existing in self.vmas:
            if existing.overlaps(vma.start_vpn, vma.end_vpn):
                raise ValueError(f"{vma} overlaps {existing}")
        self.vmas.append(vma)
        return vma

    def find_vma(self, vpn: int) -> Optional[VMA]:
        for vma in self.vmas:
            # VMA.__contains__, inline: asked on every page fault.
            if vma.start_vpn <= vpn < vma.start_vpn + vma.npages:
                return vma
        return None

    def remove_vma(self, start_vpn: int) -> Optional[VMA]:
        for i, vma in enumerate(self.vmas):
            if vma.start_vpn == start_vpn:
                del self.vmas[i]
                return vma
        return None

    def alloc_mmap_region(self, npages: int) -> int:
        """Pick a free mmap-area address (simple bump allocation)."""
        start = self._mmap_cursor
        self._mmap_cursor += npages << 12
        return start

    # -- page mapping (called by the kernel fault handler / loader) -----------

    def map_page(self, vpn: int, pfn: int, writable: bool) -> None:
        def alloc_table() -> int:
            table_pfn = self._new_table()
            self._tables[(vpn >> 10) & 0x3FF] = table_pfn
            return table_pfn

        self._walker.map(self.root_pfn, vpn, pfn, writable, user=True,
                         alloc_table=alloc_table)
        self._frames[vpn] = pfn
        self._invlpg(self.asid, vpn)

    def protect_page(self, vpn: int, writable: bool) -> None:
        self._walker.set_writable(self.root_pfn, vpn, writable)
        self._invlpg(self.asid, vpn)

    def unmap_page(self, vpn: int) -> Optional[int]:
        leaf = self._walker.unmap(self.root_pfn, vpn)
        self._invlpg(self.asid, vpn)
        self._frames.pop(vpn, None)
        return leaf.pfn if leaf else None

    def is_mapped(self, vpn: int) -> bool:
        return self._walker.walk(self.root_pfn, vpn) is not None

    def frame_of(self, vpn: int) -> Optional[int]:
        leaf = self._walker.walk(self.root_pfn, vpn)
        return leaf.pfn if leaf else None

    def mapped_pages(self) -> List[Tuple[int, int]]:
        # vpn-ascending, same order a table-page scan would produce.
        return sorted(self._frames.items())

    def _new_table(self) -> int:
        pfn = self._alloc.alloc()
        self._phys.zero_frame(pfn)
        return pfn

    # -- teardown ------------------------------------------------------------------

    def destroy(self, keep_frames: Optional[set] = None) -> None:
        """Free every owned frame and the page-table pages.

        ``keep_frames`` names pfns that outlive the AS (shared file
        page-cache frames owned by the filesystem).
        """
        keep = keep_frames or set()
        # Free in the exact order a table scan yields: leaves by
        # ascending vpn, then table pages by ascending directory index,
        # then the root — allocator free-list order shapes future
        # allocations, so this order is part of the cycle contract.
        for vpn in sorted(self._frames):
            pfn = self._frames[vpn]
            if pfn not in keep and self._alloc.is_allocated(pfn):
                self._alloc.free(pfn)
        for l1 in sorted(self._tables):
            self._alloc.free(self._tables[l1])
        self._alloc.free(self.root_pfn)
        self.vmas.clear()
        self._frames.clear()
        self._tables.clear()


class OpenFile:
    """A file-description: shared offset + flags over a VFS object."""

    __slots__ = ("kind", "inode_id", "offset", "flags", "pipe", "refcount")

    REGULAR = "regular"
    CONSOLE = "console"
    PIPE_R = "pipe-r"
    PIPE_W = "pipe-w"
    NULL = "null"

    def __init__(self, kind: str, inode_id: Optional[int] = None,
                 flags: int = 0, pipe=None):
        self.kind = kind
        self.inode_id = inode_id
        self.offset = 0
        self.flags = flags
        self.pipe = pipe
        self.refcount = 1

    def __repr__(self) -> str:
        return f"OpenFile({self.kind}, inode={self.inode_id}, off={self.offset})"


class Process:
    """One guest process (single-threaded; pid doubles as tid)."""

    def __init__(self, pid: int, ppid: int, name: str,
                 address_space: AddressSpace, runtime, cloaked: bool = False,
                 tgid: Optional[int] = None):
        self.pid = pid
        self.ppid = ppid
        #: Thread group id: equals pid for a process leader; threads
        #: share the leader's tgid (and address space, and fd table).
        self.tgid = tgid if tgid is not None else pid
        self.name = name
        self.aspace = address_space
        #: ``aspace.asid``, copied so the world-switch path reads a
        #: plain attribute.  Rebound wherever ``aspace`` is (exec).
        self.asid = address_space.asid
        self.runtime = runtime
        self.cloaked = cloaked
        self.state = ProcessState.READY
        self.exit_code: Optional[int] = None
        self.fds: Dict[int, OpenFile] = {}
        self.next_fd = 3
        self.cwd = "/"
        self.pending_signals: List[int] = []
        self.signal_handlers: Dict[int, int] = {}
        self.signal_mask: set = set()
        self.children: List[int] = []
        #: In-flight blocked syscall (number, args, extra) for restart.
        self.pending_syscall: Optional[tuple] = None
        #: Result to deliver to the runtime when this process resumes.
        self.resume_result = None
        #: Kernel-side PCB register snapshot (what was architecturally
        #: visible at the last trap — scrubbed values for cloaked
        #: threads; the VMM's CTC holds their real state).
        self.saved_regs: Optional[dict] = None
        #: nanosleep deadline (virtual cycles), if sleeping.
        self.sleep_until: Optional[int] = None
        #: Virtual-cycle timestamps for accounting.
        self.spawned_at = 0
        self.exited_at: Optional[int] = None

    @property
    def is_thread(self) -> bool:
        return self.tgid != self.pid

    def alloc_fd(self, open_file: OpenFile) -> int:
        fd = self.next_fd
        while fd in self.fds:
            fd += 1
        self.next_fd = fd + 1
        self.fds[fd] = open_file
        return fd

    def fd(self, fd_num: int) -> Optional[OpenFile]:
        return self.fds.get(fd_num)

    def __repr__(self) -> str:
        return f"Process(pid={self.pid}, {self.name!r}, {self.state.value})"
