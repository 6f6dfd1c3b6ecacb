"""Block cache between the filesystem and the disk.

File data lives in page-cache frames; this layer assigns disk blocks
to (inode, page) pairs and moves whole pages between frames and the
disk.  Transfers go through a *DMA gateway* rather than raw physical
memory: on real Overshadow hardware the VMM interposes on DMA (IOMMU)
so device transfers of cloaked plaintext are encrypted first; the
gateway is that interposition point.  The plain
:class:`PassthroughDMA` is what an unprotected machine would have.
"""

from typing import Dict, Optional, Tuple

from repro.hw.disk import Disk
from repro.hw.phys import FreeStack, PhysicalMemory


class DMAGateway:
    """Interface devices use to touch guest-physical frames."""

    def read_frame(self, gpfn: int) -> bytes:
        raise NotImplementedError

    def write_frame(self, gpfn: int, data: bytes) -> None:
        raise NotImplementedError


class PassthroughDMA(DMAGateway):
    """Direct DMA, no VMM interposition (used by hw-only tests)."""

    def __init__(self, phys: PhysicalMemory):
        self._phys = phys

    def read_frame(self, gpfn: int) -> bytes:
        return self._phys.read_frame(gpfn)

    def write_frame(self, gpfn: int, data: bytes) -> None:
        self._phys.write_frame(gpfn, data)


class BlockCache:
    """Allocates disk blocks and pages file data in and out."""

    def __init__(self, disk: Disk, dma: DMAGateway):
        self._disk = disk
        self._dma = dma
        self._free = FreeStack(0, disk.num_blocks)
        self._blocks: Dict[Tuple[int, int], int] = {}

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def block_of(self, inode_id: int, page_index: int) -> Optional[int]:
        return self._blocks.get((inode_id, page_index))

    def _ensure_block(self, inode_id: int, page_index: int) -> int:
        key = (inode_id, page_index)
        lba = self._blocks.get(key)
        if lba is None:
            try:
                lba = self._free.pop()
            except IndexError:
                raise OSError("disk full") from None
            self._blocks[key] = lba
        return lba

    def writeback_page(self, inode_id: int, page_index: int, gpfn: int) -> int:
        """Flush one page-cache frame to disk; returns the lba used."""
        lba = self._ensure_block(inode_id, page_index)
        self._disk.write_block(lba, self._dma.read_frame(gpfn))
        return lba

    def readin_page(self, inode_id: int, page_index: int, gpfn: int) -> bool:
        """Fill a frame from disk; returns False (and zeroes the frame)
        when the page was never written."""
        lba = self._blocks.get((inode_id, page_index))
        if lba is None:
            self._dma.write_frame(gpfn, bytes(self._disk.block_size))
            return False
        self._dma.write_frame(gpfn, self._disk.read_block(lba))
        return True

    def drop_page(self, inode_id: int, page_index: int) -> bool:
        """Release one page's block, if allocated."""
        lba = self._blocks.pop((inode_id, page_index), None)
        if lba is None:
            return False
        self._free.append(lba)
        return True

    def drop_file(self, inode_id: int) -> int:
        """Release all blocks of a deleted file."""
        victims = [key for key in self._blocks if key[0] == inode_id]
        for key in victims:
            self._free.append(self._blocks.pop(key))
        return len(victims)
