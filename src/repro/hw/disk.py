"""Block device backing the guest filesystem.

Transfers are whole blocks and charge a fixed per-block cost to the
``disk`` cycle category.  Data moves directly between the device and
guest-physical frames (DMA-style) via the buffer cache; it never
transits the MMU, so cloaked pages written to disk stay exactly as the
kernel saw them — ciphertext.
"""

from typing import Dict, List, Optional

from repro.hw.cycles import CycleAccount
from repro.hw.params import CostTable
from repro.obs import bus

#: block size -> the one shared all-zero block of that size.  Module
#: state, not disk state, so a snapshot never pickles it.
_ZERO_BLOCKS: Dict[int, bytes] = {}


def zero_block(size: int) -> bytes:
    """The shared, immutable all-zero block of ``size`` bytes."""
    block = _ZERO_BLOCKS.get(size)
    if block is None:
        block = _ZERO_BLOCKS[size] = bytes(size)
    return block


class Disk:
    """A fixed number of blocks, of which only the written ones are
    stored."""

    def __init__(
        self,
        num_blocks: int,
        block_size: int,
        cycles: Optional[CycleAccount] = None,
        costs: Optional[CostTable] = None,
    ):
        if num_blocks <= 0 or block_size <= 0:
            raise ValueError("disk geometry must be positive")
        self._num_blocks = num_blocks
        self._block_size = block_size
        #: lba -> contents of every block ever written.
        self._blocks: Dict[int, bytes] = {}
        self._cycles = cycles
        self._costs = costs
        self.reads = 0
        self.writes = 0

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def block_size(self) -> int:
        return self._block_size

    def _charge(self) -> None:
        if self._cycles is not None and self._costs is not None:
            self._cycles.charge("disk", self._costs.disk_block)

    def read_block(self, lba: int) -> bytes:
        """Return one block's contents.

        The stored ``bytes`` object is returned as-is (immutable, so no
        defensive copy); never-written blocks read as the shared
        :func:`zero_block`.
        """
        if not 0 <= lba < self._num_blocks:
            raise IndexError(f"bad block {lba}")
        self.reads += 1
        self._charge()
        bus.disk_read(lba)
        data = self._blocks.get(lba)
        if data is None:
            return zero_block(self._block_size)
        return data

    def write_block(self, lba: int, data: bytes) -> None:
        """Persist one block.

        Accepts any bytes-like object (DMA paths may hand in
        memoryviews of live frames); exactly one snapshot is taken
        here — and none at all when ``data`` is already ``bytes``,
        since ``bytes(data)`` is then the same object.
        """
        if not 0 <= lba < self._num_blocks:
            raise IndexError(f"bad block {lba}")
        if len(data) != self._block_size:
            raise ValueError(
                f"block write must be exactly {self._block_size} bytes, got {len(data)}"
            )
        self.writes += 1
        self._charge()
        bus.disk_write(lba)
        self._blocks[lba] = bytes(data)

    def blocks_containing(self, needle: bytes) -> List[int]:
        """LBAs, ascending, of written blocks whose contents contain ``needle``.

        The attacker holding the platter: the raw medium is searched
        directly, so no cycles are charged, no reads are counted, no
        probe fires, and a subclass's transfer path (fault injection)
        is never entered.  Never-written blocks are not searched.
        """
        return sorted(lba for lba, block in self._blocks.items()
                      if needle in block)
