"""Fault-injecting variants of the simulated components.

Each class here is the honest version of its base component plus one
or more :mod:`repro.faults.plan` injection sites.  The injectors model
*hardware or kernel misbehaviour*, so they sit strictly outside the
trusted computing base: nothing in ``repro.core`` imports this module,
and the VMM/cloak hooks below only ever make the world look worse
(stale translations, stuck counters, truncated metadata) — they have
no access to key material.

Fault semantics are chosen to be physically meaningful:

* Disk faults corrupt, tear, lose, or zero blocks *at the device*,
  after DMA interposition — exactly where a real medium fails.
* The TLB's lost-invalidation site models a dropped ``invlpg``: the
  stale entry stays live until the VMM's coherence audit (the lookup
  path) catches it being used and raises
  :class:`~repro.core.errors.StaleTranslationViolation`.
* The swap/blockcache sites corrupt or drop transfers between the
  page cache and disk — the kernel believes its I/O succeeded.
* The VMM/cloak hooks simulate metadata-level damage (a stale shadow
  fill, a truncated MAC, a version counter that stopped advancing).

Containment is asserted elsewhere (tests/faults/, the R-T5 matrix):
for *cloaked* data every one of these either recovers transparently or
dies as a typed violation.  For native data the disk and swap faults
corrupt silently — that is precisely the unprotected baseline the
paper contrasts against.
"""

from typing import Dict, Optional, Set, Tuple

from repro.core.errors import StaleTranslationViolation
from repro.core.hypercall import Hypercall
from repro.faults.plan import (
    SITE_DISK_READ_BITFLIP,
    SITE_DISK_READ_ERROR,
    SITE_DISK_WRITE_BITFLIP,
    SITE_DISK_WRITE_LOST,
    SITE_DISK_WRITE_TORN,
    SITE_HYPERCALL_DUPLICATE,
    SITE_HYPERCALL_RETRY,
    SITE_IV_REUSE,
    SITE_MAC_TRUNCATE,
    SITE_SHADOW_STALE,
    SITE_SWAPIN_CORRUPT,
    SITE_TLB_FLUSH_LOST,
    SITE_WRITEBACK_LOST,
    FaultPlan,
)
from repro.guestos.blockcache import BlockCache, DMAGateway
from repro.guestos.swap import SwapSpace
from repro.hw.disk import Disk, zero_block
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import SoftwareTLB, TLBEntry


def _flip_one_byte(plan: FaultPlan, site: str, data: bytes) -> bytes:
    """Flip one bit of one byte, chosen from the site's substream."""
    rng = plan.rng(site)
    buf = bytearray(data)
    buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
    return bytes(buf)


class FaultyDisk(Disk):
    """A disk whose medium and transfers can fail."""

    def __init__(self, num_blocks: int, block_size: int, cycles=None,
                 costs=None, plan: Optional[FaultPlan] = None):
        super().__init__(num_blocks, block_size, cycles, costs)
        self._plan = plan or FaultPlan()

    def read_block(self, lba: int) -> bytes:
        data = super().read_block(lba)
        if self._plan.decide(SITE_DISK_READ_ERROR):
            # Unrecoverable sector: the controller substitutes zeros.
            return zero_block(self.block_size)
        if self._plan.decide(SITE_DISK_READ_BITFLIP):
            return _flip_one_byte(self._plan, SITE_DISK_READ_BITFLIP, data)
        return data

    def write_block(self, lba: int, data: bytes) -> None:
        if self._plan.decide(SITE_DISK_WRITE_LOST):
            # The device acks but never persists.  Validate and charge
            # exactly like a real write so accounting stays aligned.
            if not 0 <= lba < self.num_blocks:
                raise IndexError(f"bad block {lba}")
            if len(data) != self.block_size:
                raise ValueError(
                    f"block write must be exactly {self.block_size} bytes, "
                    f"got {len(data)}"
                )
            self.writes += 1
            self._charge()
            return
        if self._plan.decide(SITE_DISK_WRITE_TORN):
            old = self._blocks.get(lba)
            if old is None:
                old = zero_block(self.block_size)
            half = self.block_size // 2
            data = data[:half] + old[half:]
        if self._plan.decide(SITE_DISK_WRITE_BITFLIP):
            data = _flip_one_byte(self._plan, SITE_DISK_WRITE_BITFLIP, data)
        super().write_block(lba, data)


class FaultyTLB(SoftwareTLB):
    """A TLB that can lose invalidations.

    A lost invalidation leaves the victim entries live but marked; the
    VMM's coherence audit — modelled on the lookup path, where real
    VMMs validate shadow state — catches any *use* of a marked entry,
    invalidates it for real, and raises a typed violation.  A marked
    entry that is never used again (capacity eviction, legitimate
    re-install) is harmless and the mark is dropped.
    """

    def __init__(self, capacity: int, plan: Optional[FaultPlan] = None):
        super().__init__(capacity)
        self._plan = plan or FaultPlan()
        self._lost: Set[Tuple[int, int, int]] = set()

    def lookup(self, asid: int, view: int, vpn: int) -> Optional[TLBEntry]:
        entry = super().lookup(asid, view, vpn)
        key = (asid, view, vpn)
        if entry is not None and key in self._lost:
            self._lost.discard(key)
            self._drop(key)
            raise StaleTranslationViolation(asid, view, vpn)
        return entry

    def insert(self, asid: int, view: int, entry: TLBEntry) -> None:
        self._lost.discard((asid, view, entry.vpn))
        super().insert(asid, view, entry)

    def _lose(self, victims) -> int:
        victims = list(victims)
        self._lost.update(victims)
        return len(victims)

    def invalidate_page(self, vpn: int, asid: Optional[int] = None) -> int:
        if self._plan.decide(SITE_TLB_FLUSH_LOST):
            return self._lose(
                key for key in self._by_vpn.get(vpn, ())
                if asid is None or key[0] == asid
            )
        return super().invalidate_page(vpn, asid)

    def invalidate_asid(self, asid: int) -> int:
        if self._plan.decide(SITE_TLB_FLUSH_LOST):
            return self._lose(k for k in self._entries if k[0] == asid)
        return super().invalidate_asid(asid)

    def flush(self) -> None:
        if self._plan.decide(SITE_TLB_FLUSH_LOST):
            self._lose(list(self._entries))
            return
        super().flush()


class FaultyBlockCache(BlockCache):
    """A block cache whose writebacks can be silently dropped."""

    def __init__(self, disk: Disk, dma: DMAGateway,
                 plan: Optional[FaultPlan] = None):
        super().__init__(disk, dma)
        self._plan = plan or FaultPlan()

    def writeback_page(self, inode_id: int, page_index: int, gpfn: int) -> int:
        if self._plan.decide(SITE_WRITEBACK_LOST):
            # The DMA read still happens (so the IOMMU interposition
            # encrypts any cloaked plaintext, as on real hardware); the
            # loss is strictly at the device.  The kernel believes the
            # flush succeeded.
            lba = self._ensure_block(inode_id, page_index)
            self._dma.read_frame(gpfn)
            return lba
        return super().writeback_page(inode_id, page_index, gpfn)


class FaultySwap:
    """Wraps :class:`SwapSpace`: frames can corrupt on the way back in."""

    def __init__(self, inner: SwapSpace, plan: FaultPlan,
                 phys: PhysicalMemory):
        self._inner = inner
        self._plan = plan
        self._phys = phys

    def write_out(self, asid: int, vpn: int, gpfn: int) -> None:
        self._inner.write_out(asid, vpn, gpfn)

    def read_in(self, asid: int, vpn: int, gpfn: int) -> bool:
        hit = self._inner.read_in(asid, vpn, gpfn)
        if hit and self._plan.decide(SITE_SWAPIN_CORRUPT):
            frame = _flip_one_byte(self._plan, SITE_SWAPIN_CORRUPT,
                                   self._phys.read_frame(gpfn))
            self._phys.write_frame(gpfn, frame)
        return hit

    def has_slot(self, asid: int, vpn: int) -> bool:
        return self._inner.has_slot(asid, vpn)

    def drop_slot(self, asid: int, vpn: int) -> bool:
        return self._inner.drop_slot(asid, vpn)

    def drop_address_space(self, asid: int) -> int:
        return self._inner.drop_address_space(asid)


#: Hypercalls that are safe to deliver twice (or drop and re-issue):
#: their effect is a pure function of their arguments plus
#: already-idempotent state updates.  Delivery faults are only
#: injected for these; non-idempotent calls (CLOAK_INIT, CLOAK_RANGE
#: — which rejects overlapping re-registration — DOMAIN_EXIT,
#: FILE_FORGET...) ride exactly-once transports in the shim protocol.
IDEMPOTENT_HYPERCALLS = frozenset({
    Hypercall.FILE_BIND,
    Hypercall.REGISTER_ENTRY,
    Hypercall.GET_IDENTITY,
    Hypercall.CHANNEL_SEAL,
    Hypercall.CHANNEL_OPEN,
    Hypercall.PAGE_RECYCLE,
})


class VMMFaultHooks:
    """Delivery/translation faults injected at the VMM boundary.

    Installed as ``vmm.faults`` by :class:`repro.machine.Machine` when
    a plan is supplied; ``None`` otherwise (zero-cost fast path).
    """

    def __init__(self, plan: FaultPlan):
        self._plan = plan
        #: Last *correct* gpfn each cloaked (asid, vpn) resolved to.
        self._gpfn_history: Dict[Tuple[int, int], int] = {}

    def translate_gpfn(self, asid: int, vpn: int, gpfn: int,
                       eligible: bool) -> int:
        """Maybe substitute a previously cached frame for the current
        one (a stale shadow-PTE).  History is recorded on every fill;
        an opportunity only exists once the page has genuinely moved
        frames *and* the caller marked the fill eligible (the page is
        ENCRYPTED, so the substituted frame must pass a MAC check)."""
        key = (asid, vpn)
        prev = self._gpfn_history.get(key)
        self._gpfn_history[key] = gpfn
        if eligible and prev is not None and prev != gpfn and \
                self._plan.decide(SITE_SHADOW_STALE):
            return prev
        return gpfn

    def hypercall_fault(self, number) -> Optional[str]:
        """Delivery fault for this hypercall: 'duplicate', 'retry', or
        None.  Only idempotent calls count as opportunities."""
        if number not in IDEMPOTENT_HYPERCALLS:
            return None
        if self._plan.decide(SITE_HYPERCALL_DUPLICATE):
            return "duplicate"
        if self._plan.decide(SITE_HYPERCALL_RETRY):
            return "retry"
        return None


class CloakFaultHooks:
    """Metadata-damage faults at the cloaking engine.

    Installed as ``cloak.faults`` by the machine builder.  Both sites
    damage *protocol metadata*, never plaintext: the engine's own
    checks (version monotonicity, MAC verification) must convert them
    into typed violations.
    """

    def __init__(self, plan: FaultPlan):
        self._plan = plan

    def encrypt_version(self, md, version: int) -> int:
        """A stuck version counter: re-offer the page's current
        version, which would reuse its (key, IV) pair."""
        if md.has_ciphertext_record and self._plan.decide(SITE_IV_REUSE):
            return md.version
        return version

    def mangle_mac(self, mac: bytes) -> bytes:
        """Truncate a MAC about to be recorded (a torn metadata
        write)."""
        if self._plan.decide(SITE_MAC_TRUNCATE):
            return mac[: len(mac) // 4]
        return mac
