"""Cost conservation, checked on a real run.

``PhysicalMemory`` and ``PageCipher`` model hardware and crypto and
know nothing about time: their page-sized primitives are uncosted by
design, and the obligation to charge the :class:`CycleAccount` sits
with their callers.  :func:`conservation_check` wraps the primitives
and ``CycleAccount.charge`` for the duration of a workload.  Every
primitive call from a ``repro.hw`` or ``repro.core`` frame must be
matched by a charge of the primitive's category during that frame's
activation, before or after the call, in the frame itself or in
anything it calls.  A charge of some other category does not count.
The only uncharged calls allowed are the sites in
:data:`UNCHARGED_BY_DESIGN` (docs/COSTMODEL.md lists the same sites).

The wrappers add host time only; no charge moves.
"""

import sys
from contextlib import contextmanager
from typing import Dict, List, Tuple

from repro.core.crypto import PageCipher
from repro.hw.cycles import CycleAccount
from repro.hw.phys import PhysicalMemory

#: (class, primitive) -> the category its caller must charge.
PRIMITIVES = {
    (PhysicalMemory, "read_frame"): "crypto",
    (PhysicalMemory, "write_frame"): "crypto",
    (PhysicalMemory, "zero_frame"): "vmm",
    (PageCipher, "encrypt_page"): "crypto",
    (PageCipher, "decrypt_page"): "crypto",
    (PageCipher, "verify_page"): "crypto",
    (PageCipher, "seal_message"): "crypto",
    (PageCipher, "open_message"): "crypto",
}

#: Callers that carry the obligation.
CHECKED_PACKAGES = ("repro.hw.", "repro.core.")

#: (module, function, primitive) -> why that call charges nothing.
UNCHARGED_BY_DESIGN = {
    ("repro.hw.pagetable", "PageTableWalker.map", "zero_frame"):
        "the walker is passive hardware with no ledger; table installs "
        "are charged per level by the MMU/VMM path that faulted",
    ("repro.core.metadata", "PageMetadata.matches_stale_version",
     "verify_page"):
        "forensic probe after a failed verify: the faulting access "
        "already charged page_hash, and the probe only picks which "
        "violation is raised",
    ("repro.core.vmm", "VMM.dma_read_frame", "read_frame"):
        "a DMA transfer is part of the device operation it serves; "
        "disk_block prices DMA setup and completion, charged by the "
        "read_block/write_block that moves the page",
    ("repro.core.vmm", "VMM.dma_write_frame", "write_frame"):
        "a DMA transfer is part of the device operation it serves; "
        "disk_block prices DMA setup and completion, charged by the "
        "read_block/write_block that moves the page",
}

Site = Tuple[str, str, str]  # (module, function qualname, primitive)


class Conservation:
    """What one checked workload did: each primitive call site, and the
    categories charged during each checked frame's activation."""

    def __init__(self) -> None:
        #: (caller frame, site) per primitive call from hw/ or core/.
        self.calls: List[tuple] = []
        #: frame -> categories charged while it was on the stack.  The
        #: frames are kept alive, so identity never goes stale.
        self.charged: Dict[object, set] = {}

    def sites(self) -> Dict[Site, int]:
        counts: Dict[Site, int] = {}
        for __, site in self.calls:
            counts[site] = counts.get(site, 0) + 1
        return counts

    def unmatched(self) -> Dict[Site, int]:
        """Calls whose caller charged nothing of the primitive's
        category, per site (exempt sites left out)."""
        counts: Dict[Site, int] = {}
        for frame, site in self.calls:
            if site in UNCHARGED_BY_DESIGN:
                continue
            category = _CATEGORY[site[2]]
            if category not in self.charged.get(frame, ()):
                counts[site] = counts.get(site, 0) + 1
        return counts

    def assert_conserved(self) -> None:
        bad = self.unmatched()
        assert not bad, "uncharged primitive calls:\n" + "\n".join(
            f"  {mod}:{func} calls {prim} x{count} without a "
            f"{_CATEGORY[prim]!r} charge"
            for (mod, func, prim), count in sorted(bad.items()))


_CATEGORY = {name: category for (__, name), category in PRIMITIVES.items()}


@contextmanager
def conservation_check():
    """Record primitive calls and charges while the block runs."""
    record = Conservation()
    originals = [(cls, name, cls.__dict__[name]) for cls, name in PRIMITIVES]
    original_charge = CycleAccount.charge

    def wrap(name, primitive):
        def checked(*args, **kwargs):
            frame = sys._getframe(1)
            module = frame.f_globals.get("__name__", "")
            if module.startswith(CHECKED_PACKAGES):
                record.calls.append(
                    (frame, (module, frame.f_code.co_qualname, name)))
            return primitive(*args, **kwargs)
        return checked

    def charge(self, category, cycles):
        frame = sys._getframe(1)
        while (frame is not None
               and frame.f_globals.get("__name__", "").startswith("repro.")):
            record.charged.setdefault(frame, set()).add(category)
            frame = frame.f_back
        return original_charge(self, category, cycles)

    for cls, name, primitive in originals:
        setattr(cls, name, wrap(name, primitive))
    CycleAccount.charge = charge
    try:
        yield record
    finally:
        for cls, name, primitive in originals:
            setattr(cls, name, primitive)
        CycleAccount.charge = original_charge
