"""Simulated hardware substrate for the Overshadow reproduction.

Real Overshadow runs on x86 hardware under a modified VMware VMM.  The
reproduction band for this paper is "simulation only", so this package
provides the machine the rest of the system runs on: guest-physical
memory, guest page tables stored *in* that memory, a software MMU with a
tagged TLB, a virtual CPU with privilege modes and traps, a block
device, and a deterministic virtual-cycle clock.

Everything above this package (the guest OS, the VMM, applications)
interacts with memory exclusively through :class:`repro.hw.mmu.MMU`,
which is the chokepoint where the VMM's multi-shadowing and cloaking
logic interposes.
"""

from repro.hw.cpu import VirtualCPU
from repro.hw.cycles import CycleAccount
from repro.hw.disk import Disk
from repro.hw.faults import (
    AccessKind,
    CloakFault,
    GeneralProtectionFault,
    MachineError,
    PageFault,
    PageFaultReason,
)
from repro.hw.mmu import MMU, TranslationAuthority
from repro.hw.pagetable import PageTableEntry, PageTableWalker, PTE_SIZE
from repro.hw.params import MachineParams, PAGE_SIZE, PAGE_SHIFT
from repro.hw.phys import FrameAllocator, OutOfMemoryError, PhysicalMemory
from repro.hw.tlb import SoftwareTLB, TLBEntry

__all__ = [
    "AccessKind",
    "CloakFault",
    "CycleAccount",
    "Disk",
    "FrameAllocator",
    "GeneralProtectionFault",
    "MachineError",
    "MachineParams",
    "MMU",
    "OutOfMemoryError",
    "PAGE_SHIFT",
    "PAGE_SIZE",
    "PTE_SIZE",
    "PageFault",
    "PageFaultReason",
    "PageTableEntry",
    "PageTableWalker",
    "PhysicalMemory",
    "SoftwareTLB",
    "TLBEntry",
    "TranslationAuthority",
    "VirtualCPU",
]
