"""Data-at-rest attacks: the kernel inspects or tampers with the disk.

The OS owns the storage stack outright, so cloaked file protection has
to come from the data itself: pages reach the device already encrypted
(DMA interposition), and tampered blocks fail verification when mapped
back in.
"""

from repro.attacks.base import (
    Attack,
    AttackOutcome,
    AttackReport,
    contains_across,
)
from repro.guestos.process import Process
from repro.machine import Machine

#: Written by the victim file program before the attack window.
SECRET_FILE_CONTENT = b"SECRET-LEDGER-ROW"


class DiskScrape(Attack):
    name = "disk-scrape"
    description = "kernel reads the protected file's disk blocks"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        # Flush everything so the data is at rest.
        for inode in machine.kernel.fs.all_inodes():
            if inode.itype.value == "regular":
                machine.kernel.fs.writeback(inode)
        leaked = self.disk_contains(machine, SECRET_FILE_CONTENT)
        final = self.finish(machine, victim)
        detail = f"scanned {machine.disk.num_blocks} blocks"
        if leaked:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.LEAKED, detail)
        return AttackReport(self.name, victim.cloaked,
                            AttackOutcome.DEFEATED,
                            detail + f", victim: {final.strip()!r}")


class PageCacheScrape(Attack):
    name = "pagecache-scrape"
    description = "kernel reads the protected file's page-cache frames"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        # Honest kernels use DMA/the MMU; the strongest attacker reads
        # each frame as the device would.
        leaked = contains_across(
            (machine.dma.read_frame(pfn)
             for inode in machine.kernel.fs.all_inodes()
             for pfn in inode.pages.values()),
            SECRET_FILE_CONTENT)
        final = self.finish(machine, victim)
        if leaked:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.LEAKED, "plaintext in page cache")
        return AttackReport(self.name, victim.cloaked,
                            AttackOutcome.DEFEATED,
                            f"victim: {final.strip()!r}")
