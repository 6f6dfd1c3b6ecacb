"""Swap-space attacks: the kernel forces pages out and reads the swap.

Paging is the OS's legal superpower — reclaim any page, any time.  A
malicious kernel weaponises it as an exfiltration primitive: evict the
victim's whole working set and read the swap device at leisure.
Cloaked pages cross the DMA interposition on the way out, so the swap
holds only ciphertext.
"""

from repro.apps.secrets import SECRET
from repro.attacks.base import Attack, AttackOutcome, AttackReport
from repro.guestos.process import Process
from repro.hw.disk import zero_block
from repro.machine import Machine


class SwapScrape(Attack):
    name = "swap-scrape"
    description = "kernel evicts the victim's pages and reads swap space"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        evicted = machine.kernel.reclaimer.reclaim(200)
        leaked = self.disk_contains(machine, SECRET)
        final = self.finish(machine, victim)
        detail = f"evicted={evicted}, victim: {final.strip().splitlines()[-1]!r}"
        if leaked:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.LEAKED, detail)
        if "intact" not in final and not machine.violations:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.LEAKED, detail + " (corrupted)")
        if machine.violations:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.DETECTED, detail)
        return AttackReport(self.name, victim.cloaked,
                            AttackOutcome.DEFEATED, detail)


class SwapTamper(Attack):
    name = "swap-tamper"
    description = "kernel corrupts swapped-out pages before swap-in"

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        evicted = machine.kernel.reclaimer.reclaim(200)
        # Corrupt every non-empty disk block (the victim's swap slots
        # are in there somewhere).  A block is empty iff every byte is
        # zero; the shared zero block is, and ``count`` decides the
        # rest in C.
        zero = zero_block(machine.disk.block_size)
        tampered = 0
        for lba in range(machine.disk.num_blocks):
            block = machine.disk.read_block(lba)
            if block is not zero and block.count(0) != len(block):
                mutated = bytearray(block)
                mutated[0] ^= 0xFF
                machine.disk.write_block(lba, bytes(mutated))
                tampered += 1
        final = self.finish(machine, victim)
        detail = f"evicted={evicted}, tampered_blocks={tampered}"
        if machine.violations:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.DETECTED, detail)
        if "intact" in final:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.DEFEATED, detail)
        # Victim consumed corrupted data (or detected it itself).
        return AttackReport(self.name, victim.cloaked,
                            AttackOutcome.LEAKED,
                            detail + f", victim: {final.strip()!r}")
