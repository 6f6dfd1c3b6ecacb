"""Common scaffolding for the attack suite."""

import enum
from typing import Iterable, Optional

from repro.apps.secrets import SECRET
from repro.guestos.process import Process
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.machine import Machine


def contains_across(chunks: Iterable[bytes], needle: bytes) -> bool:
    """Whether a non-empty ``needle`` occurs in the concatenation of
    ``chunks``.

    Each chunk is searched together with the last ``len(needle) - 1``
    bytes carried from the chunks before it, so a needle that straddles
    a boundary is found exactly where a join would find it, in memory
    the size of one chunk.  Every chunk is consumed, in order, even
    after a match: the iterator may be doing charged device reads.
    """
    keep = len(needle) - 1
    found = False
    carry = b""
    for chunk in chunks:
        if found:
            continue
        if needle in chunk or (carry and needle in carry + chunk[:keep]):
            found = True
        elif keep:
            carry = (chunk[-keep:] if len(chunk) >= keep
                     else (carry + chunk)[-keep:])
    return found


class AttackOutcome(enum.Enum):
    LEAKED = "LEAKED"            # plaintext observed by the attacker
    DETECTED = "DETECTED"        # VMM raised a violation
    DEFEATED = "DEFEATED"        # attacker saw ciphertext / scrubbed state
    OUT_OF_SCOPE = "OUT-OF-SCOPE"  # paper's threat model excludes it


class AttackReport:
    """Result of one attack run."""

    def __init__(self, attack_name: str, cloaked: bool,
                 outcome: AttackOutcome, detail: str = ""):
        self.attack_name = attack_name
        self.cloaked = cloaked
        self.outcome = outcome
        self.detail = detail

    def __repr__(self) -> str:
        mode = "cloaked" if self.cloaked else "native"
        return f"AttackReport({self.attack_name}/{mode}: {self.outcome.value})"


class Attack:
    """Base class: run a victim to readiness, strike, assess."""

    name = "attack"
    description = ""

    def run(self, machine: Machine, victim: Process) -> AttackReport:
        raise NotImplementedError

    # -- helpers usable by any attack (kernel-level powers) -------------------

    @staticmethod
    def kernel_read(machine: Machine, victim: Process, vaddr: int,
                    nbytes: int) -> bytes:
        """Read victim memory from kernel context (system view)."""
        machine.mmu.set_context(victim.asid, SYSTEM_VIEW, MODE_KERNEL)
        return machine.mmu.read(vaddr, nbytes)

    @staticmethod
    def kernel_write(machine: Machine, victim: Process, vaddr: int,
                     data: bytes) -> None:
        machine.mmu.set_context(victim.asid, SYSTEM_VIEW, MODE_KERNEL)
        machine.mmu.write(vaddr, data)

    @staticmethod
    def disk_contains(machine: Machine, needle: bytes) -> bool:
        """Read the whole device, one block at a time in LBA order, and
        say whether ``needle`` is anywhere on it.

        Every block is read through ``read_block`` even after a match,
        so the reads, ``disk`` cycles, probes and fault-plan decisions
        are those of a full-device scan.
        """
        disk = machine.disk
        return contains_across(map(disk.read_block, range(disk.num_blocks)),
                               needle)

    @staticmethod
    def secret_vaddr(machine: Machine, victim: Process) -> int:
        """Where the victim program put its secret (the attacker can
        learn this from access patterns; we just ask the program)."""
        vaddr = victim.runtime.program.secret_vaddr
        if vaddr is None:
            raise RuntimeError("victim has not placed its secret yet")
        return vaddr

    @staticmethod
    def observed_plaintext(data: bytes) -> bool:
        return SECRET[:16] in data

    @staticmethod
    def finish(machine: Machine, victim: Process) -> Optional[str]:
        """Resume the world; returns the victim's final console text."""
        machine.run()
        return machine.kernel.console.text_of(victim.pid)
