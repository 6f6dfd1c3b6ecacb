"""Attack harness: runs each probe against cloaked and native victims.

Produces the R-T4 outcome matrix.  Expected results (the paper's
security argument, restated as testable rows):

=====================  =========  ==========
attack                 native     cloaked
=====================  =========  ==========
memory-scrape          LEAKED     DEFEATED
memory-sweep           LEAKED     DEFEATED
tamper-bitflip         LEAKED     DETECTED
tamper-overwrite       LEAKED     DETECTED
replay-rollback        LEAKED     DETECTED
remap-swap             LEAKED*    DETECTED
remap-substitute       LEAKED     DETECTED
register-scrape        LEAKED     DEFEATED
disk-scrape            LEAKED     DEFEATED
pagecache-scrape       LEAKED     DEFEATED
syscall-lie-protected  OUT/LEAK   DEFEATED
syscall-lie-unprot.    OUT        OUT
swap-scrape            LEAKED     DEFEATED
swap-tamper            LEAKED     DETECTED
channel-sniff          LEAKED     DEFEATED
channel-tamper         LEAKED     DETECTED
=====================  =========  ==========

(*) native remap "leaks" in the integrity sense: the victim silently
computes on the wrong page.
"""

from typing import List, Tuple, Type

from repro.apps.secrets import SecretFileWriter, SecretHolder, SecretWriter
from repro.attacks.base import Attack, AttackReport
from repro.attacks.channels import ChannelSniff, ChannelTamper, SecretChannelPair
from repro.attacks.disk import DiskScrape, PageCacheScrape
from repro.attacks.regs import RegisterScrape
from repro.attacks.remap import FrameSubstitution, PageSwap
from repro.attacks.replay import Rollback
from repro.attacks.scrape import FullSweep, MemoryScrape
from repro.attacks.swap_scrape import SwapScrape, SwapTamper
from repro.attacks.syscall_lies import (
    LyingReadProtectedFile,
    LyingReadUnprotectedFile,
)
from repro.attacks.tamper import BitFlip, Overwrite
from repro.machine import Machine

#: (attack class, victim program class, victim argv)
ATTACK_SUITE: Tuple[Tuple[Type[Attack], type, tuple], ...] = (
    (MemoryScrape, SecretHolder, ("12",)),
    (FullSweep, SecretHolder, ("12",)),
    (BitFlip, SecretHolder, ("12",)),
    (Overwrite, SecretHolder, ("12",)),
    (Rollback, SecretWriter, ("6",)),
    (PageSwap, SecretHolder, ("12",)),
    (FrameSubstitution, SecretHolder, ("12",)),
    (RegisterScrape, SecretHolder, ("12",)),
    (DiskScrape, SecretFileWriter, ("/secure/ledger.dat", "6")),
    (PageCacheScrape, SecretFileWriter, ("/secure/ledger.dat", "6")),
    (LyingReadProtectedFile, SecretFileWriter, ("/secure/ledger.dat", "6")),
    (LyingReadUnprotectedFile, SecretFileWriter, ("/ledger.dat", "6")),
    (SwapScrape, SecretHolder, ("10",)),
    (SwapTamper, SecretHolder, ("10",)),
    (ChannelSniff, SecretChannelPair, ("/secure/chan",)),
    (ChannelTamper, SecretChannelPair, ("/secure/chan",)),
)


def run_attack(attack_cls: Type[Attack], victim_cls: type, argv: tuple,
               cloaked: bool) -> AttackReport:
    """Stage one attack against a fresh machine."""
    machine = Machine.build()
    if not machine.kernel.vfs.exists("/secure"):
        machine.kernel.vfs.mkdir("/secure")
    machine.register(victim_cls, cloaked=cloaked)
    victim = machine.spawn(victim_cls.name, argv)
    machine.run_until_output(victim.pid, b"ready\n")
    attack = attack_cls()
    return attack.run(machine, victim)


def run_suite() -> List[AttackReport]:
    """Run every attack against a native and a cloaked victim."""
    reports: List[AttackReport] = []
    for attack_cls, victim_cls, argv in ATTACK_SUITE:
        for cloaked in (False, True):
            reports.append(run_attack(attack_cls, victim_cls, argv, cloaked))
    return reports
