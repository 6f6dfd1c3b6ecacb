"""The disk-wide attacks scan every block of the device.

``SwapTamper`` corrupts every block that is not all zeros, and
``DiskScrape`` searches every block for the file secret.  Each test
stages the attack by hand, as ``run_attack`` does, so it can plant a
block before the attack runs.
"""

import re

from repro.apps.secrets import SecretFileWriter, SecretHolder
from repro.attacks import AttackOutcome
from repro.attacks.disk import SECRET_FILE_CONTENT, DiskScrape
from repro.attacks.swap_scrape import SwapTamper
from repro.machine import Machine


def _staged(victim_cls, argv, cloaked):
    machine = Machine.build()
    if not machine.kernel.vfs.exists("/secure"):
        machine.kernel.vfs.mkdir("/secure")
    machine.register(victim_cls, cloaked=cloaked)
    victim = machine.spawn(victim_cls.name, argv)
    machine.run_until_output(victim.pid, b"ready\n")
    return machine, victim


def test_swap_tamper_counts_every_nonzero_block(monkeypatch):
    machine, victim = _staged(SecretHolder, ("10",), cloaked=True)
    disk = machine.disk
    last = disk.num_blocks - 1
    # Nonzero only in its last byte: a scan that stops early misses it.
    disk.write_block(last, bytes(disk.block_size - 1) + b"\x01")

    reclaimer = machine.kernel.reclaimer
    reclaim = reclaimer.reclaim
    nonzero = []

    def reclaim_then_count(count):
        evicted = reclaim(count)
        nonzero.append(sum(1 for lba in range(disk.num_blocks)
                           if any(disk.read_block(lba))))
        return evicted

    monkeypatch.setattr(reclaimer, "reclaim", reclaim_then_count)
    report = SwapTamper().run(machine, victim)

    assert nonzero[0] > 1  # the victim's swap slots, and the planted block
    tampered = re.search(r"tampered_blocks=(\d+)", report.detail)
    assert int(tampered.group(1)) == nonzero[0]
    assert disk.read_block(last)[0] == 0xFF


def test_disk_scrape_reads_the_last_block():
    machine, victim = _staged(SecretFileWriter, ("/secure/ledger.dat", "6"),
                              cloaked=True)
    disk = machine.disk
    padding = bytes(disk.block_size - len(SECRET_FILE_CONTENT))
    disk.write_block(disk.num_blocks - 1, padding + SECRET_FILE_CONTENT)

    reads_before = disk.reads
    report = DiskScrape().run(machine, victim)

    assert report.outcome is AttackOutcome.LEAKED, report.detail
    assert disk.reads - reads_before >= disk.num_blocks
