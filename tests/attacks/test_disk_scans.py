"""The disk-wide attacks scan every block of the device.

``SwapTamper`` corrupts every block that is not all zeros, and
``DiskScrape`` searches every block for the file secret.  Each test
stages the attack by hand, as ``run_attack`` does, so it can plant a
block before the attack runs.

The search streams the device one block at a time: it must answer as
a whole-device join would, do the same device work, and hold no more
than a block.
"""

import pickle
import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest

from repro.apps.secrets import SecretFileWriter, SecretHolder
from repro.attacks import AttackOutcome
from repro.attacks.base import Attack, contains_across
from repro.attacks.disk import SECRET_FILE_CONTENT, DiskScrape
from repro.attacks.swap_scrape import SwapTamper
from repro.faults.injector import FaultyDisk
from repro.faults.plan import SITE_DISK_READ_ERROR, FaultArm, FaultPlan
from repro.hw.disk import Disk
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


# -- the streamed search: same answer as a join, same device work ------------

NEEDLE = SECRET_FILE_CONTENT
SMALL_BLOCK = 32


def _small_disk(plants):
    """A 6-block disk; ``plants`` maps an LBA to the bytes its block
    starts with (the rest is zeros)."""
    disk = Disk(6, SMALL_BLOCK)
    for lba, data in plants.items():
        disk.write_block(lba, data + bytes(SMALL_BLOCK - len(data)))
    return disk


def _scan_agrees(disk) -> bool:
    joined = b"".join(disk.read_block(lba) for lba in range(disk.num_blocks))
    found = Attack.disk_contains(SimpleNamespace(disk=disk), NEEDLE)
    assert found == (NEEDLE in joined)
    return found


def test_scan_finds_a_needle_inside_one_block():
    assert _scan_agrees(_small_disk({2: b"xx" + NEEDLE}))


def test_scan_finds_a_needle_in_the_last_block():
    assert _scan_agrees(_small_disk({5: NEEDLE}))


@pytest.mark.parametrize("split", range(1, len(NEEDLE)))
def test_scan_finds_a_needle_straddling_two_blocks(split):
    head, tail = NEEDLE[:split], NEEDLE[split:]
    disk = _small_disk({3: tail})
    disk.write_block(2, bytes(SMALL_BLOCK - len(head)) + head)
    assert _scan_agrees(disk)


def test_scan_reports_an_absent_needle():
    # Every byte of the needle is on the device, but never contiguously.
    head, tail = NEEDLE[:8], NEEDLE[9:]
    disk = _small_disk({2: tail, 4: NEEDLE[:-1]})
    disk.write_block(1, bytes(SMALL_BLOCK - len(head)) + head)
    assert not _scan_agrees(disk)


def test_window_search_matches_a_join_for_short_chunks():
    rng = random.Random(7)
    for _ in range(500):
        chunks = [bytes(rng.choice(b"ab") for _ in range(rng.randrange(6)))
                  for _ in range(rng.randrange(8))]
        needle = bytes(rng.choice(b"ab") for _ in range(rng.randrange(1, 6)))
        assert contains_across(chunks, needle) == (needle in b"".join(chunks))


def test_scan_reads_and_charges_every_block_once():
    machine = Machine.build()
    disk = machine.disk
    reads, cycles = disk.reads, machine.cycles.get("disk")
    assert not Attack.disk_contains(machine, b"no such needle anywhere")
    assert disk.reads - reads == disk.num_blocks
    assert (machine.cycles.get("disk") - cycles
            == disk.num_blocks * machine.params.costs.disk_block)


def test_disk_scrape_runs_in_block_sized_memory():
    machine, victim = _staged(SecretFileWriter, ("/secure/ledger.dat", "6"),
                              cloaked=True)
    tracemalloc.start()
    try:
        DiskScrape().run(machine, victim)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"DiskScrape peaked at {peak / (1 << 20):.1f} MiB"


def test_never_written_blocks_read_as_zeros():
    plain = Disk(4, SMALL_BLOCK)
    failing = FaultyDisk(4, SMALL_BLOCK, plan=FaultPlan(
        seed=0, arms=(FaultArm(SITE_DISK_READ_ERROR, every=1),)))
    failing.write_block(1, b"\xaa" * SMALL_BLOCK)
    for disk in (plain, failing):
        for lba in range(disk.num_blocks):
            assert disk.read_block(lba) == bytes(SMALL_BLOCK)


def test_disk_snapshot_holds_no_zero_block():
    block = 4096
    disk = Disk(4, block)
    assert len(pickle.dumps(disk)) < block  # no zero block in the state
    disk.write_block(1, b"\xaa" * block)
    before = pickle.dumps(disk)
    for lba in range(disk.num_blocks):
        disk.read_block(lba)
    clone = pickle.loads(pickle.dumps(disk))
    assert len(pickle.dumps(clone)) == len(before)
    assert clone.read_block(0) == bytes(block)
    assert clone.read_block(1) == b"\xaa" * block
