"""Every registered injection point: at least one detect-or-recover test.

Two layers of evidence:

* Component-level tests pin the *mechanics* of each injector (a torn
  write really persists half a block, a lost invalidation really
  leaves a poisoned entry...).
* End-to-end tests run a cloaked workload under each armed site and
  assert the containment contract: architectural state identical to
  the fault-free run (RECOVERED), or a typed violation with no silent
  corruption (DETECTED).  Failure messages carry the plan's replay
  spec, so any outcome can be reproduced from the printed seed.
"""

import pytest

from repro.core.errors import StaleTranslationViolation
from repro.faults import oracle
from repro.faults.injector import (
    FaultyBlockCache,
    FaultyDisk,
    FaultyTLB,
)
from repro.faults.plan import (
    INJECTION_POINTS,
    SITE_DISK_READ_BITFLIP,
    SITE_DISK_READ_ERROR,
    SITE_DISK_WRITE_BITFLIP,
    SITE_DISK_WRITE_LOST,
    SITE_DISK_WRITE_TORN,
    SITE_TLB_FLUSH_LOST,
    SITE_WRITEBACK_LOST,
    FaultArm,
    FaultPlan,
)
from repro.guestos.blockcache import PassthroughDMA
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import TLBEntry
from repro.machine import BootConfig, Machine

BLOCK = 4096


def _disk(plan) -> FaultyDisk:
    return FaultyDisk(num_blocks=8, block_size=BLOCK, plan=plan)


class TestDiskInjector:
    def test_read_bitflip_changes_exactly_one_bit(self):
        disk = _disk(FaultPlan.once(SITE_DISK_READ_BITFLIP, seed=3, nth=1))
        payload = bytes(range(256)) * (BLOCK // 256)
        disk.write_block(0, payload)
        assert disk.read_block(0) == payload  # opportunity 0: clean
        corrupt = disk.read_block(0)          # opportunity 1: fires
        diff = [i for i in range(BLOCK) if corrupt[i] != payload[i]]
        assert len(diff) == 1
        assert bin(corrupt[diff[0]] ^ payload[diff[0]]).count("1") == 1
        assert disk.read_block(0) == payload  # one-shot arm

    def test_read_error_returns_zeros(self):
        disk = _disk(FaultPlan.once(SITE_DISK_READ_ERROR, seed=0, nth=0))
        disk.write_block(2, b"\xaa" * BLOCK)
        assert disk.read_block(2) == bytes(BLOCK)
        assert disk.read_block(2) == b"\xaa" * BLOCK

    def test_write_bitflip_lands_corrupted(self):
        disk = _disk(FaultPlan.once(SITE_DISK_WRITE_BITFLIP, seed=1, nth=0))
        payload = b"\x00" * BLOCK
        disk.write_block(1, payload)
        stored = disk.read_block(1)
        assert stored != payload
        assert sum(bin(b).count("1") for b in stored) == 1

    def test_torn_write_keeps_old_second_half(self):
        disk = _disk(FaultPlan(seed=0,
                               arms=(FaultArm(SITE_DISK_WRITE_TORN, nth=1),)))
        disk.write_block(0, b"\x11" * BLOCK)       # opportunity 0: clean
        disk.write_block(0, b"\x22" * BLOCK)       # opportunity 1: torn
        stored = disk.read_block(0)
        assert stored[: BLOCK // 2] == b"\x22" * (BLOCK // 2)
        assert stored[BLOCK // 2:] == b"\x11" * (BLOCK // 2)

    def test_lost_write_acks_but_keeps_old_data(self):
        disk = _disk(FaultPlan.once(SITE_DISK_WRITE_LOST, seed=0, nth=1))
        disk.write_block(3, b"\x33" * BLOCK)
        writes_before = disk.writes
        disk.write_block(3, b"\x44" * BLOCK)       # lost
        assert disk.writes == writes_before + 1    # the device acked
        assert disk.read_block(3) == b"\x33" * BLOCK


class TestTLBInjector:
    def test_lost_invalidation_is_caught_on_use(self):
        tlb = FaultyTLB(8, FaultPlan.once(SITE_TLB_FLUSH_LOST, seed=0, nth=0))
        tlb.insert(1, 0, TLBEntry(0x10, 42, True, True, False))
        assert tlb.invalidate_page(0x10) == 1      # lost: entry stays, marked
        with pytest.raises(StaleTranslationViolation):
            tlb.lookup(1, 0, 0x10)
        # The audit dropped the poisoned entry: next lookup is a miss.
        assert tlb.lookup(1, 0, 0x10) is None

    def test_reinstall_clears_poison(self):
        tlb = FaultyTLB(8, FaultPlan.once(SITE_TLB_FLUSH_LOST, seed=0, nth=0))
        tlb.insert(1, 0, TLBEntry(0x10, 42, True, True, False))
        tlb.invalidate_page(0x10)                  # lost
        tlb.insert(1, 0, TLBEntry(0x10, 43, True, True, False))
        assert tlb.lookup(1, 0, 0x10).pfn == 43

    def test_unused_stale_entry_is_harmless(self):
        tlb = FaultyTLB(8, FaultPlan.once(SITE_TLB_FLUSH_LOST, seed=0, nth=0))
        tlb.insert(1, 0, TLBEntry(0x10, 42, True, True, False))
        tlb.invalidate_page(0x10)                  # lost
        tlb.invalidate_asid(1)                     # later full shootdown
        assert tlb.lookup(1, 0, 0x10) is None      # no violation raised


class TestBlockCacheInjector:
    def test_lost_writeback_never_reaches_disk(self):
        phys = PhysicalMemory(4)
        phys.write_frame(1, b"\x55" * BLOCK)
        plan = FaultPlan.once(SITE_WRITEBACK_LOST, seed=0, nth=0)
        disk = _disk(None)
        cache = FaultyBlockCache(disk, PassthroughDMA(phys), plan)
        lba = cache.writeback_page(7, 0, 1)
        assert cache.block_of(7, 0) == lba         # kernel bookkeeping done
        assert disk.read_block(lba) == bytes(BLOCK)  # device never wrote
        cache.writeback_page(7, 0, 1)              # retry (unarmed) works
        assert disk.read_block(lba) == b"\x55" * BLOCK


def _write_two_blocks(machine):
    machine.disk.write_block(5, b"\x55" * machine.disk.block_size)
    machine.disk.write_block(6, b"\x66" * machine.disk.block_size)


class TestBootWindow:
    def test_boot_time_fault_fires_from_opportunity_zero(self):
        """Setup hooks run under the caller's plan, so an arm at
        opportunity 0 fires inside the boot, the same way every time."""
        config = BootConfig(programs=(), setup=(_write_two_blocks,))
        boots = []
        for __ in range(2):
            plan = FaultPlan.once(SITE_DISK_WRITE_LOST, nth=0)
            machine = Machine.boot(config, plan)
            log = [(d.site, d.opportunity, d.fire_index) for d in plan.log]
            boots.append((dict(machine.disk._blocks), log))
        blocks, log = boots[0]
        assert sorted(blocks) == [6]                # the first write was lost
        assert log == [(SITE_DISK_WRITE_LOST, 0, 0)]
        assert boots[1] == boots[0]


# ----------------------------------------------------------------------
# end-to-end: the containment contract, one row per injection point
# ----------------------------------------------------------------------

_SCENARIOS = oracle._matrix_scenarios()


def test_matrix_covers_every_injection_point():
    assert {site for site, __, __ in _SCENARIOS} == set(INJECTION_POINTS)


@pytest.mark.parametrize("site,app,arm", _SCENARIOS,
                         ids=[site for site, __, __ in _SCENARIOS])
def test_containment_contract(site, app, arm):
    spec = oracle._MATRIX_SPECS.get(app, oracle.ORACLE_SPECS.get(app))
    clean = oracle.run_once(spec, cloaked=True)
    plan = FaultPlan(seed=7, arms=(arm,))
    faulty = oracle.run_once(spec, cloaked=True, plan=plan)
    replay = plan.replay_spec()

    assert plan.fires(site) > 0, f"fault never fired; replay: {replay}"
    outcome = oracle.classify(clean, faulty)
    assert outcome in oracle.CONTAINED_OUTCOMES, (
        f"{site} escaped containment: {outcome}, "
        f"violations={faulty.violations}; replay: {replay}"
    )
    if outcome == oracle.OUTCOME_DETECTED:
        # Detection must be a *typed* announcement, not a crash.
        assert faulty.violations, f"degraded with no violation; {replay}"
