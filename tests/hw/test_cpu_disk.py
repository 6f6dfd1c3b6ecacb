"""Unit tests for the virtual CPU register file and the disk device."""

import pytest

from repro.hw.cpu import ALL_REGISTERS, RegisterFile, VirtualCPU
from repro.hw.cycles import CycleAccount
from repro.hw.disk import Disk
from repro.hw.mmu import MMU
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import PhysicalMemory
from repro.hw.tlb import SoftwareTLB


class TestRegisterFile:
    def test_defaults_zero(self):
        regs = RegisterFile()
        assert all(regs[name] == 0 for name in ALL_REGISTERS)

    def test_set_get(self):
        regs = RegisterFile()
        regs["r3"] = 0xDEAD
        assert regs["r3"] == 0xDEAD

    def test_unknown_register_rejected(self):
        regs = RegisterFile()
        with pytest.raises(KeyError):
            regs["r99"] = 1

    def test_values_truncated_to_64_bits(self):
        regs = RegisterFile()
        regs["r0"] = 1 << 64
        assert regs["r0"] == 0

    def test_snapshot_load_roundtrip(self):
        regs = RegisterFile()
        regs["r1"] = 11
        regs["sp"] = 0x8000
        snap = regs.snapshot()
        regs["r1"] = 99
        regs.load(snap)
        assert regs["r1"] == 11 and regs["sp"] == 0x8000

    def test_scrub_keeps_only_listed(self):
        regs = RegisterFile()
        regs["r0"] = 1
        regs["r1"] = 2
        regs["r7"] = 3
        regs.scrub(keep=["r0", "r1"])
        assert regs["r0"] == 1 and regs["r1"] == 2 and regs["r7"] == 0

    def test_scrub_everything(self):
        regs = RegisterFile()
        for name in ALL_REGISTERS:
            regs[name] = 7
        regs.scrub()
        assert all(regs[name] == 0 for name in ALL_REGISTERS)


def make_cpu():
    cycles = CycleAccount()
    mmu = MMU(PhysicalMemory(2), SoftwareTLB(4), cycles, CostTable())
    return VirtualCPU(mmu, cycles, CostTable()), cycles


class TestVirtualCPU:
    def test_execute_charges_user_cycles(self):
        cpu, cycles = make_cpu()
        cpu.execute(100)
        assert cycles.get("user") == 100

    def test_negative_compute_rejected(self):
        cpu, __ = make_cpu()
        with pytest.raises(ValueError):
            cpu.execute(-1)

    def test_trap_and_interrupt_counters(self):
        cpu, cycles = make_cpu()
        cpu.trap_cost()
        cpu.interrupt_cost()
        assert cpu.trap_count == 1 and cpu.interrupt_count == 1
        assert cycles.get("kernel") > 0


class TestDisk:
    def test_unwritten_blocks_read_zero(self):
        disk = Disk(4, PAGE_SIZE)
        assert disk.read_block(2) == bytes(PAGE_SIZE)

    def test_write_read_roundtrip(self):
        disk = Disk(4, PAGE_SIZE)
        data = b"\xab" * PAGE_SIZE
        disk.write_block(1, data)
        assert disk.read_block(1) == data

    def test_partial_block_rejected(self):
        disk = Disk(4, PAGE_SIZE)
        with pytest.raises(ValueError):
            disk.write_block(0, b"short")

    def test_bad_lba_rejected(self):
        disk = Disk(4, PAGE_SIZE)
        with pytest.raises(IndexError):
            disk.read_block(4)
        with pytest.raises(IndexError):
            disk.write_block(-1, bytes(PAGE_SIZE))

    def test_io_charges_cycles(self):
        cycles = CycleAccount()
        disk = Disk(4, PAGE_SIZE, cycles, CostTable())
        disk.write_block(0, bytes(PAGE_SIZE))
        disk.read_block(0)
        assert cycles.get("disk") == 2 * CostTable().disk_block
        assert disk.reads == 1 and disk.writes == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Disk(0, PAGE_SIZE)
