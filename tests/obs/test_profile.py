"""Cycle profiler: ledger attribution, flame summary, thrash report."""

import pytest

from repro.apps.secrets import SecretHolder
from repro.bench.runner import fresh_machine, measure_program
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.machine import Machine
from repro.obs import bus
from repro.obs.profile import CycleProfiler


def profiled_run(program="mb-readsec4k", args=("4",)):
    machine = fresh_machine(cloaked=True)
    profiler = CycleProfiler(machine.cycles)
    snap = machine.cycles.snapshot()
    with profiler:
        measure_program(machine, program, args)
    delta = machine.cycles.since(snap)
    return machine, profiler, delta


class TestAttribution:
    def test_component_tree_accounts_for_every_cycle(self):
        __, profiler, delta = profiled_run()
        tree = profiler.component_tree()
        assert sum(entry["cycles"] for entry in tree.values()) == delta.total
        assert tree["vmm"]["children"]["crypto"] > 0

    def test_breakdown_freezes_at_detach(self):
        machine, profiler, __ = profiled_run()
        frozen = profiler.breakdown()
        measure_program(machine, "mb-readsec4k", ("2",))
        assert profiler.breakdown() == frozen

    def test_flame_renders_components_with_shares(self):
        __, profiler, __d = profiled_run()
        flame = profiler.render_flame()
        assert "cycle attribution" in flame
        assert "vmm" in flame and "%" in flame and "#" in flame

    def test_empty_interval_renders_gracefully(self):
        machine = fresh_machine(cloaked=True)
        profiler = CycleProfiler(machine.cycles)
        with profiler:
            pass
        assert "no cycles" in profiler.render_flame()
        assert "no cloaking transitions" in profiler.render_thrash()


class TestThrash:
    def test_collects_cloak_transitions_with_costs(self):
        __, profiler, __d = profiled_run()
        counts = profiler.transition_counts()
        assert counts.get("zero-fill", 0) >= 1
        assert counts.get("encrypt", 0) >= 1
        assert all(t.cost >= 0 for t in profiler.transitions)

    def test_hottest_pages_ranked_by_transition_count(self):
        __, profiler, __d = profiled_run()
        pages = profiler.hottest_pages()
        assert pages
        counts = [count for __o, __v, count, __c in pages]
        assert counts == sorted(counts, reverse=True)

    def test_hottest_pages_include_secret_page(self):
        machine = Machine.build()
        machine.register(SecretHolder, cloaked=True)
        with CycleProfiler(machine.cycles) as profiler:
            proc = machine.spawn("secretholder", ("6",))
            machine.run_until_output(proc.pid, b"ready\n")
            vaddr = proc.runtime.program.secret_vaddr
            machine.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
            machine.mmu.read(vaddr, 8)   # force encrypt
            machine.run()
        secret_vpn = vaddr >> 12
        assert any(vpn == secret_vpn
                   for __o, vpn, __n, __c in profiler.hottest_pages())

    def test_thrash_report_renders(self):
        __, profiler, __d = profiled_run()
        report = profiler.render_thrash(top=3)
        assert "page thrash report" in report
        assert "hottest pages" in report


class TestLifecycle:
    def test_double_attach_rejected(self):
        machine = fresh_machine(cloaked=True)
        profiler = CycleProfiler(machine.cycles)
        profiler.attach()
        with pytest.raises(RuntimeError):
            profiler.attach()
        profiler.detach()
        assert not bus.ACTIVE

    def test_detach_is_idempotent(self):
        machine = fresh_machine(cloaked=True)
        profiler = CycleProfiler(machine.cycles)
        profiler.attach()
        profiler.detach()
        profiler.detach()
        assert profiler not in bus.attached_sinks()
