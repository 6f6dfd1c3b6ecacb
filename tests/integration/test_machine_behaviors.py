"""Machine-level behaviours: scheduling fairness, preemption, yields,
deadlock detection, and violation accounting."""

import pytest

from repro.apps.program import Program
from repro.guestos import uapi
from repro.machine import Machine, MachineDeadlock


class TestSchedulingAndPreemption:
    def test_two_processes_interleave(self):
        """Long-running processes must share the CPU (preemption)."""

        class Spinner(Program):
            name = "spinner"
            finish_order = []

            def main(self, ctx):
                for __ in range(20):
                    yield ctx.alu(50_000)  # well beyond one timeslice
                type(self).finish_order.append(ctx.pid)
                return 0

        machine = Machine.build()
        machine.register(Spinner)
        a = machine.spawn("spinner")
        b = machine.spawn("spinner")
        machine.run()
        # Both finish; with round-robin and equal work, close together.
        assert set(Spinner.finish_order) == {a.pid, b.pid}
        assert machine.kernel.scheduler.context_switches > 4

    def test_yield_rotates(self):
        class Turns(Program):
            name = "turns"
            log = []

            def main(self, ctx):
                for i in range(3):
                    type(self).log.append(ctx.pid)
                    yield ctx.sched_yield()
                return 0

        machine = Machine.build()
        machine.register(Turns)
        machine.spawn("turns")
        machine.spawn("turns")
        machine.run()
        # Strict alternation: 1,2,1,2,...
        assert Turns.log == [1, 2, 1, 2, 1, 2]

    def test_deadlock_detected(self):
        class Stuck(Program):
            name = "stuck"

            def main(self, ctx):
                rfd, wfd = yield ctx.pipe()
                buf = ctx.scratch(4)
                yield ctx.read(rfd, buf, 4)  # nobody will ever write
                return 0

        machine = Machine.build()
        machine.register(Stuck)
        machine.spawn("stuck")
        with pytest.raises(MachineDeadlock):
            machine.run()

    def test_run_until_output(self):
        class Chatty(Program):
            name = "chatty"

            def main(self, ctx):
                yield from ctx.print("first\n")
                yield ctx.sched_yield()
                yield from ctx.print("second\n")
                return 0

        machine = Machine.build()
        machine.register(Chatty)
        proc = machine.spawn("chatty")
        machine.run_until_output(proc.pid, b"first\n")
        text = machine.kernel.console.text_of(proc.pid)
        assert "first" in text and "second" not in text
        machine.run()
        assert "second" in machine.kernel.console.text_of(proc.pid)

    def test_run_op_budget_enforced(self):
        class Forever(Program):
            name = "forever"

            def main(self, ctx):
                while True:
                    yield ctx.alu(1)

        machine = Machine.build()
        machine.register(Forever)
        machine.spawn("forever")
        with pytest.raises(RuntimeError):
            machine.run(max_ops=5_000)

    @pytest.mark.parametrize("cloaked", [False, True])
    def test_non_op_yield_is_a_type_error(self, cloaked):
        class Bogus(Program):
            name = "bogus"

            def main(self, ctx):
                yield 42
                return 0

        machine = Machine.build()
        machine.register(Bogus, cloaked=cloaked)
        with pytest.raises(TypeError, match="^unknown user op 42$"):
            machine.run_program("bogus")


class TestViolationAccounting:
    def test_violation_recorded_and_process_killed(self):
        from repro.apps.secrets import SecretHolder

        machine = Machine.build()
        machine.register(SecretHolder, cloaked=True)
        proc = machine.spawn("secretholder", ("10",))
        machine.run_until_output(proc.pid, b"ready\n")
        vaddr = proc.runtime.program.secret_vaddr
        # Kernel-role tamper.
        from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW

        machine.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
        machine.mmu.write(vaddr, b"\x00")
        machine.run()
        assert len(machine.violations) == 1
        assert machine.violations[0].pid == proc.pid
        assert proc.exit_code == 139
        assert machine.stats.get("machine.violations") == 1

    def test_violation_does_not_take_down_other_processes(self):
        from repro.apps.secrets import SecretHolder
        from repro.apps.compute import ShaLoop
        from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW

        machine = Machine.build()
        machine.register(SecretHolder, cloaked=True)
        machine.register(ShaLoop, cloaked=True)
        victim = machine.spawn("secretholder", ("10",))
        bystander = machine.spawn("shaloop")
        machine.run_until_output(victim.pid, b"ready\n")
        vaddr = victim.runtime.program.secret_vaddr
        machine.mmu.set_context(victim.asid, SYSTEM_VIEW, MODE_KERNEL)
        machine.mmu.write(vaddr, b"\x00")
        machine.run()
        assert victim.exit_code == 139
        assert bystander.exit_code == 0
        assert "shaloop:" in machine.kernel.console.text_of(bystander.pid)


class TestMultiProcessIsolation:
    def test_two_cloaked_apps_cannot_see_each_other(self):
        """Different identities: frames decrypt only for their owner."""
        from repro.apps.secrets import SECRET, SecretHolder

        class Prober(Program):
            name = "prober"

            def main(self, ctx):
                # Probe every frame it can reach through its own AS —
                # nothing of the other app is mapped, so probing its
                # own space must find no foreign secret.
                base = ctx.scratch(4096)
                data = yield ctx.load(base, 64)
                yield from ctx.print("clean\n" if SECRET[:8] not in data
                                     else "leak\n")
                return 0

        machine = Machine.build()
        machine.register(SecretHolder, cloaked=True)
        machine.register(Prober, cloaked=True)
        victim = machine.spawn("secretholder", ("4",))
        prober = machine.spawn("prober")
        machine.run()
        assert "clean" in machine.kernel.console.text_of(prober.pid)
        assert "intact" in machine.kernel.console.text_of(victim.pid)

    def test_console_streams_are_separate(self):
        class Talker(Program):
            name = "talker"

            def main(self, ctx):
                yield from ctx.print(f"pid={ctx.pid}\n")
                return 0

        machine = Machine.build()
        machine.register(Talker)
        a = machine.spawn("talker")
        b = machine.spawn("talker")
        machine.run()
        assert machine.kernel.console.text_of(a.pid) == f"pid={a.pid}\n"
        assert machine.kernel.console.text_of(b.pid) == f"pid={b.pid}\n"
