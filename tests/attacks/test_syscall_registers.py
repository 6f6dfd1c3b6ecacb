"""A kernel that reads the argument registers a syscall did not use.

On an intentional syscall the VMM leaves the call's arguments visible
and scrubs the rest of the register file.  The argument window is six
registers wide, but a call with fewer integer arguments must not
expose the window's spare registers: a cloaked application may hold
secrets there.  Here the victim parks secrets in r1–r5 and then makes
a zero-argument call (``getpid``) and a one-argument blocking call
(``nanosleep``).  The kernel looks at the register file on every
syscall it handles, and at the process's saved registers (its PCB)
while the victim is blocked; it must see none of the secrets.

Only syscalls made while the victim is cloaked count: its exit path
leaves the protection domain before the final ``exit`` call, and from
then on its registers are an uncloaked thread's.
"""

from repro.apps.program import Program
from repro.machine import Machine

SECRETS = {f"r{i}": 0x5EC12E7_0000 + i for i in range(1, 6)}


class RegisterSecrets(Program):
    """Parks a secret in each of r1–r5, then makes two syscalls."""

    name = "regsecrets"

    def main(self, ctx):
        for name, value in SECRETS.items():
            yield ctx.set_reg(name, value)
        yield ctx.getpid()
        yield ctx.nanosleep(5000)
        for name, value in SECRETS.items():
            if (yield ctx.get_reg(name)) != value:
                yield from ctx.print("REGS CLOBBERED\n")
                return 1
        yield from ctx.print("intact\n")
        return 0


def _leaks(regs):
    return {name: hex(value) for name, value in regs.items()
            if value in SECRETS.values()}


def test_kernel_never_sees_unused_argument_registers():
    machine = Machine.build()
    machine.register(RegisterSecrets, cloaked=True)
    victim = machine.spawn(RegisterSecrets.name)

    kernel = machine.kernel
    seen = []
    handle_syscall = kernel.handle_syscall

    def spying_handle_syscall(proc, number, args, extra):
        if proc is victim and machine.vmm.thread_domain(proc.pid):
            seen.append((number.name, _leaks(machine.cpu.regs.snapshot())))
        return handle_syscall(proc, number, args, extra)

    kernel.handle_syscall = spying_handle_syscall
    pcb_leaks = []

    def victim_blocked(m):
        if victim.pending_syscall is not None and victim.saved_regs:
            pcb_leaks.append(_leaks(victim.saved_regs))
        return False

    machine.run(until=victim_blocked)

    names = [name for name, __ in seen]
    assert "GETPID" in names and "NANOSLEEP" in names, names
    assert [leak for __, leak in seen if leak] == []
    assert pcb_leaks and not any(pcb_leaks), pcb_leaks
    assert "intact" in kernel.console.text_of(victim.pid)
    assert machine.violations == []
