"""Syscall-interface lies (Iago-style OS misbehaviour).

The kernel can always *misbehave through the interfaces it legally
implements*: return forged data from read(2), shorten buffers, lie in
stat.  The paper (and its HotSec follow-up) is explicit that
Overshadow narrows but does not eliminate this surface:

* on a *protected* file, read/write never consult the kernel at all
  (memory-mapped emulation), so the lie has no effect — DEFEATED;
* on an *unprotected* channel the forged data is consumed — recorded
  as OUT-OF-SCOPE, because the threat model never claimed otherwise.
"""

from repro.attacks.base import Attack, AttackOutcome, AttackReport
from repro.guestos.process import Process
from repro.guestos.uapi import Syscall
from repro.machine import Machine


def _install_lying_read(machine: Machine) -> None:
    """Wrap the kernel's read(2) to return forged bytes.  The wrapper
    reaches the kernel through its argument, not its closure, so the
    kernel's handler table does not point back at the kernel."""
    kernel = machine.kernel
    real_read = kernel._handlers[Syscall.READ]

    def lying_read(kern, proc, args, extra):
        result = real_read(kern, proc, args, extra)
        if isinstance(result, int) and result > 0:
            __, buf_vaddr, __ = args
            forged = (b"FORGED" * (result // 6 + 1))[:result]
            kern.copy_to_user(proc, buf_vaddr, forged)
        return result

    kernel._handlers[Syscall.READ] = lying_read


class _LieBase(Attack):
    def run(self, machine: Machine, victim: Process) -> AttackReport:
        _install_lying_read(machine)
        final = self.finish(machine, victim)
        consumed_forgery = "FILE CORRUPTED" in final
        detail = f"victim: {final.strip()!r}"
        if machine.violations:
            return AttackReport(self.name, victim.cloaked,
                                AttackOutcome.DETECTED, detail)
        if consumed_forgery:
            return AttackReport(self.name, victim.cloaked,
                                self.forgery_outcome, detail)
        return AttackReport(self.name, victim.cloaked,
                            AttackOutcome.DEFEATED, detail)


class LyingReadProtectedFile(_LieBase):
    """The lie targets a protected file: emulation bypasses it."""

    name = "syscall-lie-protected"
    description = "kernel forges read(2) results; file is protected"
    #: If forged data IS consumed here, the defence failed outright.
    forgery_outcome = AttackOutcome.LEAKED


class LyingReadUnprotectedFile(_LieBase):
    """The lie targets an unprotected file: the paper's stated limit."""

    name = "syscall-lie-unprotected"
    description = "kernel forges read(2) results; file is unprotected"
    forgery_outcome = AttackOutcome.OUT_OF_SCOPE
