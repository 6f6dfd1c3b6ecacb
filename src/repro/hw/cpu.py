"""Virtual CPU: register file, privilege mode, and trap bookkeeping.

Program *logic* in this simulation executes as Python generators (see
:mod:`repro.apps.program`), so the CPU does not fetch-decode-execute.
What it does model is everything Overshadow's protection argument
touches: an architectural register file that traps expose to the
kernel (and that the VMM must scrub), and cycle charging for compute
and traps.  The privilege mode and the address-space/view pair that
select translations are the MMU's access context, its only copy.
"""

from types import MappingProxyType
from typing import Dict, List, Mapping

from repro.hw.cycles import CycleAccount
from repro.hw.mmu import MMU
from repro.hw.params import CostTable

#: Architectural general-purpose register names.  By convention,
#: ``r0``..``r5`` carry syscall/hypercall arguments, ``r0`` the return
#: value; the rest are scratch the application may keep secrets in.
GP_REGISTERS = ("r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7")
SPECIAL_REGISTERS = ("pc", "sp")
ALL_REGISTERS = GP_REGISTERS + SPECIAL_REGISTERS

#: The all-zero register file, in architectural order (read-only): a
#: fresh file is a copy of it.
ZERO_REGISTERS: Mapping[str, int] = MappingProxyType(
    dict.fromkeys(ALL_REGISTERS, 0))


class RegisterFile:
    """The architectural registers visible at a trap.  ``live`` is the
    register dict itself: a world switch may replace it with a complete
    file it gives up, and whoever keeps the values copies them."""

    def __init__(self) -> None:
        self.live: Dict[str, int] = dict(ZERO_REGISTERS)

    def __getitem__(self, name: str) -> int:
        return self.live[name]

    def __setitem__(self, name: str, value: int) -> None:
        if name not in self.live:
            raise KeyError(f"no register {name!r}")
        self.live[name] = value & 0xFFFFFFFFFFFFFFFF

    def snapshot(self) -> Dict[str, int]:
        return dict(self.live)

    def load(self, values: Dict[str, int]) -> None:
        """Copy ``values`` into the live file (a register missing there
        reads 0); the caller keeps ``values`` to itself."""
        live = self.live
        for name in ALL_REGISTERS:
            live[name] = values.get(name, 0)

    def scrub(self, keep: List[str] = ()) -> None:
        """Zero every register not listed in ``keep``.

        This is what the VMM does on an uncontrolled transfer out of a
        cloaked context: the kernel sees only the registers it is
        entitled to (e.g. syscall arguments on an intentional call).
        """
        live = self.live
        for name in live:
            if name not in keep:
                live[name] = 0

    def __repr__(self) -> str:
        return "RegisterFile(" + ", ".join(
            f"{n}={v:#x}" for n, v in self.live.items() if v
        ) + ")"


class VirtualCPU:
    """One simulated CPU, bound to an MMU and a cycle account."""

    def __init__(self, mmu: MMU, cycles: CycleAccount, costs: CostTable):
        self.mmu = mmu
        self.cycles = cycles
        self._costs = costs
        self.regs = RegisterFile()
        self.trap_count = 0
        self.interrupt_count = 0

    # -- costs ----------------------------------------------------------------

    def execute(self, units: int) -> None:
        """Charge ``units`` of application compute."""
        if units < 0:
            raise ValueError("negative compute")
        self.cycles.charge("user", units * self._costs.alu)

    def trap_cost(self) -> None:
        self.trap_count += 1
        self.cycles.charge("kernel", self._costs.trap)

    def interrupt_cost(self) -> None:
        self.interrupt_count += 1
        self.cycles.charge("kernel", self._costs.interrupt)
