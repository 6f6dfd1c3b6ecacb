"""Shared machinery for running experiments.

Measurements are *virtual cycles* from the machine's deterministic
ledger; wall-clock timing (pytest-benchmark) only gauges the harness
itself.  Every comparison runs on a private machine so no state (page
cache, metadata, TLB) bleeds between configurations; each one is
booted fresh by :meth:`Machine.boot`.
"""

from typing import Optional, Tuple

from repro.apps.registry import make_secure_dirs
from repro.core.vmm import VMMConfig
from repro.hw.params import MachineParams
from repro.machine import BootConfig, Machine, ProcessResult


def fresh_machine(cloaked: bool = False,
                  vmm_config: Optional[VMMConfig] = None,
                  params: Optional[MachineParams] = None,
                  programs: Optional[Tuple[str, ...]] = None) -> Machine:
    """A machine with the standard suite registered and dirs created."""
    return Machine.boot(BootConfig(cloaked=cloaked, programs=programs,
                                   params=params, vmm_config=vmm_config,
                                   setup=(make_secure_dirs,)))


def measure_program(machine: Machine, name: str,
                    argv: Tuple[str, ...] = ()) -> ProcessResult:
    result = machine.run_program(name, argv)
    if result.exit_code != 0:
        raise RuntimeError(
            f"{name}{argv} exited {result.exit_code}: {result.text!r} "
            f"(violations: {machine.violations})"
        )
    return result


def compare_program(name: str, argv: Tuple[str, ...] = (),
                    vmm_config: Optional[VMMConfig] = None,
                    params: Optional[MachineParams] = None,
                    setup=None) -> Tuple[ProcessResult, ProcessResult]:
    """Run one program natively and cloaked on fresh machines.

    ``setup(machine)`` runs before the program (seed files etc.).
    Raises if the two runs' console output differs — cloaking must be
    transparent to the application.
    """
    results = []
    for cloaked in (False, True):
        machine = fresh_machine(cloaked=cloaked, vmm_config=vmm_config,
                                params=params)
        if setup is not None:
            setup(machine)
        results.append(measure_program(machine, name, argv))
    native, cloaked_result = results
    if native.console != cloaked_result.console:
        raise AssertionError(
            f"cloaking was not transparent for {name}: "
            f"{native.console!r} != {cloaked_result.console!r}"
        )
    return native, cloaked_result


def overhead_pct(native_cycles: int, cloaked_cycles: int) -> float:
    if native_cycles == 0:
        return 0.0
    return 100.0 * (cloaked_cycles - native_cycles) / native_cycles


def ratio(native_cycles: float, cloaked_cycles: float) -> float:
    if native_cycles == 0:
        return float("inf")
    return cloaked_cycles / native_cycles
