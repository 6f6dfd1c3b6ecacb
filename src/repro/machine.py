"""Machine assembly and execution loop.

:class:`Machine` wires the whole system together — simulated hardware,
the Overshadow VMM, and the untrusted guest OS — and plays the role of
the hardware's fetch-execute loop: it pulls user operations from the
scheduled process's runtime, performs them under the correct
protection context, reflects traps into the kernel, and enforces
timeslices.

This is the single entry point examples, tests, and benchmarks use::

    machine = Machine.build()
    machine.register(MyProgram, cloaked=True)
    result = machine.run_program("myprogram")
"""

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.apps.program import NativeRuntime, Program
from repro.core.ctc import ExitReason
from repro.core.errors import OvershadowError
from repro.core.shim import ShimRuntime
from repro.core.vmm import VMM, VMMConfig
from repro.guestos.blockcache import DMAGateway
from repro.guestos.kernel import Kernel
from repro.guestos.process import Process, ProcessState
from repro.guestos.uapi import (
    Alu,
    Blocked,
    Copy,
    GetReg,
    HypercallOp,
    Load,
    SetReg,
    Store,
    Syscall,
    SyscallOp,
    UserOp,
)
from repro.hw.cpu import VirtualCPU
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.disk import Disk
from repro.hw.faults import PageFault
from repro.hw.mmu import MMU
from repro.hw import snapshot as snapshot_mod
from repro.hw.params import MachineParams, default_params
from repro.hw.phys import FrameAllocator, PhysicalMemory
from repro.hw.tlb import SoftwareTLB
from repro.faults.plan import SITE_EVICT_UNDER_USE
from repro.guestos import uapi
from repro.obs import bus

#: The syscall argument window: a syscall's integer arguments are
#: staged here, and only the registers so staged stay kernel-visible.
VISIBLE_SYSCALL_REGS = ("r0", "r1", "r2", "r3", "r4", "r5")

_MASK64 = 0xFFFFFFFFFFFFFFFF


class MachineDeadlock(RuntimeError):
    """Every live process is blocked and nothing can wake them."""


class MachineLivelock(RuntimeError):
    """The machine did not quiesce within its op budget."""


class ViolationRecord:
    """One cloaking violation observed at runtime (attack detected)."""

    __slots__ = ("pid", "error")

    def __init__(self, pid: int, error: OvershadowError):
        self.pid = pid
        # A record of a detection, not a crash report: the error's
        # traceback holds frames of the machine that keeps this
        # record, a reference cycle.
        self.error = error.with_traceback(None)

    def __repr__(self) -> str:
        return f"ViolationRecord(pid={self.pid}, {type(self.error).__name__})"


class ProcessResult:
    """Outcome of one completed process, for tests and benchmarks."""

    def __init__(self, pid: int, exit_code: int, console: bytes,
                 cycles_total: int, cycles_breakdown: Dict[str, int],
                 stats: Dict[str, int]):
        self.pid = pid
        self.exit_code = exit_code
        self.console = console
        self.cycles_total = cycles_total
        self.cycles_breakdown = cycles_breakdown
        self.stats = stats

    @property
    def text(self) -> str:
        return self.console.decode(errors="replace")

    def __repr__(self) -> str:
        return (f"ProcessResult(pid={self.pid}, exit={self.exit_code}, "
                f"cycles={self.cycles_total})")


@dataclass(frozen=True)
class BootConfig:
    """Everything that shapes a booted machine, as a frozen value.

    Equal configs boot cycle- and state-identical machines
    (:meth:`Machine.boot`).
    """

    cloaked: bool = False
    #: Suite programs to register by name (``None``: the whole suite).
    programs: Optional[Tuple[str, ...]] = None
    params: Optional[MachineParams] = None
    vmm_config: Optional[VMMConfig] = None
    #: Hooks run in order after registration (directories, seed files).
    setup: Tuple[Callable[["Machine"], None], ...] = ()


class _VMMDma(DMAGateway):
    """Device DMA routed through the VMM (IOMMU interposition)."""

    def __init__(self, vmm: VMM):
        self._vmm = vmm

    def read_frame(self, gpfn: int) -> bytes:
        return self._vmm.dma_read_frame(gpfn)

    def write_frame(self, gpfn: int, data: bytes) -> None:
        self._vmm.dma_write_frame(gpfn, data)


class Machine:
    """A complete simulated host: hardware + VMM + guest OS."""

    def __init__(self, params: Optional[MachineParams] = None,
                 vmm_config: Optional[VMMConfig] = None,
                 fault_plan=None):
        self.params = params or default_params()
        costs = self.params.costs
        self.faults = fault_plan
        if fault_plan is not None:
            # Local import: the zero-fault path must not depend on the
            # injection harness.
            from repro.faults import injector as _inj
        self.cycles = CycleAccount()
        self.stats = StatCounters()
        self.phys = PhysicalMemory(self.params.total_frames)
        self.alloc = FrameAllocator(self.params.total_frames)
        if fault_plan is not None:
            self.tlb = _inj.FaultyTLB(self.params.tlb_entries, fault_plan)
        else:
            self.tlb = SoftwareTLB(self.params.tlb_entries)
        self.mmu = MMU(self.phys, self.tlb, self.cycles, costs)
        self.cpu = VirtualCPU(self.mmu, self.cycles, costs)
        self.vmm = VMM(self.phys, self.mmu, self.cpu, self.cycles, self.stats,
                       costs, config=vmm_config)
        if fault_plan is not None:
            self.disk = _inj.FaultyDisk(self.params.disk_blocks,
                                        self.params.block_size,
                                        self.cycles, costs, plan=fault_plan)
        else:
            self.disk = Disk(self.params.disk_blocks, self.params.block_size,
                             self.cycles, costs)
        self.dma = _VMMDma(self.vmm)
        cache = None
        if fault_plan is not None:
            cache = _inj.FaultyBlockCache(self.disk, self.dma, fault_plan)
        self.kernel = Kernel(self.phys, self.alloc, self.mmu, self.cpu,
                             self.cycles, self.stats, costs, self.disk,
                             self.dma, arch=self.vmm, cache=cache)
        if fault_plan is not None:
            self.vmm.faults = _inj.VMMFaultHooks(fault_plan)
            self.vmm.cloak.faults = _inj.CloakFaultHooks(fault_plan)
            self.kernel.reclaimer.swap = _inj.FaultySwap(
                self.kernel.reclaimer.swap, fault_plan, self.phys)
        self.violations: List[ViolationRecord] = []

    @classmethod
    def build(cls, params: Optional[MachineParams] = None,
              vmm_config: Optional[VMMConfig] = None,
              fault_plan=None) -> "Machine":
        return cls(params, vmm_config, fault_plan)

    @classmethod
    def boot(cls, config: BootConfig, fault_plan=None) -> "Machine":
        """A machine booted to ``config``: built under ``fault_plan``,
        the suite programs registered, then the setup hooks run."""
        # Local import: the program suite itself imports this module.
        from repro.apps.registry import register_all

        machine = cls.build(config.params, config.vmm_config, fault_plan)
        register_all(machine, cloaked=config.cloaked, only=config.programs)
        for hook in config.setup:
            hook(machine)
        return machine

    # ------------------------------------------------------------------
    # snapshots (capture once, restore per run)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Capture this quiescent, unplanned machine as a snapshot: one
        pickle of the whole machine, guest memory included.

        See :mod:`repro.hw.snapshot` for what is shared vs. copied and
        the quiescence/fault-plan restrictions.
        """
        return snapshot_mod.SnapshotState(self)

    @classmethod
    def from_snapshot(cls, snapshot) -> "Machine":
        """A fresh machine restored from ``snapshot``.

        Cycle- and state-identical to the machine that was captured,
        and sharing no mutable state with it or with other restores.
        """
        return snapshot.restore()

    # ------------------------------------------------------------------
    # program registration / spawning
    # ------------------------------------------------------------------

    def register(self, program_cls: Type[Program], cloaked: bool = False,
                 name: Optional[str] = None) -> str:
        """Install a program; cloaked programs get the shim runtime and
        a provisioned VMM identity."""
        prototype = program_cls()
        reg_name = name or prototype.name
        image = prototype.image_bytes()
        if cloaked:
            self.vmm.register_identity(reg_name, image)

            def runtime_factory(program, argv, _n=reg_name, _img=image):
                return ShimRuntime(program, argv, _n, _img)
        else:
            def runtime_factory(program, argv):
                return NativeRuntime(program, argv)

        self.kernel.register_program(reg_name, program_cls, runtime_factory,
                                     image)
        return reg_name

    def spawn(self, name: str, argv: Tuple[str, ...] = ()) -> Process:
        return self.kernel.spawn(name, argv)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, max_ops: int = 20_000_000, until=None) -> int:
        """Run until every process has exited; returns ops executed.

        ``until`` (a predicate over the machine) stops execution early
        at a slice boundary once it returns True — the attack harness
        uses it to pause the world at interesting moments.
        """
        executed = 0
        next_reclaim = self._next_reclaim_deadline()
        while executed < max_ops:
            if until is not None and until(self):
                return executed
            if next_reclaim is not None and self.cycles.total >= next_reclaim:
                # Periodic memory pressure: the kernel steals pages.
                try:
                    self.kernel.reclaimer.reclaim(
                        self.params.reclaim_batch_pages)
                except OvershadowError as violation:
                    # Fault injection can make an eviction's encrypt
                    # step refuse (e.g. a stuck version counter).  The
                    # engine raises before mutating any state, so
                    # abandoning the batch is safe; record the
                    # detection against the system (pid -1).
                    self.violations.append(ViolationRecord(-1, violation))
                    self.stats.bump("machine.violations")
                    bus.vmm_violation(-1, type(violation).__name__)
                next_reclaim = self._next_reclaim_deadline()
            self.kernel.wake_due_sleepers()
            proc = self.kernel.scheduler.pick()
            if proc is None:
                if self._advance_idle():
                    continue
                return executed
            executed += self._run_slice(proc)
            if bus.ACTIVE:
                # Per-slice aggregate of the TLB's fast-path counters:
                # per-hit probes would swamp the bus (and the host-time
                # budget); cumulative totals at slice boundaries carry
                # the same information.
                bus.tlb_hits(self.tlb.hits, self.tlb.misses)
        raise MachineLivelock(f"machine did not quiesce within {max_ops} ops")

    def _next_reclaim_deadline(self) -> Optional[int]:
        interval = self.params.reclaim_interval_cycles
        if interval <= 0:
            return None
        return self.cycles.total + interval

    def run_until_output(self, pid: int, marker: bytes,
                         max_ops: int = 20_000_000) -> int:
        """Run until process ``pid`` has printed ``marker``."""
        return self.run(
            max_ops=max_ops,
            until=lambda m: marker in m.kernel.console.output_of(pid),
        )

    def run_program(self, name: str, argv: Tuple[str, ...] = (),
                    max_ops: int = 20_000_000) -> ProcessResult:
        """Spawn one program, run the machine to completion, and report."""
        cycle_snap = self.cycles.snapshot()
        stat_snap = self.stats.snapshot()
        proc = self.spawn(name, argv)
        self.run(max_ops=max_ops)
        delta = self.cycles.since(cycle_snap)
        return ProcessResult(
            pid=proc.pid,
            exit_code=proc.exit_code if proc.exit_code is not None else -1,
            console=self.kernel.console.output_of(proc.pid),
            cycles_total=delta.total,
            cycles_breakdown=delta.breakdown(),
            stats=self.stats.since(stat_snap),
        )

    def _advance_idle(self) -> bool:
        """No READY process: jump to the next sleeper deadline, or
        detect deadlock / completion."""
        deadline = self.kernel.earliest_sleep_deadline()
        if deadline is not None:
            gap = max(0, deadline - self.cycles.total)
            self.cycles.charge("sched", gap)
            self.kernel.wake_due_sleepers()
            return True
        blocked = [p for p in self.kernel.processes.values()
                   if p.state is ProcessState.BLOCKED]
        if blocked:
            raise MachineDeadlock(
                "all runnable work is blocked: "
                + ", ".join(f"{p.pid}:{p.name}" for p in blocked)
            )
        return False

    # ------------------------------------------------------------------
    # one scheduling slice
    # ------------------------------------------------------------------

    def _run_slice(self, proc: Process) -> int:
        kernel = self.kernel
        cycles = self.cycles
        self.cycles.charge("sched", self.params.costs.schedule)

        if self._deliver_signals(proc):
            return 0  # killed by a default-fatal signal
        if proc.state is not ProcessState.RUNNING:
            return 0

        # Restart a syscall that blocked earlier (kernel context).
        if proc.pending_syscall is not None:
            number, args, extra = proc.pending_syscall
            proc.pending_syscall = None
            outcome = kernel.handle_syscall(proc, number, args, extra)
            if isinstance(outcome, Blocked):
                kernel.park(proc, outcome, number, args, extra)
                return 0
            if proc.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
                return 0
            proc.resume_result = outcome

        # Kernel context-switch: restore the PCB register snapshot (for
        # cloaked threads these are the scrubbed values; the VMM's CTC
        # restore below overrides them with the real ones).
        if proc.saved_regs is not None:
            self.cpu.regs.load(proc.saved_regs)
        vmm = self.vmm
        cpu = self.cpu
        vmm.enter_user(proc.pid, proc.asid)
        slice_start = cycles.total
        result = proc.resume_result
        proc.resume_result = None
        executed = 0

        # The fetch-execute loop below is the single hottest region of
        # the simulator.  Dispatch is by exact class identity with every
        # per-iteration attribute lookup hoisted; the op classes are
        # leaf types (uapi declares no subclasses), so `cls is Alu`
        # decides exactly what `isinstance(op, Alu)` decides, and
        # anything else is not a user op at all: a TypeError.
        # Costs, charge order, and timeslice boundaries are untouched —
        # the cycle ledger stays bit-identical (the ledger golden and
        # cycle_hash tests).
        next_op = proc.runtime.next_op
        user_memory = self._user_memory
        execute = cpu.execute
        regs = cpu.regs
        pid = proc.pid
        timeslice = self.params.timeslice_cycles

        while True:
            op = next_op(result)
            result = None
            executed += 1
            if op is None:
                # Runtime exhausted without an EXIT reaching the kernel.
                vmm.exit_user(pid, ExitReason.INTERRUPT)
                kernel.do_exit(proc, 0)
                return executed

            try:
                cls = op.__class__
                if cls is Alu:
                    execute(op.units)
                elif cls is Load:
                    result = user_memory(proc, op, "load")
                elif cls is Store:
                    user_memory(proc, op, "store")
                elif cls is SyscallOp:
                    disposition, result = self._execute_syscall(proc, op)
                    if disposition == "stop":
                        proc.saved_regs = regs.snapshot()
                        return executed
                    # exec(2) may have swapped in a fresh runtime.
                    next_op = proc.runtime.next_op
                elif cls is Copy:
                    user_memory(proc, op, "copy")
                elif cls is SetReg:
                    regs[op.name] = op.value
                elif cls is GetReg:
                    result = regs[op.name]
                elif cls is HypercallOp:
                    result = vmm.hypercall(op.number, op.args)
                else:
                    raise TypeError(f"unknown user op {op!r}")
            except _SliceOver:
                return executed
            except OvershadowError as violation:
                # The VMM refused to expose cloaked data.  The paper's
                # response: the access never succeeds; we additionally
                # terminate the application (it cannot make progress).
                self.violations.append(ViolationRecord(proc.pid, violation))
                self.stats.bump("machine.violations")
                bus.vmm_violation(proc.pid, type(violation).__name__)
                vmm.exit_user(pid, ExitReason.FAULT)
                kernel.do_exit(proc, 139)
                return executed

            if cycles.total - slice_start >= timeslice:
                if proc.state is ProcessState.RUNNING:
                    vmm.exit_user(pid, ExitReason.INTERRUPT)
                    cpu.interrupt_cost()
                    proc.resume_result = result
                    proc.saved_regs = regs.snapshot()
                    kernel.scheduler.requeue(proc)
                return executed

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _user_memory(self, proc: Process, op: UserOp, kind: str) -> Any:
        """Perform a user memory op, reflecting page faults to the
        kernel and retrying (restartable instruction semantics)."""
        if self.faults is not None and self.faults.decide(SITE_EVICT_UNDER_USE):
            # Evict-under-use injection: the kernel steals pages right
            # under the running application's feet.  Legitimate (if
            # hostile-looking) behaviour the cloaking protocol must
            # absorb transparently.
            self.kernel.reclaimer.reclaim(self.params.reclaim_batch_pages)
        while True:
            try:
                if kind == "load":
                    return self.mmu.read(op.vaddr, op.size)
                if kind == "store":
                    self.mmu.write(op.vaddr, op.data)
                    return None
                data = self.mmu.read(op.src, op.nbytes)
                self.mmu.write(op.dst, data)
                return None
            except PageFault as fault:
                self.vmm.exit_user(proc.pid, ExitReason.FAULT)
                self.cpu.trap_cost()
                resolved = self.kernel.handle_page_fault(proc, fault)
                if not resolved:
                    self.kernel.post_signal(proc, uapi.SIGSEGV)
                    # Default action is fatal unless handled.
                    if self.kernel.signal_action(proc, uapi.SIGSEGV) != 2:
                        self.kernel.do_exit(proc, 128 + uapi.SIGSEGV)
                        raise _SliceOver()
                self.vmm.enter_user(proc.pid, proc.asid)

    def _execute_syscall(self, proc: Process, op: SyscallOp) -> Tuple[str, Any]:
        # Stage integer arguments in the argument registers — those,
        # and only those, are what the kernel is allowed to see (CTC
        # scrubbing hides the rest for cloaked threads, including
        # argument registers the call does not use).  zip truncates at
        # six args, matching the register file's argument window.
        regs = self.cpu.regs.live
        staged = []
        for name, arg in zip(VISIBLE_SYSCALL_REGS, op.args):
            if isinstance(arg, int):
                regs[name] = arg & _MASK64
                staged.append(name)
        self.vmm.exit_user(proc.pid, ExitReason.SYSCALL, visible_regs=staged)
        self.cpu.trap_cost()

        runtime_before = proc.runtime
        outcome = self.kernel.handle_syscall(proc, op.number, op.args, op.extra)

        if isinstance(outcome, Blocked):
            self.kernel.park(proc, outcome, op.number, op.args, op.extra)
            return "stop", None
        if proc.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
            return "stop", None
        # Return-to-user is a signal delivery point (as on real
        # kernels): fatal defaults take effect before the next
        # instruction, handlers run before the syscall result is
        # consumed... exactly POSIX's "interrupted at the boundary".
        if proc.pending_signals and self._deliver_signals(proc):
            return "stop", None
        if proc.runtime is not runtime_before:
            # exec(2): a fresh runtime; nothing to deliver to the old one.
            self.vmm.enter_user(proc.pid, proc.asid)
            return "continue", None
        if op.number == Syscall.YIELD:
            proc.resume_result = outcome
            self.kernel.scheduler.requeue(proc)
            return "stop", None
        self.vmm.enter_user(proc.pid, proc.asid)
        return "continue", outcome

    # ------------------------------------------------------------------
    # signal delivery
    # ------------------------------------------------------------------

    def _deliver_signals(self, proc: Process) -> bool:
        """Deliver pending signals; returns True if the process died."""
        while True:
            sig = self.kernel.next_deliverable_signal(proc)
            if sig is None:
                return False
            action = self.kernel.signal_action(proc, sig)
            if action == 2 and proc.runtime.deliver_signal(sig):
                # The handler generator is pushed onto the program's own
                # frame stack, cloaked or not, and the delivery costs
                # one ``interrupt``; no trampoline, no CTC save.
                self.cycles.charge("kernel", self.params.costs.interrupt)
                self.stats.bump("kernel.signals_delivered")
                continue
            if sig in uapi.FATAL_SIGNALS:
                self.kernel.do_exit(proc, 128 + sig)
                self.stats.bump("kernel.signals_fatal")
                return True
            # Default action for everything else: ignore.


class _SliceOver(Exception):
    """Internal: unwinds op execution after a fatal fault."""
