"""The guest kernel: process lifecycle, trap handling, syscall dispatch.

The kernel is *untrusted* in Overshadow's threat model.  Nothing here
may (or can) consult cloaking state: user memory is reached only
through the MMU in system view, so cloaked buffers simply read as
ciphertext.  The only VMM contact is the architectural interface
(``arch``): address-space registration, ``invlpg``, and lifecycle
notifications — the same events a real OS generates on real hardware.
"""

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.guestos import layout, uapi
from repro.guestos.blockcache import BlockCache, DMAGateway
from repro.guestos.process import AddressSpace, OpenFile, Process, ProcessState, VMA
from repro.guestos.ramfs import RamFS
from repro.guestos.scheduler import Scheduler
from repro.guestos.uapi import Blocked, Syscall, WaitChannel
from repro.guestos.vfs import VFS, VFSError
from repro.hw.cpu import VirtualCPU
from repro.hw.cycles import CycleAccount, StatCounters
from repro.hw.disk import Disk
from repro.hw.faults import PageFault, PageFaultReason
from repro.hw.mmu import MMU, MODE_KERNEL, SYSTEM_VIEW
from repro.hw.params import CostTable, PAGE_SIZE
from repro.hw.phys import FrameAllocator, OutOfMemoryError, PhysicalMemory

#: Merged syscall-number -> module-function map.  Static for the
#: process lifetime, so built once and shared by every kernel —
#: dispatch passes the kernel explicitly, which keeps snapshot restore
#: free of any per-machine table rebuild.
_HANDLER_FNS: Optional[Dict[Syscall, Callable]] = None


def _handler_functions() -> Dict[Syscall, Callable]:
    global _HANDLER_FNS
    if _HANDLER_FNS is None:
        from repro.guestos import (sys_file, sys_ipc, sys_mem, sys_proc,
                                   sys_thread)
        table: Dict[Syscall, Callable] = {}
        for module in (sys_file, sys_ipc, sys_mem, sys_proc, sys_thread):
            for number, fn in module.handlers().items():
                if number in table:
                    raise RuntimeError(f"duplicate syscall handler {number}")
                table[number] = fn
        _HANDLER_FNS = table
    return _HANDLER_FNS


class Console:
    """Per-process output sink (the write(1/2) destination)."""

    def __init__(self) -> None:
        self._streams: Dict[int, bytearray] = {}

    def write(self, pid: int, data: bytes) -> None:
        self._streams.setdefault(pid, bytearray()).extend(data)

    def output_of(self, pid: int) -> bytes:
        return bytes(self._streams.get(pid, b""))

    def text_of(self, pid: int) -> str:
        return self.output_of(pid).decode(errors="replace")


class RegistryEntry:
    """One installable program: how to build its code and runtime."""

    __slots__ = ("name", "program_factory", "runtime_factory", "image")

    def __init__(self, name: str, program_factory: Callable,
                 runtime_factory: Callable, image: bytes):
        self.name = name
        self.program_factory = program_factory
        self.runtime_factory = runtime_factory
        self.image = image


class Kernel:
    """One guest kernel instance."""

    def __init__(
        self,
        phys: PhysicalMemory,
        alloc: FrameAllocator,
        mmu: MMU,
        cpu: VirtualCPU,
        cycles: CycleAccount,
        stats: StatCounters,
        costs: CostTable,
        disk: Disk,
        dma: DMAGateway,
        arch,
        cache: Optional[BlockCache] = None,
    ):
        self.phys = phys
        self.alloc = alloc
        self.mmu = mmu
        self.cpu = cpu
        self.cycles = cycles
        self.stats = stats
        self.costs = costs
        self.arch = arch

        # An injected cache (the fault harness passes one) must be
        # wired in at construction so fs and swap share the instance.
        self.cache = cache if cache is not None else BlockCache(disk, dma)
        self.fs = RamFS(phys, alloc, self.cache, cycles, costs)
        self.vfs = VFS(self.fs)
        self.scheduler = Scheduler()
        self.console = Console()

        self.processes: Dict[int, Process] = {}
        from repro.guestos.swap import PageReclaimer

        self.reclaimer = PageReclaimer(self.processes, alloc, stats,
                                       self.cache)
        self._registry: Dict[str, RegistryEntry] = {}
        self._next_pid = 1
        self._next_asid = 1
        #: Channels parents sleep on in waitpid.
        self._child_channels: Dict[int, WaitChannel] = {}
        #: nanosleep support: channel + (wake_at, proc) entries.
        self.sleep_channel = WaitChannel("sleepers")
        self._sleepers: List[Process] = []
        #: Address spaces already torn down (shared by thread groups).
        self._released_asids: set = set()

        # Per-kernel copy of the static table: one flat dict copy, and
        # a test/attack that swaps a handler poisons only this kernel.
        self._handlers = dict(_handler_functions())

    def __getstate__(self):
        # The handler table is rebuilt from the module constant;
        # dropping it keeps snapshot blobs free of ~90 global refs.
        state = self.__dict__.copy()
        del state["_handlers"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._handlers = dict(_handler_functions())

    # ------------------------------------------------------------------
    # program registry / spawn
    # ------------------------------------------------------------------

    def register_program(self, name: str, program_factory: Callable,
                         runtime_factory: Callable, image: bytes) -> None:
        """Install a runnable program under ``name``.

        ``runtime_factory(program, argv)`` builds the user runtime —
        the machine layer passes a shim-wrapping factory for programs
        meant to run cloaked.
        """
        self._registry[name] = RegistryEntry(name, program_factory,
                                             runtime_factory, image)

    def registered(self, name: str) -> bool:
        return name in self._registry

    def spawn(self, name: str, argv: Tuple[str, ...] = (),
              ppid: int = 0) -> Process:
        """Create and enqueue a process running program ``name``."""
        entry = self._registry.get(name)
        if entry is None:
            raise KeyError(f"no program registered as {name!r}")
        pid = self._next_pid
        self._next_pid += 1
        aspace = self._build_address_space(entry.image)
        program = entry.program_factory()
        runtime = entry.runtime_factory(program, argv)
        proc = Process(pid, ppid, name, aspace, runtime,
                       cloaked=getattr(runtime, "provides_cloaking", False))
        proc.spawned_at = self.cycles.total
        self._install_std_fds(proc)
        runtime.start(pid)
        self.processes[pid] = proc
        if ppid in self.processes:
            self.processes[ppid].children.append(pid)
        self.scheduler.enqueue(proc)
        self.stats.bump("kernel.spawns")
        return proc

    def _build_empty_address_space(self) -> AddressSpace:
        asid = self._next_asid
        self._next_asid += 1
        aspace = AddressSpace(asid, self.phys, self.alloc, self.arch.invlpg)
        self.arch.register_address_space(asid, aspace.root_pfn)
        return aspace

    def _fork_address_space(self, parent: Process) -> AddressSpace:
        from repro.guestos.sys_proc import _fork_address_space

        return _fork_address_space(self, parent)

    def _build_address_space(self, image: bytes) -> AddressSpace:
        aspace = self._build_empty_address_space()

        code_pages = max(layout.CODE_PAGES, layout.page_count(len(image)))
        aspace.add_vma(VMA(layout.vpn_of(layout.CODE_BASE), code_pages,
                           writable=False, label="code"))
        aspace.add_vma(VMA(layout.vpn_of(layout.DATA_BASE),
                           layout.DATA_MAX_PAGES, label="data"))
        aspace.add_vma(VMA(layout.vpn_of(layout.STACK_TOP) - layout.STACK_PAGES,
                           layout.STACK_PAGES, label="stack"))
        aspace.add_vma(VMA(layout.vpn_of(layout.MARSHAL_BASE),
                           layout.MARSHAL_PAGES, label="marshal"))
        aspace.add_vma(VMA(layout.vpn_of(layout.TRAMPOLINE_BASE),
                           layout.TRAMPOLINE_PAGES, label="trampoline"))

        # The loader eagerly materialises code pages and writes the
        # program image (a real execve reads it from the filesystem).
        base_vpn = layout.vpn_of(layout.CODE_BASE)
        for page in range(code_pages):
            pfn = self.alloc.alloc()
            self.phys.zero_frame(pfn)
            chunk = image[page * PAGE_SIZE : (page + 1) * PAGE_SIZE]
            if chunk:
                self.phys.write(pfn, 0, chunk)
            aspace.map_page(base_vpn + page, pfn, writable=False)
        self.cycles.charge("kernel", self.costs.copy_cost(len(image)))
        return aspace

    def _install_std_fds(self, proc: Process) -> None:
        for fd in (uapi.STDIN_FD, uapi.STDOUT_FD, uapi.STDERR_FD):
            proc.fds[fd] = OpenFile(OpenFile.CONSOLE)

    # ------------------------------------------------------------------
    # syscall dispatch
    # ------------------------------------------------------------------

    def handle_syscall(self, proc: Process, number: Syscall, args: tuple,
                       extra=None) -> Any:
        """Run one syscall; returns the user-visible result or Blocked."""
        self.cycles.charge("kernel", self.costs.syscall_dispatch)
        counts = self.stats.counts
        counts["kernel.syscalls"] = counts.get("kernel.syscalls", 0) + 1
        handler = self._handlers.get(number)
        if handler is None:
            return -uapi.ENOSYS
        try:
            return handler(self, proc, args, extra)
        except VFSError as exc:
            return -exc.errno
        except OutOfMemoryError:
            return -uapi.ENOMEM

    # ------------------------------------------------------------------
    # user-memory access (system view — where cloaking bites)
    # ------------------------------------------------------------------

    def copy_from_user(self, proc: Process, vaddr: int, nbytes: int) -> bytes:
        """Read user memory in system view — cloaked buffers read as
        ciphertext.  Faults are handled inline (kernel fixup path)."""
        while True:
            self.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
            try:
                return self.mmu.read(vaddr, nbytes)
            except PageFault as fault:
                if not self.handle_page_fault(proc, fault):
                    raise VFSError(uapi.EFAULT, f"copy_from_user {vaddr:#x}")

    def copy_to_user(self, proc: Process, vaddr: int, data: bytes) -> None:
        while True:
            self.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
            try:
                self.mmu.write(vaddr, data)
                return
            except PageFault as fault:
                if not self.handle_page_fault(proc, fault):
                    raise VFSError(uapi.EFAULT, f"copy_to_user {vaddr:#x}")

    def read_user_string(self, proc: Process, vaddr: int, length: int) -> str:
        if length < 0 or length > 4096:
            raise VFSError(uapi.EINVAL, "bad string length")
        return self.copy_from_user(proc, vaddr, length).decode(errors="replace")

    # ------------------------------------------------------------------
    # page faults
    # ------------------------------------------------------------------

    def handle_page_fault(self, proc: Process, fault: PageFault) -> bool:
        """Demand paging.  Returns True when resolved (retry the
        access); False means the access was illegal (SIGSEGV)."""
        self.cycles.charge("fault", self.costs.fault_handler)
        self.stats.bump("kernel.page_faults")
        vpn = fault.vaddr >> 12
        vma = proc.aspace.find_vma(vpn)
        if vma is None:
            return False
        if fault.reason is PageFaultReason.PROTECTION:
            return False  # write to read-only mapping
        if fault.reason is PageFaultReason.USER_SUPERVISOR:
            return False
        if proc.aspace.is_mapped(vpn):
            # Present in the guest table yet faulting: nothing the
            # kernel can do (should not happen; be conservative).
            return False
        if vma.kind == VMA.FILE:
            inode = self.fs.get(vma.inode_id)
            pfn = self.fs.page_frame(inode, vma.file_page_of(vpn))
            proc.aspace.map_page(vpn, pfn, writable=vma.writable)
        elif self.reclaimer.swap_in(proc, vpn) is not None:
            pass  # previously evicted anonymous page, now resident again
        else:
            pfn = self.alloc.alloc()
            self.phys.zero_frame(pfn)
            self.cycles.charge("kernel", self.costs.zero_fill)
            proc.aspace.map_page(vpn, pfn, writable=vma.writable)
        return True

    # ------------------------------------------------------------------
    # blocking / waking
    # ------------------------------------------------------------------

    def park(self, proc: Process, blocked: Blocked, number: Syscall,
             args: tuple, extra) -> None:
        proc.pending_syscall = (number, args, extra)
        blocked.channel.add(proc)
        self.scheduler.block(proc)

    def wake_channel(self, channel: WaitChannel) -> int:
        woken = 0
        for proc in channel.take_all():
            self.scheduler.wake(proc)
            woken += 1
        return woken

    def child_channel(self, pid: int) -> WaitChannel:
        channel = self._child_channels.get(pid)
        if channel is None:
            channel = WaitChannel(f"pid{pid}.children")
            self._child_channels[pid] = channel
        return channel

    # -- nanosleep support -------------------------------------------------

    def add_sleeper(self, proc: Process) -> None:
        if proc not in self._sleepers:
            self._sleepers.append(proc)

    def wake_due_sleepers(self) -> int:
        """Wake every sleeper whose deadline has passed."""
        now = self.cycles.total
        due = [p for p in self._sleepers
               if p.sleep_until is not None and p.sleep_until <= now]
        for proc in due:
            self._sleepers.remove(proc)
            self.scheduler.wake(proc)
        # Re-arm the channel-based parking for those still waiting.
        return len(due)

    def earliest_sleep_deadline(self) -> Optional[int]:
        deadlines = [p.sleep_until for p in self._sleepers
                     if p.sleep_until is not None]
        return min(deadlines) if deadlines else None

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------

    def post_signal(self, target: Process, sig: int) -> None:
        if target.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
            return
        action = target.signal_handlers.get(sig, uapi.SIG_DFL)
        if action == uapi.SIG_IGN:
            return
        if action == uapi.SIG_DFL and sig in uapi.IGNORED_SIGNALS:
            return
        if sig not in target.pending_signals:
            target.pending_signals.append(sig)
        # A pending signal interrupts blocking waits (EINTR semantics
        # are simplified: the syscall restarts after delivery).
        if target.state is ProcessState.BLOCKED:
            self.scheduler.wake(target)
        self.stats.bump("kernel.signals_posted")

    def next_deliverable_signal(self, proc: Process) -> Optional[int]:
        if not proc.pending_signals:
            return None
        for sig in list(proc.pending_signals):
            if sig not in proc.signal_mask:
                proc.pending_signals.remove(sig)
                return sig
        return None

    def signal_action(self, proc: Process, sig: int) -> int:
        return proc.signal_handlers.get(sig, uapi.SIG_DFL)

    # ------------------------------------------------------------------
    # exit / reaping
    # ------------------------------------------------------------------

    def do_exit(self, proc: Process, code: int) -> None:
        """Terminate a task.

        A process leader's exit is exit_group(2): every sibling thread
        dies with it.  A lone thread's exit leaves the group running.
        """
        if proc.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
            return
        if not proc.is_thread:
            for sibling in self._live_group_members(proc.tgid):
                if sibling is not proc:
                    self._exit_task(sibling, 128 + uapi.SIGKILL)
        self._exit_task(proc, code)

    def _live_group_members(self, tgid: int) -> List[Process]:
        return [p for p in self.processes.values()
                if p.tgid == tgid
                and p.state not in (ProcessState.ZOMBIE, ProcessState.DEAD)]

    def _exit_task(self, proc: Process, code: int) -> None:
        if proc.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
            return
        last_in_group = len(self._live_group_members(proc.tgid)) == 1
        if last_in_group:
            # The fd table and address space are group resources;
            # only the last task out turns off the lights.
            for fd in list(proc.fds):
                self._close_fd(proc, fd)
        self.arch.notify_thread_exit(proc.pid)
        if last_in_group and proc.asid not in self._released_asids:
            self._release_address_space(proc)
            self._released_asids.add(proc.asid)
        proc.exit_code = code
        proc.exited_at = self.cycles.total
        proc.state = ProcessState.ZOMBIE
        if proc in self._sleepers:
            # A killed sleeper must not hold the idle clock to its
            # deadline.
            self._sleepers.remove(proc)
        self.scheduler.block(proc)
        proc.state = ProcessState.ZOMBIE  # block() does not override zombie
        parent = self.processes.get(proc.ppid)
        if parent is not None:
            self.post_signal(parent, uapi.SIGCHLD)
            self.wake_channel(self.child_channel(parent.pid))
        else:
            # No parent to reap: release immediately.
            proc.state = ProcessState.DEAD
        self.stats.bump("kernel.exits")

    def _release_address_space(self, proc: Process) -> None:
        page_cache_frames = {
            pfn for inode in self.fs.all_inodes() for pfn in inode.pages.values()
        }
        self.arch.drop_address_space(proc.asid)
        self.reclaimer.swap.drop_address_space(proc.asid)
        proc.aspace.destroy(keep_frames=page_cache_frames)

    def _close_fd(self, proc: Process, fd: int) -> int:
        open_file = proc.fds.pop(fd, None)
        if open_file is None:
            return -uapi.EBADF
        open_file.refcount -= 1
        # Pipe endpoint counts are per fd reference (fork/dup2 add one
        # each), so every close drops one.
        if open_file.kind == OpenFile.PIPE_R and open_file.pipe is not None:
            open_file.pipe.drop_reader()
            self.wake_channel(open_file.pipe.write_channel)
        elif open_file.kind == OpenFile.PIPE_W and open_file.pipe is not None:
            open_file.pipe.drop_writer()
            self.wake_channel(open_file.pipe.read_channel)
        if open_file.refcount > 0:
            return 0
        if open_file.kind == OpenFile.REGULAR:
            inode = self.fs.maybe_get(open_file.inode_id)
            if inode is not None:
                self.fs.writeback(inode)
        return 0

    def reap(self, proc: Process) -> Tuple[int, int]:
        """Collect a zombie: returns (pid, exit_code) and frees it."""
        result = (proc.pid, proc.exit_code if proc.exit_code is not None else 0)
        proc.state = ProcessState.DEAD
        parent = self.processes.get(proc.ppid)
        if parent is not None and proc.pid in parent.children:
            parent.children.remove(proc.pid)
        del self.processes[proc.pid]
        return result

    # ------------------------------------------------------------------
    # introspection for tests / benches
    # ------------------------------------------------------------------

    def process(self, pid: int) -> Optional[Process]:
        return self.processes.get(pid)
