"""Process syscalls: lifecycle, signals, scheduling."""

from typing import Dict

from repro.guestos import layout, uapi
from repro.guestos.process import OpenFile, Process, ProcessState, VMA
from repro.guestos.uapi import Blocked, Syscall
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.hw.params import PAGE_SIZE


def sys_exit(kernel, proc: Process, args, extra):
    (code,) = args
    kernel.do_exit(proc, code)
    return code


def sys_getpid(kernel, proc: Process, args, extra):
    return proc.pid


def sys_getppid(kernel, proc: Process, args, extra):
    return proc.ppid


def sys_fork(kernel, proc: Process, args, extra):
    """Clone the calling process.

    The child's address space is an eager copy made through the MMU in
    system view — so every cloaked plaintext page of the parent is
    encrypted in passing, which is exactly why cloaked fork is the
    paper's worst-case operation.
    """
    if extra is None:
        return -uapi.EINVAL
    child_entry, child_args = extra

    child_pid = kernel._next_pid
    kernel._next_pid += 1
    child_aspace = kernel._fork_address_space(proc)
    kernel.arch.notify_fork(proc.pid, child_pid, child_aspace.asid)

    child_runtime = proc.runtime.make_child(child_entry, child_args)
    child = Process(child_pid, proc.pid, f"{proc.name}", child_aspace,
                    child_runtime, cloaked=proc.cloaked)
    child.spawned_at = kernel.cycles.total
    child.signal_handlers = dict(proc.signal_handlers)
    child.signal_mask = set(proc.signal_mask)
    child.cwd = proc.cwd
    for fd, open_file in proc.fds.items():
        open_file.refcount += 1
        if open_file.kind == OpenFile.PIPE_R and open_file.pipe is not None:
            open_file.pipe.add_reader()
        elif open_file.kind == OpenFile.PIPE_W and open_file.pipe is not None:
            open_file.pipe.add_writer()
        child.fds[fd] = open_file
    child.next_fd = proc.next_fd
    child_runtime.start_child(child_pid)

    kernel.processes[child_pid] = child
    proc.children.append(child_pid)
    kernel.scheduler.enqueue(child)
    kernel.stats.bump("kernel.forks")
    return child_pid


def _fork_address_space(kernel, parent: Process):
    """Eagerly copy a process's address space (no COW, like early
    Unix; the simple policy keeps the cloaking interactions obvious)."""
    aspace = kernel._build_empty_address_space()
    for vma in parent.aspace.vmas:
        aspace.add_vma(VMA(vma.start_vpn, vma.npages, vma.writable, vma.kind,
                           vma.inode_id, vma.file_page, vma.shared, vma.label))
    aspace.brk_vaddr = parent.aspace.brk_vaddr
    aspace._mmap_cursor = parent.aspace._mmap_cursor

    vma = None
    for vpn, pfn in parent.aspace.mapped_pages():
        # VMAs never overlap and pages come vpn-ascending: the last
        # page's VMA is the answer until the walk leaves it.
        if vma is None or vpn not in vma:
            vma = parent.aspace.find_vma(vpn)
        if vma is not None and vma.kind == VMA.FILE:
            # Shared page-cache frame: both processes map the same one.
            aspace.map_page(vpn, pfn, writable=vma.writable)
            continue
        child_pfn = kernel.alloc.alloc()
        writable = vma.writable if vma is not None else True
        # Map writable for the copy itself; final permissions follow
        # the VMA (read-only code pages included).
        aspace.map_page(vpn, child_pfn, writable=True)
        vaddr = layout.vaddr_of(vpn)
        # Copy through the MMU in system view: the visible (possibly
        # just-encrypted) bytes are what the child receives.
        kernel.mmu.set_context(parent.asid, SYSTEM_VIEW, MODE_KERNEL)
        data = kernel.mmu.read(vaddr, PAGE_SIZE)
        kernel.mmu.set_context(aspace.asid, SYSTEM_VIEW, MODE_KERNEL)
        kernel.mmu.write(vaddr, data)
        if not writable:
            aspace.protect_page(vpn, writable=False)
    return aspace


def sys_exec(kernel, proc: Process, args, extra):
    path_vaddr, path_len = args
    path = kernel.read_user_string(proc, path_vaddr, path_len)
    name = path.rsplit("/", 1)[-1]
    entry = kernel._registry.get(name)
    if entry is None:
        return -uapi.ENOENT

    # The old image (and, for cloaked processes, the old protection
    # domain) dies here; fds survive, POSIX-style.
    kernel.arch.notify_thread_exit(proc.pid)
    kernel._release_address_space(proc)
    proc.aspace = kernel._build_address_space(entry.image)
    proc.asid = proc.aspace.asid
    proc.name = name
    program = entry.program_factory()
    argv = tuple(extra) if extra else ()
    proc.runtime = entry.runtime_factory(program, argv)
    proc.runtime.start(proc.pid)
    proc.pending_signals.clear()
    kernel.stats.bump("kernel.execs")
    return 0


def sys_waitpid(kernel, proc: Process, args, extra):
    (want_pid,) = args
    candidates = [
        kernel.processes[cpid]
        for cpid in proc.children
        if cpid in kernel.processes and (want_pid in (-1, cpid))
    ]
    if not candidates:
        return -uapi.ECHILD
    for child in candidates:
        if child.state is ProcessState.ZOMBIE:
            return kernel.reap(child)
    return Blocked(kernel.child_channel(proc.pid))


def sys_kill(kernel, proc: Process, args, extra):
    target_pid, sig = args
    target = kernel.processes.get(target_pid)
    if target is None or target.state is ProcessState.DEAD:
        return -uapi.ESRCH
    if sig == 0:
        return 0  # existence probe
    kernel.post_signal(target, sig)
    return 0


def sys_sigaction(kernel, proc: Process, args, extra):
    sig, action = args
    if sig == uapi.SIGKILL:
        return -uapi.EINVAL
    if action not in (uapi.SIG_DFL, uapi.SIG_IGN, 2):
        return -uapi.EINVAL
    proc.signal_handlers[sig] = action
    return 0


def sys_sigprocmask(kernel, proc: Process, args, extra):
    sig, block = args
    if block:
        proc.signal_mask.add(sig)
    else:
        proc.signal_mask.discard(sig)
    return 0


def sys_yield(kernel, proc: Process, args, extra):
    return 0  # the machine loop rotates the timeslice on YIELD


def sys_gettime(kernel, proc: Process, args, extra):
    return kernel.cycles.total


def sys_nanosleep(kernel, proc: Process, args, extra):
    (duration,) = args
    if duration < 0:
        return -uapi.EINVAL
    now = kernel.cycles.total
    wake_at = proc.sleep_until
    if wake_at is None:
        proc.sleep_until = now + duration
        kernel.add_sleeper(proc)
        return Blocked(kernel.sleep_channel)
    if now >= wake_at:
        proc.sleep_until = None
        return 0
    kernel.add_sleeper(proc)
    return Blocked(kernel.sleep_channel)


def handlers() -> Dict[Syscall, callable]:
    return {
        Syscall.EXIT: sys_exit,
        Syscall.GETPID: sys_getpid,
        Syscall.GETPPID: sys_getppid,
        Syscall.FORK: sys_fork,
        Syscall.EXEC: sys_exec,
        Syscall.WAITPID: sys_waitpid,
        Syscall.KILL: sys_kill,
        Syscall.SIGACTION: sys_sigaction,
        Syscall.SIGPROCMASK: sys_sigprocmask,
        Syscall.YIELD: sys_yield,
        Syscall.GETTIME: sys_gettime,
        Syscall.NANOSLEEP: sys_nanosleep,
    }
