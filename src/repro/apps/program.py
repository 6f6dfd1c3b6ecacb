"""The guest program model.

Programs are Python generators over :class:`repro.guestos.uapi.UserOp`
objects: every memory touch, compute batch, and syscall of the
simulated application is an explicit yielded operation, executed by
the machine loop under the current protection context.  This is what
lets cloaking act on *real accesses*: when a cloaked program stores a
secret, actual bytes land in an actual frame through the MMU, and the
kernel's later copy of that frame actually observes ciphertext.

A program runs under a *runtime* that drives its generator: the
:class:`NativeRuntime` here passes operations straight through; the
shim runtime (:mod:`repro.core.shim`) interposes on syscalls exactly
like Overshadow's in-process shim.
"""

from collections import OrderedDict
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

from repro.guestos import layout, uapi
from repro.guestos.uapi import (
    Alu,
    Copy,
    GetReg,
    Load,
    SetReg,
    Store,
    Syscall,
    SyscallOp,
    UserOp,
)

OpGen = Generator[UserOp, Any, Any]


class UserContext:
    """Syscall / memory helpers handed to program code.

    All methods *construct* operations; the program must ``yield``
    them.  Buffer-carrying calls take virtual addresses in the
    program's own address space.
    """

    def __init__(self, argv: Tuple[str, ...] = ()):
        self.argv = tuple(argv)
        self.pid: Optional[int] = None
        self._scratch_cursor = layout.DATA_BASE

    # -- memory ----------------------------------------------------------------

    def alu(self, units: int) -> Alu:
        return Alu(units)

    def load(self, vaddr: int, size: int) -> Load:
        return Load(vaddr, size)

    def store(self, vaddr: int, data: bytes) -> Store:
        return Store(vaddr, data)

    def copy(self, src: int, dst: int, nbytes: int) -> Copy:
        return Copy(src, dst, nbytes)

    def set_reg(self, name: str, value: int) -> SetReg:
        return SetReg(name, value)

    def get_reg(self, name: str) -> GetReg:
        return GetReg(name)

    def scratch(self, nbytes: int) -> int:
        """Bump-allocate program-managed scratch space in the data
        segment (no syscall; pages fault in on first touch)."""
        vaddr = self._scratch_cursor
        self._scratch_cursor += (nbytes + 15) & ~15
        limit = layout.DATA_BASE + layout.DATA_MAX_PAGES * 4096
        if self._scratch_cursor > limit:
            raise MemoryError("scratch region exhausted")
        return vaddr

    # -- raw syscall -------------------------------------------------------------

    def syscall(self, number: Syscall, *args, extra=None) -> SyscallOp:
        return SyscallOp(number, args, extra=extra)

    # -- POSIX-flavoured wrappers ---------------------------------------------------

    def exit(self, code: int = 0) -> SyscallOp:
        return self.syscall(Syscall.EXIT, code)

    def getpid(self) -> SyscallOp:
        return self.syscall(Syscall.GETPID)

    def getppid(self) -> SyscallOp:
        return self.syscall(Syscall.GETPPID)

    def open(self, path_vaddr: int, path_len: int, flags: int) -> SyscallOp:
        return self.syscall(Syscall.OPEN, path_vaddr, path_len, flags)

    def close(self, fd: int) -> SyscallOp:
        return self.syscall(Syscall.CLOSE, fd)

    def read(self, fd: int, buf_vaddr: int, nbytes: int) -> SyscallOp:
        return self.syscall(Syscall.READ, fd, buf_vaddr, nbytes)

    def write(self, fd: int, buf_vaddr: int, nbytes: int) -> SyscallOp:
        return self.syscall(Syscall.WRITE, fd, buf_vaddr, nbytes)

    def lseek(self, fd: int, offset: int, whence: int) -> SyscallOp:
        return self.syscall(Syscall.LSEEK, fd, offset, whence)

    def stat(self, path_vaddr: int, path_len: int) -> SyscallOp:
        return self.syscall(Syscall.STAT, path_vaddr, path_len)

    def fstat(self, fd: int) -> SyscallOp:
        return self.syscall(Syscall.FSTAT, fd)

    def unlink(self, path_vaddr: int, path_len: int) -> SyscallOp:
        return self.syscall(Syscall.UNLINK, path_vaddr, path_len)

    def mkdir(self, path_vaddr: int, path_len: int) -> SyscallOp:
        return self.syscall(Syscall.MKDIR, path_vaddr, path_len)

    def mkfifo(self, path_vaddr: int, path_len: int) -> SyscallOp:
        return self.syscall(Syscall.MKFIFO, path_vaddr, path_len)

    def rename(self, old_vaddr: int, old_len: int, new_vaddr: int,
               new_len: int) -> SyscallOp:
        return self.syscall(Syscall.RENAME, old_vaddr, old_len,
                            new_vaddr, new_len)

    def readdir(self, path_vaddr: int, path_len: int, buf_vaddr: int,
                buf_len: int) -> SyscallOp:
        return self.syscall(Syscall.READDIR, path_vaddr, path_len,
                            buf_vaddr, buf_len)

    def truncate(self, fd: int, size: int) -> SyscallOp:
        return self.syscall(Syscall.TRUNCATE, fd, size)

    def mmap(self, length: int, prot: int, flags: int, fd: int = -1,
             offset: int = 0) -> SyscallOp:
        return self.syscall(Syscall.MMAP, length, prot, flags, fd, offset)

    def munmap(self, vaddr: int, length: int) -> SyscallOp:
        return self.syscall(Syscall.MUNMAP, vaddr, length)

    def brk(self, new_brk: int = 0) -> SyscallOp:
        return self.syscall(Syscall.BRK, new_brk)

    def fork(self, child_entry: Callable, *child_args) -> SyscallOp:
        """Fork with an explicit child entry point.

        Python generators cannot be cloned, so the child begins at
        ``child_entry(ctx, *child_args)`` with a *copy* of the parent's
        address space (see DESIGN.md, control-flow fidelity).  Returns
        the child pid in the parent.
        """
        return self.syscall(Syscall.FORK, extra=(child_entry, child_args))

    def exec(self, path_vaddr: int, path_len: int,
             argv: Tuple[str, ...] = ()) -> SyscallOp:
        return self.syscall(Syscall.EXEC, path_vaddr, path_len, extra=argv)

    def waitpid(self, pid: int = -1) -> SyscallOp:
        return self.syscall(Syscall.WAITPID, pid)

    def thread_create(self, entry: Callable, *thread_args) -> SyscallOp:
        """Create a thread starting at ``entry(ctx, *thread_args)``,
        sharing this process's address space and fd table."""
        return self.syscall(Syscall.THREAD_CREATE,
                            extra=(entry, thread_args))

    def thread_join(self, tid: int) -> SyscallOp:
        return self.syscall(Syscall.THREAD_JOIN, tid)

    def kill(self, pid: int, sig: int) -> SyscallOp:
        return self.syscall(Syscall.KILL, pid, sig)

    def sigaction(self, sig: int, action: int) -> SyscallOp:
        """``action``: uapi.SIG_DFL, uapi.SIG_IGN, or 2 ("handled":
        deliveries run the program's ``signal_handler``)."""
        return self.syscall(Syscall.SIGACTION, sig, action)

    def pipe(self) -> SyscallOp:
        return self.syscall(Syscall.PIPE)

    def dup2(self, old_fd: int, new_fd: int) -> SyscallOp:
        return self.syscall(Syscall.DUP2, old_fd, new_fd)

    def sched_yield(self) -> SyscallOp:
        return self.syscall(Syscall.YIELD)

    def gettime(self) -> SyscallOp:
        return self.syscall(Syscall.GETTIME)

    def sync(self) -> SyscallOp:
        return self.syscall(Syscall.SYNC)

    def sigprocmask(self, sig: int, block: bool) -> SyscallOp:
        return self.syscall(Syscall.SIGPROCMASK, sig, 1 if block else 0)

    def nanosleep(self, duration: int) -> SyscallOp:
        return self.syscall(Syscall.NANOSLEEP, duration)

    # -- composite helpers (generators to use with ``yield from``) ----------------

    def put_string(self, text: str) -> "OpGen":
        """Store a string in scratch space; returns (vaddr, length)."""
        data = text.encode()
        vaddr = self.scratch(len(data) or 1)
        yield self.store(vaddr, data or b"\x00")
        return vaddr, len(data)

    def put_bytes(self, data: bytes) -> "OpGen":
        """Store raw bytes in scratch space; returns (vaddr, length)."""
        vaddr = self.scratch(len(data) or 1)
        yield self.store(vaddr, data or b"\x00")
        return vaddr, len(data)

    def open_path(self, path: str, flags: int) -> "OpGen":
        vaddr, length = yield from self.put_string(path)
        fd = yield self.open(vaddr, length, flags)
        return fd

    def write_bytes(self, fd: int, data: bytes) -> "OpGen":
        vaddr = self.scratch(len(data))
        yield self.store(vaddr, data)
        written = yield self.write(fd, vaddr, len(data))
        return written

    def read_bytes(self, fd: int, nbytes: int) -> "OpGen":
        vaddr = self.scratch(nbytes)
        count = yield self.read(fd, vaddr, nbytes)
        if isinstance(count, int) and count > 0:
            data = yield self.load(vaddr, count)
        else:
            data = b""
        return data

    def read_all(self, fd: int, vaddr: int, nbytes: int) -> "OpGen":
        """Read ``nbytes`` into ``vaddr``, looping over short reads,
        until they all arrived or the stream ended or failed; returns
        the count read."""
        got = 0
        while got < nbytes:
            count = yield self.read(fd, vaddr + got, nbytes - got)
            if not isinstance(count, int) or count <= 0:
                break
            got += count
        return got

    def write_all(self, fd: int, vaddr: int, nbytes: int) -> "OpGen":
        """Write ``nbytes`` from ``vaddr``, looping over short writes,
        until they all went or a write failed; returns the count
        written."""
        sent = 0
        while sent < nbytes:
            count = yield self.write(fd, vaddr + sent, nbytes - sent)
            if not isinstance(count, int) or count <= 0:
                break
            sent += count
        return sent

    def read_exact(self, fd: int, nbytes: int) -> "OpGen":
        """Read until exactly ``nbytes`` arrived (looping over short
        reads) or the stream ended; returns the bytes collected."""
        vaddr = self.scratch(nbytes or 1)
        got = yield from self.read_all(fd, vaddr, nbytes)
        if got <= 0:
            return b""
        data = yield self.load(vaddr, got)
        return data

    def print(self, text: str) -> "OpGen":
        yield from self.write_bytes(uapi.STDOUT_FD, text.encode())


#: Memoised synthetic program images, keyed by (identity seed, size),
#: least recently used first.  Every generated fuzz program is a class
#: of its own, so without a bound a long campaign would keep 8 KiB for
#: each program it ever ran.
_IMAGE_CACHE: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
#: Well above the registered suite, so a warm workload always hits.
_IMAGE_CACHE_LIMIT = 256


class Program:
    """Base class for guest applications.

    Subclasses implement :meth:`main` as a generator of user ops.  A
    program that installs a handler with ``ctx.sigaction(sig, 2)``
    should also override :meth:`signal_handler`.
    """

    #: Registry name; also the program's "image" identity basis.
    name = "program"

    def main(self, ctx: UserContext) -> OpGen:
        raise NotImplementedError
        yield  # pragma: no cover

    def signal_handler(self, ctx: UserContext, sig: int) -> OpGen:
        """Default handler body: nothing."""
        return
        yield  # pragma: no cover

    def image_bytes(self, image_size: int = 8192) -> bytes:
        """Deterministic synthetic code image for identity hashing.

        Real Overshadow hashes the application binary; we expand the
        program's name and class source position into a stable
        pseudo-binary of ``image_size`` bytes.  The expansion is a pure
        function of (class, name, size), so it is memoised — every
        fresh machine re-registers the same suite of programs.
        """
        import hashlib

        seed = f"{type(self).__module__}.{type(self).__qualname__}:{self.name}"
        key = (seed, image_size)
        cached = _IMAGE_CACHE.get(key)
        if cached is not None:
            _IMAGE_CACHE.move_to_end(key)
            return cached
        out = bytearray()
        counter = 0
        while len(out) < image_size:
            out.extend(hashlib.sha256(f"{seed}:{counter}".encode()).digest())
            counter += 1
        image = bytes(out[:image_size])
        _IMAGE_CACHE[key] = image
        if len(_IMAGE_CACHE) > _IMAGE_CACHE_LIMIT:
            _IMAGE_CACHE.popitem(last=False)
        return image


class _Frame:
    """One generator on the runtime's execution stack.

    Frames carry their own result inbox so a value produced while a
    signal-handler frame sits on top (e.g. the outcome of a restarted
    syscall) is delivered to the frame that actually yielded for it.
    A *shim* frame runs a syscall adapter: its ops are not interposed
    on, and its return value is the result of the syscall the frame
    below yielded.
    """

    __slots__ = ("gen", "inbox", "shim")

    def __init__(self, gen: Iterator, shim: bool = False):
        self.gen = gen
        self.inbox = None
        self.shim = shim


class BaseRuntime:
    """Shared generator-stack machinery for user runtimes.

    Subclasses decide which syscalls are adapted (the shim interposes
    on them; the native runtime does not).
    """

    #: ``Syscall -> adapter``: a syscall a program frame yields whose
    #: number is here runs in a shim frame pushed above it, driving the
    #: generator ``adapter(runtime, op)`` returns.  Every other syscall
    #: is forwarded unchanged.
    _ADAPTERS: Dict[Syscall, Callable[["BaseRuntime", SyscallOp], OpGen]] = {}

    def __init__(self, program: Program, argv: Tuple[str, ...] = ()):
        self.program = program
        self.ctx = UserContext(argv)
        self._stack: List[_Frame] = []
        self._awaiting: Optional[_Frame] = None
        self._exit_emitted = False
        self._exit_code = 0
        #: Signals for which the program asked for handled delivery.
        self.handled_signals: set = set()
        self._child_entry: Optional[Tuple[Callable, tuple]] = None
        #: Program syscalls forwarded to the kernel without an adapter.
        self.passthrough_calls = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self, pid: int) -> None:
        self.ctx.pid = pid
        self._stack = [_Frame(self.program.main(self.ctx))]

    def start_child(self, pid: int) -> None:
        """Begin a forked child at its designated entry point."""
        if self._child_entry is None:
            raise RuntimeError("not a forked child runtime")
        entry, args = self._child_entry
        self.ctx.pid = pid
        self._stack = [_Frame(entry(self.ctx, *args))]

    def started(self) -> bool:
        return bool(self._stack) or self._exit_emitted

    def next_op(self, result: Any) -> Optional[uapi.UserOp]:
        """Advance the program; returns the next op, or None when the
        process has already requested exit.

        ``result`` is the outcome of the previously returned op and is
        routed to the frame that yielded it, which is not necessarily
        the current top of stack (a signal handler may have been
        pushed in between).  When the program is done, the runtime's
        own ``EXIT`` goes through the EXIT adapter like a program's.
        """
        if result is not None and self._awaiting is not None:
            self._awaiting.inbox = result
        stack = self._stack
        adapters = self._ADAPTERS
        while True:
            if not stack:
                if self._exit_emitted:
                    return None
                self._exit_emitted = True
                op = SyscallOp(Syscall.EXIT, (self._exit_code,))
                adapter = adapters.get(Syscall.EXIT)
                if adapter is None:
                    return op
                stack.append(_Frame(adapter(self, op), True))
            frame = stack[-1]
            value, frame.inbox = frame.inbox, None
            try:
                op = frame.gen.send(value)
            except StopIteration as stop:
                stack.pop()
                if frame.shim:
                    if stack:
                        stack[-1].inbox = stop.value
                elif not stack and stop.value is not None:
                    self._exit_code = int(stop.value)
                continue
            if op.__class__ is SyscallOp and not frame.shim:
                number = op.number
                if number is Syscall.SIGACTION:
                    sig, action = op.args
                    if action == 2:
                        self.handled_signals.add(sig)
                    else:
                        self.handled_signals.discard(sig)
                adapter = adapters.get(number)
                if adapter is not None:
                    stack.append(_Frame(adapter(self, op), True))
                    continue
                self.passthrough_calls += 1
            self._awaiting = frame
            return op

    # -- signals ----------------------------------------------------------------

    def deliver_signal(self, sig: int) -> bool:
        """Push the program's handler; True when it will run."""
        if sig not in self.handled_signals or not self._stack:
            return False
        self._stack.append(_Frame(self.program.signal_handler(self.ctx, sig)))
        return True

    # -- fork ----------------------------------------------------------------------

    def _clone_into(self, child: "BaseRuntime", entry: Callable,
                    args: tuple) -> "BaseRuntime":
        child.handled_signals = set(self.handled_signals)
        child.ctx._scratch_cursor = self.ctx._scratch_cursor
        child._child_entry = (entry, args)
        return child

    def make_child(self, entry: Callable, args: tuple) -> "BaseRuntime":
        raise NotImplementedError

    def make_thread(self, entry: Callable, args: tuple) -> "BaseRuntime":
        """A runtime for a thread of this process: shares the program,
        the user context (same address space!), and signal handlers;
        has its own generator stack."""
        raise NotImplementedError

    def _thread_into(self, thread: "BaseRuntime", entry: Callable,
                     args: tuple) -> "BaseRuntime":
        thread.ctx = self.ctx                 # shared address space
        thread.handled_signals = self.handled_signals  # shared dispositions
        thread._child_entry = (entry, args)
        return thread


class NativeRuntime(BaseRuntime):
    """Drives a program directly: no interposition, no protection.

    This is the uncloaked baseline the paper compares against (an
    ordinary process on a VMM).
    """

    def make_child(self, entry: Callable, args: tuple) -> "NativeRuntime":
        return self._clone_into(NativeRuntime(self.program, self.ctx.argv),
                                entry, args)

    def make_thread(self, entry: Callable, args: tuple) -> "NativeRuntime":
        return self._thread_into(NativeRuntime(self.program, self.ctx.argv),
                                 entry, args)
