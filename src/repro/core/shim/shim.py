"""The shim runtime: syscall interposition for cloaked applications.

Boot sequence (all before the first application instruction):

1. ``CLOAK_INIT`` — the VMM checks the program against its registered
   identity and creates the protection domain; the hypercall returns
   into the now-cloaked context.
2. ``CLOAK_RANGE`` over code, data, heap, and stack — everything
   except the marshal arena and the trampoline page.
3. ``ADOPT_IMAGE`` — the VMM hashes the loader-written code pages
   against the identity and adopts them as cloaked plaintext (a
   substituted image dies here).
4. ``REGISTER_ENTRY`` for the trampoline, the only address the kernel
   may use to transfer control in (signal delivery).

Thereafter every syscall the application issues is adapted per
:mod:`repro.core.shim.protocol`: the runtime looks its number up in
``ShimRuntime._ADAPTERS`` and runs the adapter as a shim frame on its
own stack (:class:`repro.apps.program.BaseRuntime`); a syscall with no
adapter is forwarded unchanged.
"""

from typing import Callable, Optional, Tuple

from repro.apps.program import BaseRuntime, Program, _Frame
from repro.core.hypercall import Hypercall
from repro.core.shim.channels import SealedChannelTable
from repro.core.shim.ioemu import CloakedFileTable
from repro.core.shim.marshal import MarshalArena
from repro.guestos import layout, uapi
from repro.guestos.uapi import Copy, HypercallOp, Load, Store, Syscall, SyscallOp
from repro.obs import bus

#: Registers that stay visible to the kernel on an intentional syscall
#: (the argument-passing convention); everything else is scrubbed.
VISIBLE_SYSCALL_REGS = ("r0", "r1", "r2", "r3", "r4", "r5")


class ShimRuntime(BaseRuntime):
    """User runtime that cloaks its program and interposes syscalls."""

    #: Reporting hint for the kernel's process table.
    provides_cloaking = True

    #: True for a thread runtime (shares the leader's domain/tables).
    _is_thread = False

    def __init__(self, program: Program, argv: Tuple[str, ...], name: str,
                 image: bytes, secure_prefix: str = "/secure"):
        super().__init__(program, argv)
        self.name = name
        self.image = image
        self.secure_prefix = secure_prefix.rstrip("/")
        self.arena = MarshalArena()
        self.files = CloakedFileTable(self.arena)
        self.channels = SealedChannelTable(self.arena)
        self.domain_id: int = 0
        #: Counts for the overhead report (with ``passthrough_calls``).
        self.marshalled_calls = 0
        self.emulated_calls = 0
        #: Last observed heap break, for shrink detection (None until
        #: the first BRK; lazily initialised so brk-free and grow-only
        #: programs never pay an extra query syscall).
        self._brk_seen: Optional[int] = None

    # ------------------------------------------------------------------
    # runtime plumbing
    # ------------------------------------------------------------------

    def start(self, pid: int) -> None:
        """Boot runs as a shim frame above ``main``: the domain exists
        before the program's first op."""
        super().start(pid)
        self._stack.append(_Frame(self._boot(pid), True))

    def make_child(self, entry: Callable, args: tuple) -> "ShimRuntime":
        """A forked child: the domain was cloned by the VMM when the
        kernel reported the fork, so no boot sequence runs — but open
        cloaked-file windows carry over (the address space is a copy,
        so the window vaddrs remain valid)."""
        child = ShimRuntime(self.program, self.ctx.argv, self.name,
                            self.image, self.secure_prefix)
        self._clone_into(child, entry, args)
        return child

    def make_thread(self, entry: Callable, args: tuple) -> "ShimRuntime":
        """Threads share everything shim-level: the marshal arena, the
        cloaked-file and channel tables (one fd table!), and the
        protection domain.  Only the generator stack is per-thread —
        mirroring the per-thread CTC on the VMM side."""
        thread = ShimRuntime(self.program, self.ctx.argv, self.name,
                             self.image, self.secure_prefix)
        self._thread_into(thread, entry, args)
        thread.arena = self.arena
        thread.files = self.files
        thread.channels = self.channels
        thread.domain_id = self.domain_id
        thread._is_thread = True
        return thread

    # ------------------------------------------------------------------
    # boot and shutdown
    # ------------------------------------------------------------------

    def _boot(self, pid: int):
        self.domain_id = yield HypercallOp(
            Hypercall.CLOAK_INIT, (self.name, self.image, pid)
        )
        for base, pages, label in (
            (layout.CODE_BASE, max(layout.CODE_PAGES,
                                   layout.page_count(len(self.image))), "code"),
            (layout.DATA_BASE, layout.DATA_MAX_PAGES, "data"),
            (layout.HEAP_BASE, layout.HEAP_MAX_PAGES, "heap"),
            (layout.STACK_TOP - layout.STACK_PAGES * 4096,
             layout.STACK_PAGES, "stack"),
        ):
            vpn = layout.vpn_of(base)
            yield HypercallOp(Hypercall.CLOAK_RANGE, (vpn, vpn + pages, label))
        yield HypercallOp(Hypercall.ADOPT_IMAGE,
                          (layout.CODE_BASE, len(self.image)))
        yield HypercallOp(Hypercall.REGISTER_ENTRY, (layout.TRAMPOLINE_BASE,))

    def _shutdown(self):
        if self._is_thread:
            # The group's domain, files, and channels outlive a single
            # thread; only the leader's exit tears them down.
            return
        yield from self.files.close_all()
        yield HypercallOp(Hypercall.DOMAIN_EXIT, ())

    # ------------------------------------------------------------------
    # adapters: ``adapter(runtime, op)`` returns the generator that runs
    # as the shim frame (the table is ``_ADAPTERS`` at the end of the
    # class); that generator returns the result the program sees
    # ------------------------------------------------------------------

    def _adapt_exit(self, op: SyscallOp):
        """A program's ``exit`` and the runtime's own final ``EXIT``
        alike: the domain is torn down before the kernel sees it."""
        yield from self._shutdown()
        result = yield op
        return result

    # -- read/write ---------------------------------------------------------------

    def _adapt_read_write(self, op: SyscallOp):
        """Not a generator itself: returns the generator that serves the
        call, so a sealed or cloaked transfer runs as the shim frame
        with no wrapper around it."""
        fd, buf_vaddr, nbytes = op.args
        if self.channels.is_sealed(fd):
            table = self.channels
        elif self.files.is_cloaked(fd):
            table = self.files
        else:
            return self._marshal_read_write(op)
        self.emulated_calls += 1
        if op.number is Syscall.READ:
            return table.read(fd, buf_vaddr, nbytes)
        return table.write(fd, buf_vaddr, nbytes)

    def _marshal_read_write(self, op: SyscallOp):
        """Unprotected channel: marshal through the uncloaked arena,
        possibly in chunks when the buffer exceeds the arena."""
        fd, buf_vaddr, nbytes = op.args
        self.marshalled_calls += 1
        if bus.ACTIVE:
            bus.shim_marshal(op.number._name_)
        total = 0
        offset = 0
        while offset < nbytes or (nbytes == 0 and offset == 0):
            chunk = min(nbytes - offset, self.arena.chunk_limit)
            self.arena.reset()
            marshal_vaddr = self.arena.alloc(max(chunk, 1))
            if op.number is Syscall.WRITE:
                if chunk:
                    yield Copy(buf_vaddr + offset, marshal_vaddr, chunk)
                result = yield SyscallOp(Syscall.WRITE,
                                         (fd, marshal_vaddr, chunk))
            else:
                result = yield SyscallOp(Syscall.READ,
                                         (fd, marshal_vaddr, chunk))
                if isinstance(result, int) and result > 0:
                    yield Copy(marshal_vaddr, buf_vaddr + offset, result)
            if not isinstance(result, int) or result <= 0:
                return result if total == 0 else total
            total += result
            offset += result
            if result < chunk or nbytes == 0:
                break
        return total

    # -- path-carrying calls ---------------------------------------------------------

    def _read_own_string(self, vaddr: int, length: int):
        data = yield Load(vaddr, length)
        return data.decode(errors="replace")

    def _marshal_string(self, text: str):
        data = text.encode()
        vaddr = self.arena.alloc(len(data) or 1)
        yield Store(vaddr, data or b"\x00")
        return vaddr, len(data)

    def _adapt_open(self, op: SyscallOp):
        path_vaddr, path_len, flags = op.args
        path = yield from self._read_own_string(path_vaddr, path_len)
        if path.startswith(self.secure_prefix + "/"):
            self.emulated_calls += 1
            # A protected FIFO becomes a sealed channel; anything else
            # under the prefix is a protected file.
            self.arena.reset()
            m_vaddr, m_len = yield from self._marshal_string(path)
            st = yield SyscallOp(Syscall.STAT, (m_vaddr, m_len))
            if isinstance(st, tuple) and st[0] == uapi.S_IFIFO:
                fd = yield SyscallOp(Syscall.OPEN, (m_vaddr, m_len, flags))
                if isinstance(fd, int) and fd >= 0:
                    self.channels.adopt(fd, path)
                return fd
            result = yield from self.files.open(path, flags)
            return result
        self.marshalled_calls += 1
        if bus.ACTIVE:
            bus.shim_marshal(Syscall.OPEN._name_)
        self.arena.reset()
        m_vaddr, m_len = yield from self._marshal_string(path)
        result = yield SyscallOp(Syscall.OPEN, (m_vaddr, m_len, flags))
        return result

    def _adapt_path_call(self, op: SyscallOp):
        path_vaddr, path_len = op.args[:2]
        rest = op.args[2:]
        path = yield from self._read_own_string(path_vaddr, path_len)
        self.marshalled_calls += 1
        if bus.ACTIVE:
            bus.shim_marshal(op.number._name_)
        self.arena.reset()
        m_vaddr, m_len = yield from self._marshal_string(path)
        result = yield SyscallOp(op.number, (m_vaddr, m_len) + rest,
                                 extra=op.extra)
        return result

    def _adapt_rename(self, op: SyscallOp):
        old_vaddr, old_len, new_vaddr, new_len = op.args
        old_path = yield from self._read_own_string(old_vaddr, old_len)
        new_path = yield from self._read_own_string(new_vaddr, new_len)
        self.marshalled_calls += 1
        if bus.ACTIVE:
            bus.shim_marshal(Syscall.RENAME._name_)
        self.arena.reset()
        m_old, m_old_len = yield from self._marshal_string(old_path)
        m_new, m_new_len = yield from self._marshal_string(new_path)
        result = yield SyscallOp(Syscall.RENAME,
                                 (m_old, m_old_len, m_new, m_new_len))
        return result

    def _adapt_readdir(self, op: SyscallOp):
        path_vaddr, path_len, buf_vaddr, buf_len = op.args
        path = yield from self._read_own_string(path_vaddr, path_len)
        self.marshalled_calls += 1
        if bus.ACTIVE:
            bus.shim_marshal(Syscall.READDIR._name_)
        self.arena.reset()
        m_path, m_path_len = yield from self._marshal_string(path)
        m_buf = self.arena.alloc(buf_len)
        result = yield SyscallOp(Syscall.READDIR,
                                 (m_path, m_path_len, m_buf, buf_len))
        if isinstance(result, int) and result > 0:
            yield Copy(m_buf, buf_vaddr, result)
        return result

    # -- fd-dispatched calls ------------------------------------------------------------

    def _adapt_fd_call(self, op: SyscallOp):
        fd = op.args[0]
        if self.channels.is_sealed(fd):
            self.emulated_calls += 1
            if op.number is Syscall.CLOSE:
                result = yield from self.channels.close(fd)
                return result
            if op.number is Syscall.LSEEK:
                return -uapi.ESPIPE
            if op.number is Syscall.FSTAT:
                return (uapi.S_IFIFO, 0, 0)
            return -uapi.EINVAL
        if self.files.is_cloaked(fd):
            self.emulated_calls += 1
            if op.number is Syscall.CLOSE:
                result = yield from self.files.close(fd)
            elif op.number is Syscall.LSEEK:
                result = self.files.lseek(fd, op.args[1], op.args[2])
            elif op.number is Syscall.FSTAT:
                result = self.files.fstat(fd)
            else:  # TRUNCATE
                result = yield from self.files.truncate(fd, op.args[1])
            return result
        self.passthrough_calls += 1
        result = yield op
        return result

    # -- mmap: new anonymous memory must be cloaked -----------------------------------------

    def _adapt_mmap(self, op: SyscallOp):
        length, prot, flags, fd, offset = op.args
        result = yield op
        if (isinstance(result, int) and result > 0
                and flags & uapi.MAP_ANON):
            vpn = layout.vpn_of(result)
            npages = layout.page_count(length)
            yield HypercallOp(Hypercall.CLOAK_RANGE,
                              (vpn, vpn + npages, "mmap-anon"))
        return result

    def _adapt_munmap(self, op: SyscallOp):
        vaddr, length = op.args
        vpn = layout.vpn_of(vaddr)
        npages = layout.page_count(length)
        yield HypercallOp(Hypercall.UNCLOAK_RANGE, (vpn, vpn + npages))
        result = yield op
        return result

    def _adapt_brk(self, op: SyscallOp):
        """Heap-break tracking: a shrink hands pages back to the OS, so
        the released range must be recycled with the VMM *before* the
        kernel frees (and possibly reassigns) the frames.  Otherwise
        stale page metadata survives and a later re-grow of the same
        vaddrs trips integrity verification on the fresh zero frames.

        The break is tracked lazily from observed BRK results; only a
        suspected shrink pays an extra ``brk(0)`` query (threads share
        the heap, so a locally tracked value may be stale)."""
        (new_brk,) = op.args
        if new_brk == 0:
            result = yield op
            if isinstance(result, int) and result > 0:
                self._brk_seen = result
            return result
        if new_brk >= layout.HEAP_BASE and (
                self._brk_seen is None or new_brk < self._brk_seen):
            current = yield SyscallOp(Syscall.BRK, (0,))
            if isinstance(current, int) and current > 0:
                self._brk_seen = current
                if new_brk < current:
                    old_pages = layout.page_count(current - layout.HEAP_BASE)
                    # The kernel always keeps the first heap page mapped.
                    keep = max(layout.page_count(new_brk - layout.HEAP_BASE), 1)
                    if old_pages > keep:
                        heap_vpn = layout.vpn_of(layout.HEAP_BASE)
                        yield HypercallOp(Hypercall.PAGE_RECYCLE,
                                          (heap_vpn + keep, old_pages - keep))
        result = yield op
        if isinstance(result, int) and result > 0:
            self._brk_seen = result
        return result

    _ADAPTERS = {
        Syscall.EXIT: _adapt_exit,
        Syscall.READ: _adapt_read_write,
        Syscall.WRITE: _adapt_read_write,
        Syscall.OPEN: _adapt_open,
        Syscall.CLOSE: _adapt_fd_call,
        Syscall.LSEEK: _adapt_fd_call,
        Syscall.FSTAT: _adapt_fd_call,
        Syscall.TRUNCATE: _adapt_fd_call,
        Syscall.STAT: _adapt_path_call,
        Syscall.UNLINK: _adapt_path_call,
        Syscall.MKDIR: _adapt_path_call,
        Syscall.MKFIFO: _adapt_path_call,
        Syscall.EXEC: _adapt_path_call,
        Syscall.READDIR: _adapt_readdir,
        Syscall.RENAME: _adapt_rename,
        Syscall.MMAP: _adapt_mmap,
        Syscall.MUNMAP: _adapt_munmap,
        Syscall.BRK: _adapt_brk,
        # FORK is forwarded: the VMM observes fork architecturally and
        # clones the domain.
    }
