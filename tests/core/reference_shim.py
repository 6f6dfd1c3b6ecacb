"""Frozen reference for the shim's interposition layer.

This is the shim as it was before its adapters ran as frames on the
runtime's own stack: a session generator (boot, interposed ``main``,
shutdown) at the bottom of the stack, an ``_interpose`` loop that
drives every program generator and an ``_adapt`` if-chain that picks
the adapter for each syscall.  ``_session``, ``_child_session``,
``_interpose``, ``_adapt``, ``_wrap`` and ``_postprocess`` are copied
verbatim, together with the stack machinery of ``BaseRuntime`` they
plugged into (``start``, ``start_child``, ``next_op``,
``deliver_signal``); the adapters themselves (``_adapt_open``, ...),
``_boot`` and ``_shutdown`` are inherited from the code under test.

Never regenerate this from the code under test; ``test_shim_oracle.py``
runs the same scenarios under both runtimes and requires identical op
streams, results, counters, cycles and probe streams.
"""

from typing import Any, Callable, Iterator, List, Optional

from repro.apps.program import _Frame
from repro.core.shim.protocol import SyscallClass, classify
from repro.core.shim.shim import ShimRuntime
from repro.guestos import uapi
from repro.guestos.uapi import Syscall, SyscallOp


class ReferenceShimRuntime(ShimRuntime):
    """The pre-frame-stack shim: sessions, ``_interpose`` and ``_adapt``."""

    # -- construction of runtimes of the same kind ---------------------------

    def make_child(self, entry: Callable, args: tuple) -> "ShimRuntime":
        child = ReferenceShimRuntime(self.program, self.ctx.argv, self.name,
                                     self.image, self.secure_prefix)
        self._clone_into(child, entry, args)
        return child

    def make_thread(self, entry: Callable, args: tuple) -> "ShimRuntime":
        thread = ReferenceShimRuntime(self.program, self.ctx.argv, self.name,
                                      self.image, self.secure_prefix)
        self._thread_into(thread, entry, args)
        thread.arena = self.arena
        thread.files = self.files
        thread.channels = self.channels
        thread.domain_id = self.domain_id
        thread._is_thread = True
        return thread

    # -- BaseRuntime's stack machinery -----------------------------------------

    def _initial_stack(self, pid: int) -> List[_Frame]:
        return [_Frame(self._session(pid))]

    def start(self, pid: int) -> None:
        self.ctx.pid = pid
        self._stack = self._initial_stack(pid)

    def start_child(self, pid: int) -> None:
        """A forked child: the domain was cloned by the VMM when the
        kernel reported the fork, so no boot sequence runs — but open
        cloaked-file windows carry over (the address space is a copy,
        so the window vaddrs remain valid)."""
        if self._child_entry is None:
            raise RuntimeError("not a forked child runtime")
        entry, args = self._child_entry
        self.ctx.pid = pid
        self._stack = [_Frame(self._child_session(entry, args))]

    def next_op(self, result: Any) -> Optional[uapi.UserOp]:
        """Advance the program; returns the next op, or None when the
        process has already requested exit.

        ``result`` is the outcome of the previously returned op and is
        routed to the frame that yielded it, which is not necessarily
        the current top of stack (a signal handler may have been
        pushed in between).
        """
        if result is not None and self._awaiting is not None:
            self._awaiting.inbox = result
        while self._stack:
            frame = self._stack[-1]
            value, frame.inbox = frame.inbox, None
            try:
                op = frame.gen.send(value)
            except StopIteration as stop:
                self._stack.pop()
                if not self._stack and stop.value is not None:
                    self._exit_code = int(stop.value)
                continue
            self._awaiting = frame
            return self._postprocess(op)
        if not self._exit_emitted:
            self._exit_emitted = True
            return uapi.SyscallOp(Syscall.EXIT, (self._exit_code,))
        return None

    def _postprocess(self, op: uapi.UserOp) -> uapi.UserOp:
        if isinstance(op, uapi.SyscallOp) and op.number == Syscall.SIGACTION:
            sig, action = op.args
            if action == 2:
                self.handled_signals.add(sig)
            else:
                self.handled_signals.discard(sig)
        return op

    def deliver_signal(self, sig: int) -> bool:
        """Push the program's handler; True when it will run."""
        if sig not in self.handled_signals or not self._stack:
            return False
        handler = self._wrap(self.program.signal_handler(self.ctx, sig))
        self._stack.append(_Frame(handler))
        return True

    # -- the shim's sessions and interposition -----------------------------------

    def _wrap(self, gen: Iterator) -> Iterator:
        return self._interpose(gen)

    def _session(self, pid: int):
        yield from self._boot(pid)
        code = yield from self._interpose(self.program.main(self.ctx))
        yield from self._shutdown()
        return code

    def _child_session(self, entry: Callable, args: tuple):
        code = yield from self._interpose(entry(self.ctx, *args))
        yield from self._shutdown()
        return code

    def _interpose(self, gen: Iterator):
        """Drive a program generator, adapting each syscall."""
        result = None
        while True:
            try:
                if result is None:
                    op = next(gen)
                else:
                    op = gen.send(result)
            except StopIteration as stop:
                return stop.value
            if isinstance(op, SyscallOp):
                result = yield from self._adapt(op)
            else:
                result = yield op

    def _adapt(self, op: SyscallOp):
        number = op.number
        adaptation = classify(number)
        if adaptation is SyscallClass.PASS_THROUGH:
            self.passthrough_calls += 1
            result = yield op
            return result
        if number is Syscall.EXIT:
            yield from self._shutdown()
            result = yield op
            return result
        if number in (Syscall.READ, Syscall.WRITE):
            result = yield from self._adapt_read_write(op)
            return result
        if number is Syscall.OPEN:
            result = yield from self._adapt_open(op)
            return result
        if number in (Syscall.CLOSE, Syscall.LSEEK, Syscall.FSTAT,
                      Syscall.TRUNCATE):
            result = yield from self._adapt_fd_call(op)
            return result
        if number in (Syscall.STAT, Syscall.UNLINK, Syscall.MKDIR,
                      Syscall.MKFIFO):
            result = yield from self._adapt_path_call(op)
            return result
        if number is Syscall.READDIR:
            result = yield from self._adapt_readdir(op)
            return result
        if number is Syscall.RENAME:
            result = yield from self._adapt_rename(op)
            return result
        if number is Syscall.MMAP:
            result = yield from self._adapt_mmap(op)
            return result
        if number is Syscall.MUNMAP:
            result = yield from self._adapt_munmap(op)
            return result
        if number is Syscall.BRK:
            result = yield from self._adapt_brk(op)
            return result
        if number is Syscall.EXEC:
            result = yield from self._adapt_path_call(op)
            return result
        # FORK and anything unlisted: forward (the VMM observes fork
        # architecturally and clones the domain).
        self.passthrough_calls += 1
        result = yield op
        return result
