"""Cloaked thread contexts: protecting registers across kernel entries.

When control leaves a cloaked application involuntarily (interrupt,
fault) or via a syscall, the architectural registers would be exposed
to the untrusted kernel.  The VMM therefore saves them into a
*cloaked thread context* it owns, scrubs the register file (leaving
visible only what the transfer legitimately passes, e.g. syscall
arguments), and on resume restores the saved state — ignoring any
register values the kernel tried to plant, and only ever resuming at
the point the thread actually left.  This is the mechanism of the
"Transparent VMM-assisted user-mode execution control transfer"
patent that accompanies the paper.
"""

import enum
from typing import Dict, List, Optional

from repro.core.errors import ControlTransferViolation


class ExitReason(enum.Enum):
    SYSCALL = "syscall"
    HYPERCALL = "hypercall"
    FAULT = "fault"
    INTERRUPT = "interrupt"
    SIGNAL_ENTER = "signal-enter"


class CloakedThreadContext:
    """Saved register state of one cloaked thread, VMM-private."""

    __slots__ = ("pid", "saved_regs", "reason", "valid", "nesting")

    def __init__(self, pid: int):
        self.pid = pid
        self.saved_regs: Optional[Dict[str, int]] = None
        self.reason: Optional[ExitReason] = None
        self.valid = False
        #: Signal delivery can interrupt a thread that is already in a
        #: saved state; contexts stack (paper: one CTC per in-flight
        #: transfer).
        self.nesting: List[Dict[str, int]] = []

    def save(self, regs: Dict[str, int], reason: ExitReason) -> None:
        if self.valid and self.saved_regs is not None:
            self.nesting.append(self.saved_regs)
        self.saved_regs = dict(regs)
        self.reason = reason
        self.valid = True

    def restore(self) -> Dict[str, int]:
        """Take the saved registers for resume; raises if none pending."""
        if not self.valid or self.saved_regs is None:
            raise ControlTransferViolation(
                f"resume of thread {self.pid} with no saved cloaked context"
            )
        regs = self.saved_regs
        if self.nesting:
            self.saved_regs = self.nesting.pop()
        else:
            self.saved_regs = None
            self.valid = False
        return regs

    def peek(self) -> Optional[Dict[str, int]]:
        return dict(self.saved_regs) if self.saved_regs is not None else None


class CTCTable:
    """All cloaked thread contexts, keyed by thread (pid)."""

    def __init__(self) -> None:
        #: pid -> context.  The world-switch path reads it directly and
        #: falls back to :meth:`get` (the one creator) on a miss.
        self.by_pid: Dict[int, CloakedThreadContext] = {}

    def get(self, pid: int) -> CloakedThreadContext:
        ctc = self.by_pid.get(pid)
        if ctc is None:
            ctc = CloakedThreadContext(pid)
            self.by_pid[pid] = ctc
        return ctc

    def clone(self, parent_pid: int, child_pid: int) -> CloakedThreadContext:
        """Fork: the child resumes from the parent's saved state."""
        parent = self.get(parent_pid)
        child = self.get(child_pid)
        if parent.saved_regs is not None:
            child.saved_regs = dict(parent.saved_regs)
            child.reason = parent.reason
            child.valid = parent.valid
        return child

    def drop(self, pid: int) -> None:
        self.by_pid.pop(pid, None)

    def __len__(self) -> int:
        return len(self.by_pid)
