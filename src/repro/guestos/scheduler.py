"""Preemptive round-robin scheduler."""

from collections import deque
from typing import Deque, Optional

from repro.guestos.process import Process, ProcessState
from repro.obs import bus


class Scheduler:
    """Round-robin over READY processes with fixed timeslices.

    The machine loop asks :meth:`pick` for the next process to run and
    calls :meth:`requeue` when a timeslice expires; blocking and waking
    move processes off and onto the ready queue.
    """

    def __init__(self) -> None:
        self._ready: Deque[Process] = deque()
        self.context_switches = 0

    def __len__(self) -> int:
        return len(self._ready)

    def enqueue(self, proc: Process) -> None:
        if proc.state in (ProcessState.ZOMBIE, ProcessState.DEAD):
            return
        proc.state = ProcessState.READY
        if proc not in self._ready:
            self._ready.append(proc)

    def pick(self) -> Optional[Process]:
        while self._ready:
            proc = self._ready.popleft()
            if proc.state is ProcessState.READY:
                proc.state = ProcessState.RUNNING
                self.context_switches += 1
                if bus.ACTIVE:
                    bus.sched_slice(proc.pid)
                return proc
        return None

    def requeue(self, proc: Process) -> None:
        """Timeslice expired: back of the line."""
        self.enqueue(proc)

    def block(self, proc: Process) -> None:
        proc.state = ProcessState.BLOCKED
        # The running process, the usual caller, is not queued.
        if proc in self._ready:
            self._ready.remove(proc)

    def wake(self, proc: Process) -> None:
        if proc.state is ProcessState.BLOCKED:
            self.enqueue(proc)
