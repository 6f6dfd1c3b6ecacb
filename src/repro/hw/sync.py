"""The one virtual lock left on the single-CPU machine.

:class:`VLock` guards nothing a second CPU could race on: the machine
has one CPU.  It survives only because ``repro.core.crypto``'s
``VLock("crypto.memo")`` emits the ``sync.acquire``/``sync.access``/
``sync.release`` probes, and benchmark pins hash that probe stream
(probe-name sets, per-probe counts).  Acquiring or releasing one
charges no virtual cycle, so the committed cycle hash is unaffected.
"""

from repro.obs import bus

#: The executing virtual CPU, as the ``sync.*`` probes report it.
CPU = 0


class LockError(RuntimeError):
    """Misuse of a :class:`VLock` (re-acquire, release while free)."""


class VLock:
    """A non-reentrant virtual lock that reports ownership changes.

    The deterministic machine has no preemption inside a critical
    section, so a re-acquire is always a bug (it would self-deadlock on
    real hardware) and raises immediately.
    """

    __slots__ = ("name", "held")

    def __init__(self, name: str):
        self.name = name
        self.held = False

    def acquire(self) -> None:
        if self.held:
            raise LockError(
                f"re-acquired non-reentrant lock {self.name!r}")
        self.held = True
        if bus.ACTIVE:
            bus.sync_acquire(self.name, CPU)

    def release(self) -> None:
        if not self.held:
            raise LockError(f"released lock {self.name!r} that is not held")
        self.held = False
        if bus.ACTIVE:
            bus.sync_release(self.name, CPU)

    def __enter__(self) -> "VLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"VLock({self.name!r}, held={self.held})"
