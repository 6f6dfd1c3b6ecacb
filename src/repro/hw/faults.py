"""Fault and trap types raised by the simulated hardware.

Two distinct audiences consume these:

* :class:`PageFault` and :class:`GeneralProtectionFault` are
  *guest-visible* — the VMM reflects them into the guest kernel, which
  handles them like a real OS would.
* :class:`CloakFault` is *VMM-internal* — it signals that an access is
  legal at the guest level but the page's cloaking state does not match
  the accessing context.  The VMM converts the page and retries; the
  guest never observes it (except as elapsed time).
"""

import enum


class AccessKind(enum.Enum):
    """What a memory access is trying to do."""

    READ = "read"
    WRITE = "write"
    EXECUTE = "execute"

    @property
    def is_write(self) -> bool:
        return self is AccessKind.WRITE


class PageFaultReason(enum.Enum):
    NOT_PRESENT = "not-present"
    PROTECTION = "protection"
    USER_SUPERVISOR = "user-supervisor"


class MachineError(Exception):
    """Base class for all simulated-machine errors."""


class PageFault(MachineError):
    """Guest-visible page fault, delivered to the guest kernel."""

    # The guest kernel handles most page faults without ever reading
    # the text, so it is built on demand: ``__init__`` touches no
    # ``Enum.value`` property.  ``args`` holds the three constructor
    # arguments, which also makes the fault picklable.
    def __init__(self, vaddr: int, access: AccessKind, reason: PageFaultReason):
        self.vaddr = vaddr
        self.access = access
        self.reason = reason

    def __str__(self) -> str:
        return (f"page fault @ {self.vaddr:#010x} "
                f"({self.access.value}, {self.reason.value})")


class GeneralProtectionFault(MachineError):
    """Privilege violation (e.g. user code touching kernel addresses)."""

    def __init__(self, message: str):
        super().__init__(message)


class CloakFault(MachineError):
    """VMM-internal: access context does not match the page's cloak state.

    Raised by the cloak engine during translation; always caught and
    resolved by the VMM before the access retries.
    """

    def __init__(self, vaddr: int, gpfn: int, access: AccessKind, view: int):
        super().__init__(
            f"cloak fault @ {vaddr:#010x} gpfn={gpfn} ({access.value}, view={view})"
        )
        self.vaddr = vaddr
        self.gpfn = gpfn
        self.access = access
        self.view = view
