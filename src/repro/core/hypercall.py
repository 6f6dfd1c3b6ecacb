"""The hypercall interface between the shim and the VMM.

Hypercalls are direct user-mode-to-VMM transitions: they never enter
the guest kernel, so nothing about them (arguments, results, even
their occurrence) is visible to the OS.  The shim uses them to manage
its protection domain; nothing else in the guest may affect cloaking
state.
"""

import enum
from typing import Any, Callable, Dict, Tuple

from repro.core.errors import HypercallError


class Hypercall(enum.Enum):
    """Hypercall numbers."""

    CLOAK_INIT = 1        # (name, image_bytes, pid) -> domain_id
    CLOAK_RANGE = 2       # (start_vpn, end_vpn, label) -> None
    UNCLOAK_RANGE = 3     # (start_vpn, end_vpn) -> bool
    FILE_BIND = 4         # (start_vpn, file_id, first_page, npages) -> None
    FILE_FORGET = 5       # (file_id,) -> int
    FILE_UNBIND = 6       # (start_vpn, npages) -> int (persist + forget pages)
    REGISTER_ENTRY = 7    # (vaddr,) -> None  (approved control-transfer target)
    DOMAIN_EXIT = 8       # () -> None       (scrub + teardown)
    GET_IDENTITY = 9      # () -> image hash hex (attestation-ish)
    ADOPT_IMAGE = 10      # (start_vaddr, length) -> None (verify + adopt)
    CHANNEL_SEAL = 11     # (channel_id, seq, data) -> sealed record
    CHANNEL_OPEN = 12     # (channel_id, seq, record) -> plaintext
    PAGE_RECYCLE = 13     # (start_vpn, npages) -> int (discard recycled pages)


class HypercallDispatcher:
    """Validates and routes hypercalls to VMM handlers.

    Handlers are registered per number as plain functions and called
    with the dispatching VMM and the caller's domain id prepended to
    the arguments.  Holding no bound methods keeps the VMM → dispatcher
    edge one-way, so a dropped machine is freed by reference counting
    rather than left for the cyclic collector.

    Authorization rule: ``CLOAK_INIT`` is only meaningful from the
    uncloaked world (that is how a shim bootstraps cloaking); every
    other call must come from a cloaked context and acts on the
    caller's own domain.
    """

    def __init__(self) -> None:
        #: Keyed by the member's int value: a dict lookup by an int
        #: hashes at C speed, a plain ``Enum`` member does not.
        self._handlers: Dict[int, Callable[..., Any]] = {}

    def register(self, number: Hypercall, handler: Callable[..., Any]) -> None:
        if number._value_ in self._handlers:
            raise ValueError(f"duplicate handler for {number}")
        self._handlers[number._value_] = handler

    def replace(self, number: Hypercall,
                handler: Callable[..., Any]) -> Callable[..., Any]:
        """Swap the handler of a registered number and return the
        previous one, so the caller can put it back."""
        previous = self._handlers.get(number._value_)
        if previous is None:
            raise ValueError(f"no handler registered for {number}")
        self._handlers[number._value_] = handler
        return previous

    def dispatch(self, vmm: Any, caller_domain: int, number: Hypercall,
                 args: Tuple) -> Any:
        handler = self._handlers.get(number._value_)
        if handler is None:
            raise HypercallError(f"unimplemented hypercall {number}")
        if number is Hypercall.CLOAK_INIT:
            if caller_domain != 0:
                raise HypercallError("CLOAK_INIT from an already-cloaked context")
        elif caller_domain == 0:
            raise HypercallError(f"{number.name} requires a cloaked caller")
        return handler(vmm, caller_domain, *args)
