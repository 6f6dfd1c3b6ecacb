"""The probe bus: named instrumentation points, zero-cost when off.

Every observable event in the simulator — a hypercall, a cloaking
transition, a TLB fill, a disk block, a swap, a fault firing — is a
*probe*: a module-level callable on this module.  Instrumented code
fires probes like::

    from repro.obs import bus
    ...
    bus.cloak_encrypt(md.owner_id, md.vpn, gpfn, cost)

With no sink attached every probe **is** :func:`_noop` — a bare
function whose body is ``pass`` — so the hot paths PR 4 vectorized pay
one no-op call at most.  Sites that fire at per-syscall rate guard
even that with the :data:`ACTIVE` flag, which also skips argument
evaluation::

    if bus.ACTIVE:
        bus.vmm_hypercall(number.name)

When a sink attaches, :func:`attach` asks it for one *handler* per
probe and rebinds every probe name in this module's globals.  With one
sink attached the probe global **is** that sink's handler, so a firing
probe costs exactly one call; with several, it is a fan-out over their
handlers.  Detaching the last sink swaps the no-ops back.  The
indirection is the contract OBS001 enforces: instrumented modules
import *the bus module*, never a frozen probe function and never a
sink, so the swap stays visible and the sinks stay out of the TCB's
import graph.

Probes never charge cycles, never mutate machine state, and carry only
plain ints/strings — attaching and detaching a sink leaves the
virtual-cycle ledger bit-identical (the determinism tests and the
``BENCH_wallclock.json`` hash prove it).

Sink protocol::

    class MySink:
        def bind(self, name: str, clock: Callable[[], int]) -> Callable:
            def handler(*args) -> None:
                ...  # clock() is the event's virtual-cycle stamp
            return handler

:func:`attach` calls ``bind`` once per catalogued probe, again on every
later attach or detach of any sink, so state a sink keeps across
bindings lives on the sink, not in the handler.  A handler receives the
probe's arguments positionally, in the field order :data:`PROBES`
declares for ``name``.  ``clock`` is a zero-argument reader of the
virtual-cycle clock; for a :class:`repro.hw.cycles.CycleAccount` it
enters no Python frame.  All sinks attached at once must share one
clock (one machine); trace one machine at a time.
"""

import operator
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

#: Probe catalog: name -> field names, in emission order.  The name's
#: dotted prefix is the emitting component ("vmm.hypercall" -> "vmm");
#: the module-level callable is the name with "." replaced by "_".
PROBES: Dict[str, Tuple[str, ...]] = {
    # core/vmm: world switches, hypercalls, shadow fills, violations
    "vmm.enter_user": ("pid", "domain"),
    "vmm.exit_user": ("pid", "reason", "domain"),
    "vmm.hypercall": ("number",),
    "vmm.shadow_fill": ("asid", "view", "vpn", "gpfn"),
    "vmm.violation": ("pid", "kind"),
    # shadow-mapping drops after a frame's cloak visibility changed
    # ("dropped" = mappings invalidated for the frame)
    "vmm.coherence": ("gpfn", "dropped"),
    # core/cloak: the five transition kinds, with their ledger cost
    "cloak.zero_fill": ("owner", "vpn", "gpfn", "cost"),
    "cloak.decrypt": ("owner", "vpn", "gpfn", "cost"),
    "cloak.encrypt": ("owner", "vpn", "gpfn", "cost"),
    "cloak.ct_restore": ("owner", "vpn", "gpfn", "cost"),
    "cloak.dirty_upgrade": ("owner", "vpn"),
    # page metadata discarded (uncloak/unbind/scrub): its lifecycle ends
    "cloak.discard": ("owner", "vpn"),
    # core/shim: marshalled syscalls
    "shim.marshal": ("syscall",),
    # hw/mmu + hw/tlb: fills, evictions, aggregated fast-path hits
    "tlb.fill": ("asid", "view", "vpn"),
    "tlb.evict": ("asid", "view", "vpn"),
    "tlb.hits": ("hits", "misses"),
    # explicit single-page invalidation (asid -1 = all address spaces)
    "tlb.invalidate": ("asid", "vpn", "dropped"),
    # hw/disk: DMA block transfers
    "disk.read": ("lba",),
    "disk.write": ("lba",),
    # guestos/swap + guestos/scheduler
    "swap.out": ("asid", "vpn", "gpfn"),
    "swap.in": ("asid", "vpn", "gpfn"),
    "sched.slice": ("pid",),
    # hw/sync: the crypto memo lock's ownership changes and accesses
    # ("state" is module:memo).  Nothing races on one CPU; the probes
    # stay because benchmark pins hash this stream (probe-name set,
    # per-probe counts), so changing them means re-pinning.
    "sync.acquire": ("lock", "cpu"),
    "sync.release": ("lock", "cpu"),
    "sync.access": ("state", "cpu"),
    # faults/plan: an armed injection site fired
    "fault.fire": ("site",),
    # hw/snapshot + hw/phys: machine snapshot lifecycle.  "capture"
    # and "restore" bracket the host-side cost of cloning a booted
    # machine; "cow_fault" fires when a restored machine materialises
    # a private copy of a snapshot-shared frame on first write.
    "snapshot.capture": ("frames", "procs"),
    "snapshot.restore": ("frames",),
    "snapshot.cow_fault": ("pfn",),
}

#: True iff at least one sink is attached.  Hot sites read this before
#: evaluating probe arguments.
ACTIVE = False


def probe_attr(name: str) -> str:
    """Module attribute carrying probe ``name`` ("tlb.fill" -> "tlb_fill")."""
    return name.replace(".", "_")


def component_of(name: str) -> str:
    """The emitting component of a probe name ("tlb.fill" -> "tlb")."""
    return name.partition(".")[0]


def _noop(*args) -> None:
    """Every probe, while no sink is attached."""


_sinks: List[object] = []
#: The clock object the attached sinks share, and its zero-arg reader.
_clock_raw: object = None
_clock: Optional[Callable[[], int]] = None


def attach(sink: object, clock) -> None:
    """Attach ``sink``; every probe firing is delivered to it.

    ``clock`` supplies the virtual-cycle timestamp: either a zero-arg
    callable or an object with a ``total`` attribute (a
    :class:`repro.hw.cycles.CycleAccount`).  All concurrently attached
    sinks must share the same clock object.
    """
    global _clock, _clock_raw
    if any(existing is sink for existing in _sinks):
        raise RuntimeError("sink is already attached")
    if not callable(getattr(sink, "bind", None)):
        raise TypeError(f"sink {sink!r} has no bind(name, clock)")
    if _sinks and clock is not _clock_raw:
        raise RuntimeError(
            "all attached sinks must share one clock (one machine); "
            "detach the current sinks first")
    if callable(clock):
        reader = clock
    elif hasattr(clock, "total"):
        # A C-level reader: no Python frame per timestamp.
        reader = partial(operator.attrgetter("total"), clock)
    else:
        raise TypeError(f"clock {clock!r} is neither callable nor has .total")
    _clock_raw, _clock = clock, reader
    _sinks.append(sink)
    _rebind()


def detach(sink: object) -> None:
    """Detach ``sink``; detaching the last sink restores the no-ops."""
    for index, existing in enumerate(_sinks):
        if existing is sink:
            del _sinks[index]
            break
    else:
        raise RuntimeError("sink is not attached")
    _rebind()


def detach_all() -> None:
    """Drop every sink (test teardown; never on a hot path)."""
    _sinks.clear()
    _rebind()


def attached_sinks() -> Tuple[object, ...]:
    return tuple(_sinks)


def _fan_out(handlers: Tuple[Callable, ...]) -> Callable:
    def fan_out(*args) -> None:
        for handler in handlers:
            handler(*args)

    return fan_out


def _rebind() -> None:
    """Swap every probe global between no-op and the sinks' handlers."""
    global ACTIVE, _clock, _clock_raw
    g = globals()
    if not _sinks:
        ACTIVE = False
        _clock = None
        _clock_raw = None
        for name in PROBES:
            g[probe_attr(name)] = _noop
        return
    for name in PROBES:
        handlers = tuple(sink.bind(name, _clock) for sink in _sinks)
        g[probe_attr(name)] = \
            handlers[0] if len(handlers) == 1 else _fan_out(handlers)
    ACTIVE = True


# Bind the initial no-ops so `bus.tlb_fill` etc. exist at import time.
_rebind()
