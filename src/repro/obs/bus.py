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

When a sink attaches, :func:`attach` rebinds every probe name in this
module's globals to an emitter closure that stamps the event with the
shared virtual-cycle clock and delivers it to each sink.  Detaching
the last sink swaps the no-ops back.  The indirection is the contract
OBS001 enforces: instrumented modules import *the bus module*, never a
frozen probe function and never a sink, so the swap stays visible and
the sinks stay out of the TCB's import graph.

Probes never charge cycles, never mutate machine state, and carry only
plain ints/strings — attaching and detaching a sink leaves the
virtual-cycle ledger bit-identical (the determinism tests and the
``BENCH_wallclock.json`` hash prove it).

Sink protocol::

    class MySink:
        def on_event(self, name: str, cycle: int, args: tuple) -> None:
            ...

``args`` is positional, in the field order :data:`PROBES` declares for
``name``.  All sinks attached at once must share one clock (one
machine); trace one machine at a time.
"""

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
_clock: Optional[Callable[[], int]] = None


def attach(sink: object, clock) -> None:
    """Attach ``sink``; every probe firing is delivered to it.

    ``clock`` supplies the virtual-cycle timestamp: either a zero-arg
    callable or an object with a ``total`` attribute (a
    :class:`repro.hw.cycles.CycleAccount`).  All concurrently attached
    sinks must share the same clock object.
    """
    global _clock, ACTIVE
    if any(existing is sink for existing in _sinks):
        raise RuntimeError("sink is already attached")
    if not callable(getattr(sink, "on_event", None)):
        raise TypeError(f"sink {sink!r} has no on_event(name, cycle, args)")
    if _sinks and clock is not _raw_clock():
        raise RuntimeError(
            "all attached sinks must share one clock (one machine); "
            "detach the current sinks first")
    _set_clock(clock)
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


_clock_raw: object = None


def _raw_clock() -> object:
    return _clock_raw


def _set_clock(clock) -> None:
    global _clock, _clock_raw
    if callable(clock):
        reader = clock
    else:
        if getattr(type(clock), "total", None) is None:
            raise TypeError(
                f"clock {clock!r} is neither callable nor has .total")
        reader = lambda c=clock: c.total  # noqa: E731 — tiny hot closure
    _clock_raw = clock
    _clock = reader


def _make_emitter(name: str):
    clock = _clock
    if len(_sinks) == 1:
        on_event = _sinks[0].on_event

        def emit_one(*args, _on=on_event, _clock=clock, _name=name) -> None:
            _on(_name, _clock(), args)

        return emit_one
    sinks = tuple(_sinks)

    def emit_many(*args, _sinks=sinks, _clock=clock, _name=name) -> None:
        cycle = _clock()
        for sink in _sinks:
            sink.on_event(_name, cycle, args)

    return emit_many


def _rebind() -> None:
    """Swap every probe global between no-op and live emitter."""
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
        g[probe_attr(name)] = _make_emitter(name)
    ACTIVE = True


# Bind the initial no-ops so `bus.tlb_fill` etc. exist at import time.
_rebind()
