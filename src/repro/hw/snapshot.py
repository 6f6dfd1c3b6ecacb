"""Machine snapshots by value: capture once, restore per run.

A snapshot clones a quiescent booted machine the way a hypervisor
forks a VM.  Capture pickles the whole machine once — guest-physical
memory (its touched frames, by value), allocator free stacks,
pagetables/TLB, cloak metadata, ramfs, written disk blocks, scheduler,
RNG streams, the cycle ledger — and each restore is one C-speed
unpickle.  A restored machine is therefore *architecturally
indistinguishable* from the machine that was captured — same cycle
total, same register file, same free-stack order — so a run started
from a restore is cycle- and state-identical to the same run started
on the captured machine.  The snapshot equivalence property test
proves this for all registered guest programs, native and cloaked.
Every memory- or disk-sized structure holds only what was touched, so
a capture, a restore, and every pass of the garbage collector over the
restored machine, cost O(touched frames and blocks), not O(configured
memory).

What is shared vs. copied:

* **shared** — program images and factories (the kernel registry
  entries), cost tables / machine params (frozen dataclasses), the
  runtime tombstone, and the pure memoized derivations in
  ``repro.core.crypto``.  The crypto memos cache pure functions of
  immutable keys with immutable values, so a hit or an eviction in
  one restore never changes what another computes.  A snapshot is
  immutable from the caller's view, so restores from one share nothing
  mutable with each other or with the captured machine.
* **copied** — everything else reachable from the machine object
  graph: physical memory, kernel, VMM, MMU/TLB, CPU, allocator, disk,
  cycle ledger.  The shared objects are written as persistent
  references; one unpickle preserves interior aliasing (e.g. the TLB
  entry a translation returned, the metadata record two cloak paths
  share) *inside* a restore and never leaks it *across* restores.  A
  machine that cannot be pickled fails loudly at capture
  (:class:`SnapshotError`).  The machine graph has no reference cycles
  (its one upward edge, the MMU's translation authority, is a weak
  reference that capture pickles as such), so a dropped restore is
  freed by reference counting at once, not by the cyclic garbage
  collector.

Restrictions, by construction:

* **Quiescence.** Only a machine whose every process has exited
  (ZOMBIE/DEAD) can be captured: live runtimes are Python generators,
  which cannot be cloned.  This mirrors the fork limitation
  documented in ``docs/PERFORMANCE.md`` — snapshots capture machine
  state, not guest control flow.
* **No fault plan.** A machine built under a fault plan cannot be
  captured: its injector wrappers share the plan's opportunity
  counters and RNG substreams, which a restore could not hand to
  another run without changing that run's fault schedule.  A planned
  machine is booted fresh under its own plan
  (:meth:`repro.machine.Machine.boot`).
"""

import copyreg
import io
import pickle
import weakref
from typing import Any, Dict

from repro.obs import bus

#: Process states a capturable machine may contain (quiescence).
_QUIESCENT_STATES = frozenset({"ZOMBIE", "DEAD"})


class SnapshotError(RuntimeError):
    """The machine cannot be captured (not quiescent, live runtimes,
    built under a fault plan, not picklable)."""


class _InertRuntime:
    """Tombstone replacing the runtime of an exited process.

    Runtimes of live processes are generators and cannot be cloned;
    quiescence guarantees the kernel never resumes an exited task, so
    its runtime only needs to *exist*.  Any attempt to drive it is a
    snapshot-layer bug, reported as such.
    """

    def next_op(self, result):
        raise SnapshotError("resumed the runtime of an exited process "
                            "after a snapshot restore")

    def deliver_signal(self, sig) -> bool:
        raise SnapshotError("signalled the runtime of an exited process "
                            "after a snapshot restore")


def _plain_class(cls: type) -> bool:
    """True if pickle would rebuild ``cls`` instances as ``cls.__new__``
    plus their ``__dict__``, with no hook of the class involved."""
    return (cls.__new__ is object.__new__
            and cls.__reduce_ex__ is object.__reduce_ex__
            and cls.__reduce__ is object.__reduce__
            and cls.__setattr__ is object.__setattr__
            and getattr(cls, "__getstate__", None)
            is getattr(object, "__getstate__", None)
            and not hasattr(cls, "__setstate__")
            and not hasattr(cls, "__slots__"))


class _SnapPickler(pickle.Pickler):
    """Pickler that externalises the snapshot's shared objects.

    Objects tagged in ``pids`` (frozen params and cost tables, exited
    runtimes, registry entries — whose runtime factories are closures
    and could not be pickled anyway) are written as persistent
    references; :meth:`SnapshotState.restore` resolves them to the same
    shared objects.  Everything else round-trips through pickle's C
    implementation.
    """

    def __init__(self, file, pids: Dict[int, tuple]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pids = pids
        self._plain: Dict[type, bool] = {}

    def reducer_override(self, obj):
        # Default pickling rebuilds an instance by writing into its
        # __dict__, which costs CPython its inline attribute storage:
        # a restored machine then ran ~10% slower than a fresh one.
        # Passing the same state as slot state makes the unpickler
        # setattr() each attribute instead, which keeps it.
        cls = type(obj)
        plain = self._plain.get(cls)
        if plain is None:
            plain = self._plain[cls] = _plain_class(cls)
        if plain:
            return copyreg.__newobj__, (cls,), (None, obj.__dict__)
        if cls is weakref.ReferenceType:
            # The machine graph's upward edges are weak (the MMU's
            # translation authority); the referent is pickled with the
            # machine, so a restore re-creates the edge to its copy.
            return weakref.ref, (obj(),)
        return NotImplemented

    def persistent_id(self, obj):
        return self._pids.get(id(obj))


class SnapshotState:
    """One captured machine: a pickled image of the whole machine.

    Constructing one captures a quiescent machine (see module
    docstring); clone machines with :meth:`restore`.  The source
    machine remains usable — capture copies its state by value — but
    the cheap pattern is boot → capture → discard, then restore per
    run.  The object is immutable from the caller's point of view — any
    number of machines can be restored from it, concurrently safe in
    the single-thread sense (restores share only immutable state).
    """

    __slots__ = ("frames_captured", "_blob", "_shared")

    def __init__(self, machine):
        _check_quiescent(machine)
        self.frames_captured = machine.phys.touched_frames
        self._serialize(machine)
        if bus.ACTIVE:
            bus.snapshot_capture(self.frames_captured,
                                 len(machine.kernel.processes))

    def _serialize(self, machine) -> None:
        """Pickle the live machine so each restore is one C-speed
        ``loads``.

        The frozen params/costs, the registry entries and one shared
        runtime tombstone become persistent references.
        """
        kernel = machine.kernel
        shared: Dict[tuple, Any] = {
            ("params",): machine.params,
            ("costs",): machine.params.costs,
            ("runtime",): _InertRuntime(),
        }
        for name, entry in kernel._registry.items():
            shared[("registry", name)] = entry
        pids = {id(obj): tag for tag, obj in shared.items()}
        for proc in kernel.processes.values():
            pids[id(proc.runtime)] = ("runtime",)
        buf = io.BytesIO()
        try:
            _SnapPickler(buf, pids).dump(machine)
        except (pickle.PicklingError, TypeError, AttributeError) as exc:
            raise SnapshotError(
                f"cannot snapshot: the machine object graph is not "
                f"picklable ({exc})") from exc
        self._blob = buf.getvalue()
        self._shared = shared

    # -- restore -----------------------------------------------------------

    def restore(self):
        """A fresh machine, architecturally identical to the captured
        one."""
        unpickler = pickle.Unpickler(io.BytesIO(self._blob))
        unpickler.persistent_load = self._shared.__getitem__
        machine = unpickler.load()
        if bus.ACTIVE:
            bus.snapshot_restore(self.frames_captured)
        return machine


def _check_quiescent(machine) -> None:
    if machine.faults is not None:
        raise SnapshotError(
            "cannot snapshot: the machine was built under a fault plan, "
            "whose opportunity counters a restore cannot replay; boot "
            "it fresh under its plan")
    for proc in machine.kernel.processes.values():
        if proc.state.name not in _QUIESCENT_STATES:
            raise SnapshotError(
                f"cannot snapshot: process {proc.pid} ({proc.name}) is "
                f"{proc.state.name} — live runtimes are generators and "
                "cannot be cloned; snapshot at a quiescent point")
    if machine.kernel._sleepers:
        raise SnapshotError("cannot snapshot: sleepers are pending")
    if machine.kernel.scheduler._ready:
        raise SnapshotError("cannot snapshot: the run queue is not empty")
