"""Copy-on-write machine snapshots: boot once, restore per run.

A snapshot clones a quiescent booted machine the way a hypervisor
forks a VM: guest-physical memory is captured **once** as immutable
per-frame ``bytes`` shared by every restore (COW — see
:class:`repro.hw.phys.PhysicalMemory`), and the small mutable state
(allocator free lists, pagetables/TLB, cloak metadata, ramfs,
scheduler, RNG streams, the cycle ledger) is deep-copied per restore.
A restored machine is therefore *architecturally indistinguishable*
from the machine that was captured — same cycle total, same register
file, same free-list order, same fault-plan substream positions — so
a run started from a restore is cycle- and state-identical to the
same run started from a fresh boot that reached the capture point.
The snapshot equivalence property test proves this for all registered
guest programs, native and cloaked.

What is shared vs. copied:

* **shared** — frozen frame contents (immutable ``bytes``), program
  images and factories, cost tables / machine params (frozen
  dataclasses), the pure memoized derivations in ``repro.core.crypto``
  and the :func:`publish` registry.  The crypto memos cache pure
  functions of immutable keys with immutable values, so a hit or an
  eviction in one restore never changes what another computes.  The
  registry is module-scope because fork inheritance is the only way a
  :class:`SnapshotState` crosses a process boundary, and it holds only
  snapshots that are immutable from the caller's view, so restores
  from one share nothing mutable with each other.
* **copied** — everything reachable from the machine object graph:
  kernel, VMM, MMU/TLB, CPU, allocator, disk, cycle ledger, fault
  plan.  One ``copy.deepcopy`` with a seeded memo guarantees interior
  aliasing (e.g. the TLB entry a translation returned, the metadata
  record two cloak paths share) is *preserved inside* a restore and
  never leaks *across* restores.

Restrictions, by construction:

* **Quiescence.** Only a machine whose every process has exited
  (ZOMBIE/DEAD) can be captured: live runtimes are Python generators,
  which cannot be cloned.  This mirrors the fork limitation
  documented in ``docs/PERFORMANCE.md`` — snapshots capture machine
  state, not guest control flow.
* **Fault plans.** A snapshot captured under a fault plan can only be
  restored under a fault plan (the injector wrappers are part of the
  machine structure), and vice versa.  Restore rebinds every wrapper
  to the *caller's* plan and fast-forwards it over the boot window's
  opportunity stream; if the caller's arms would have fired inside
  that window, the snapshot is declared unusable
  (:class:`SnapshotUnusable`) and the caller falls back to a fresh
  boot — never a silently different fault schedule.

Kill switch: ``REPRO_NO_SNAPSHOT=1`` in the environment, or the
:func:`force_fresh` context manager, makes :func:`snapshots_enabled`
return False; the snapshot-aware hot loops (faults oracle, campaign
driver, benchmarks) consult it and boot fresh machines instead.
"""

import copy
import enum
import io
import os
import pickle
import random
from contextlib import contextmanager
from typing import Any, Dict, FrozenSet, Optional

from repro.hw.phys import BaseFrames, PhysicalMemory
from repro.obs import bus

#: Bump on any change to what a snapshot carries.
SNAPSHOT_SCHEMA = 1

#: Process states a capturable machine may contain (quiescence).
_QUIESCENT_STATES = frozenset({"ZOMBIE", "DEAD"})

_DISABLE_ENV = "REPRO_NO_SNAPSHOT"

#: Session-level kill switch (see :func:`force_fresh`).
_enabled = True


class SnapshotError(RuntimeError):
    """The machine cannot be captured (not quiescent, live runtimes)."""


class SnapshotUnusable(SnapshotError):
    """This snapshot cannot honour the requested restore (plan
    mismatch, or an arm would have fired inside the captured boot
    window).  Callers fall back to a fresh boot."""


def snapshots_enabled() -> bool:
    """False when snapshot reuse is disabled for this session/env."""
    return _enabled and not os.environ.get(_DISABLE_ENV)


@contextmanager
def force_fresh():
    """Context manager: disable snapshot reuse (fresh boots only).

    The determinism guard in ``benchmarks/conftest.py`` replays
    experiments under this to prove both boot modes agree.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


class _InertRuntime:
    """Tombstone replacing the runtime of an exited process.

    Runtimes of live processes are generators and cannot be cloned;
    quiescence guarantees the kernel never resumes an exited task, so
    its runtime only needs to *exist*.  Any attempt to drive it is a
    snapshot-layer bug, reported as such.
    """

    def __deepcopy__(self, memo) -> "_InertRuntime":
        return self

    def next_op(self, result):
        raise SnapshotError("resumed the runtime of an exited process "
                            "after a snapshot restore")

    def deliver_signal(self, sig) -> bool:
        raise SnapshotError("signalled the runtime of an exited process "
                            "after a snapshot restore")


class _SnapPickler(pickle.Pickler):
    """Pickler that externalises the snapshot's shared objects.

    Objects tagged in ``pids`` (the physical memory, frozen params and
    cost tables, runtime tombstones, registry entries — whose runtime
    factories are closures and could not be pickled anyway) are written
    as persistent references; :class:`_SnapUnpickler` swaps in the
    per-restore replacements.  Everything else round-trips through
    pickle's C implementation, which preserves interior aliasing the
    same way a deepcopy memo does at a fraction of the cost.
    """

    def __init__(self, file, pids: Dict[int, tuple],
                 dynamic: Dict[tuple, Any]):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self._pids = pids
        self._dynamic = dynamic

    def persistent_id(self, obj):
        pid = self._pids.get(id(obj))
        if pid is None and isinstance(obj, enum.Enum):
            # Enum members are process-wide singletons; sharing them
            # skips the slow EnumType.__call__ reconstruction that
            # pickle would otherwise run on every restore.
            pid = ("enum", type(obj).__qualname__, obj.name)
            self._dynamic[pid] = obj
        return pid


class _SnapUnpickler(pickle.Unpickler):
    def __init__(self, file, resolve: Dict[tuple, Any],
                 fresh: Dict[str, tuple]):
        super().__init__(file)
        self._resolve = resolve
        self._fresh = fresh

    def persistent_load(self, pid):
        if pid[0] == "list":
            # Bulk flat list (allocator/block free lists, disk blocks):
            # one C-speed copy of an immutable template instead of
            # element-by-element unpickling.  Only non-aliased private
            # attributes are tagged this way (a second reference would
            # get a second copy).
            return list(self._fresh[pid[1]])
        return self._resolve[pid]


class SnapshotState:
    """One captured machine: shared frozen frames + a private image.

    Build with :func:`capture`; clone machines with :meth:`restore`.
    The object is immutable from the caller's point of view — any
    number of machines can be restored from it, concurrently safe in
    the single-thread sense (restores share only immutable state).
    """

    __slots__ = ("schema", "base", "frames_captured", "procs", "planned",
                 "capture_armed", "boot_opportunities", "boot_fires",
                 "_image", "_blob", "_shared", "_fresh")

    def __init__(self, base: BaseFrames, image, procs: int, planned: bool,
                 capture_armed: FrozenSet[str],
                 boot_opportunities: Dict[str, int], boot_fires: int):
        self.schema = SNAPSHOT_SCHEMA
        self.base = base
        self.frames_captured = sum(1 for b in base if b is not None)
        self.procs = procs
        self.planned = planned
        self.capture_armed = capture_armed
        self.boot_opportunities = boot_opportunities
        self.boot_fires = boot_fires
        self._image = image
        self._blob: Optional[bytes] = None
        self._shared: Dict[tuple, Any] = {}
        self._fresh: Dict[str, tuple] = {}
        self._serialize()

    def _serialize(self) -> None:
        """Pre-pickle the image so each restore is one C-speed
        ``loads`` instead of a Python-level deepcopy walk.

        Shared/per-restore objects become persistent references:
        the COW physical memory (fresh :meth:`PhysicalMemory.from_base`
        per restore), the frozen params/costs, the runtime tombstones
        and registry entries (shared), and the fault plan (rebound to
        the caller's plan).  Machines whose object graph cannot be
        pickled fall back to the deepcopy path transparently.
        """
        image = self._image
        shared: Dict[tuple, Any] = {
            ("params",): image.params,
            ("costs",): image.params.costs,
        }
        for name, entry in image.kernel._registry.items():
            shared[("registry", name)] = entry
        for pid, proc in image.kernel.processes.items():
            shared[("runtime", pid)] = proc.runtime
        pids = {id(obj): tag for tag, obj in shared.items()}
        pids[id(image.phys)] = ("phys",)
        if image.faults is not None:
            pids[id(image.faults)] = ("plan",)
        # Large flat lists restore as one C-speed copy of a frozen
        # template (entries are ints or immutable bytes).  These are
        # private, non-aliased attributes — see _SnapUnpickler.
        fresh = {
            "alloc._free": image.alloc._free,
            "cache._free": image.kernel.cache._free,
            "disk._blocks": image.disk._blocks,
        }
        for tag, lst in fresh.items():
            pids[id(lst)] = ("list", tag)
        buf = io.BytesIO()
        dynamic: Dict[tuple, Any] = {}
        try:
            _SnapPickler(buf, pids, dynamic).dump(image)
        # repro: allow(ERR001) — serialization probe, not a guard: any
        # failure (unpicklable test double, exotic machine extension)
        # just leaves _blob unset and restore() takes the deepcopy
        # path, which is behaviourally identical.  Nothing security-
        # relevant executes during pickling.
        except Exception:
            return
        shared.update(dynamic)
        self._blob = buf.getvalue()
        self._shared = shared
        self._fresh = {tag: tuple(lst) for tag, lst in fresh.items()}

    # -- restore -----------------------------------------------------------

    def restore(self, plan=None):
        """A fresh machine, architecturally identical to the captured
        one, with COW physical memory over the shared frozen frames.

        ``plan`` must be given iff the snapshot was captured under a
        fault plan; every injector wrapper in the restored machine is
        rebound to it, and the plan is fast-forwarded over the boot
        window (see module docstring).  Raises
        :class:`SnapshotUnusable` when that cannot be done faithfully.
        """
        image = self._image
        if self.planned != (plan is not None):
            raise SnapshotUnusable(
                "snapshot captured %s a fault plan; restore requested %s one"
                % ("under" if self.planned else "without",
                   "under" if plan is not None else "without"))
        if plan is not None:
            self._check_plan(plan)
        if self._blob is not None:
            resolve = dict(self._shared)
            resolve[("phys",)] = PhysicalMemory.from_base(self.base)
            resolve[("plan",)] = plan
            machine = _SnapUnpickler(io.BytesIO(self._blob),
                                     resolve, self._fresh).load()
        else:
            memo = {
                id(image.phys): PhysicalMemory.from_base(self.base),
                # Frozen-dataclass machine parameters and cost tables
                # are immutable: share them instead of reconstructing.
                id(image.params): image.params,
                id(image.params.costs): image.params.costs,
            }
            if plan is not None:
                memo[id(image.faults)] = plan
            machine = copy.deepcopy(image, memo)
        if plan is not None:
            self._seed_plan(plan)
        if bus.ACTIVE:
            bus.snapshot_restore(self.frames_captured)
        return machine

    # -- fault-plan fast-forward -------------------------------------------

    def _check_plan(self, plan) -> None:
        """Would restoring under ``plan`` replay the boot faithfully?"""
        if self.boot_fires:
            raise SnapshotUnusable(
                f"{self.boot_fires} fault(s) fired before capture; the "
                "payload RNG draws cannot be replayed into a new plan")
        for site, arm in plan._arms.items():
            if site not in self.capture_armed:
                raise SnapshotUnusable(
                    f"site {site!r} was not armed at capture, so its boot "
                    "opportunity count is unknown")
            count = self.boot_opportunities.get(site, 0)
            if count == 0:
                continue
            if arm.nth is not None:
                would_fire = arm.nth < count
            elif arm.every is not None:
                would_fire = count >= arm.every
            else:
                # Replay the decide() draws the boot would have made
                # on this arm's substream, without touching the plan.
                probe = random.Random(f"{plan.seed}:{site}")
                would_fire = any(probe.random() < arm.probability
                                 for _ in range(count))
            if would_fire:
                raise SnapshotUnusable(
                    f"arm {arm.spec()} would have fired within the captured "
                    f"boot window ({count} opportunities)")

    def _seed_plan(self, plan) -> None:
        """Fast-forward ``plan`` over the captured boot window.

        After this, the plan's opportunity counters and probability
        substreams sit exactly where a fresh boot under the same plan
        would have left them (``_check_plan`` proved no arm fires in
        the window, so no payload draws are owed).
        """
        for site, arm in plan._arms.items():
            count = self.boot_opportunities.get(site, 0)
            if count == 0:
                continue
            plan._opportunities[site] = \
                plan._opportunities.get(site, 0) + count
            if arm.probability is not None:
                rng = plan.rng(site)
                for _ in range(count):
                    rng.random()


def capture(machine) -> SnapshotState:
    """Snapshot a quiescent machine (see module docstring).

    The source machine remains usable — its frame contents are frozen
    by value — but the cheap pattern is boot → capture → discard, then
    :meth:`SnapshotState.restore` per run.
    """
    _check_quiescent(machine)
    base = machine.phys.freeze_base()
    plan = machine.faults
    memo: dict = {id(machine.phys): PhysicalMemory.from_base(base)}
    inert = _InertRuntime()
    for proc in machine.kernel.processes.values():
        memo[id(proc.runtime)] = inert
    image = copy.deepcopy(machine, memo)
    snapshot = SnapshotState(
        base=base,
        image=image,
        procs=len(machine.kernel.processes),
        planned=plan is not None,
        capture_armed=(frozenset(plan._arms) if plan is not None
                       else frozenset()),
        boot_opportunities=(dict(plan._opportunities) if plan is not None
                            else {}),
        boot_fires=plan.total_fires() if plan is not None else 0,
    )
    if bus.ACTIVE:
        bus.snapshot_capture(snapshot.frames_captured, snapshot.procs)
    return snapshot


def _check_quiescent(machine) -> None:
    for proc in machine.kernel.processes.values():
        if proc.state.name not in _QUIESCENT_STATES:
            raise SnapshotError(
                f"cannot snapshot: process {proc.pid} ({proc.name}) is "
                f"{proc.state.name} — live runtimes are generators and "
                "cannot be cloned; snapshot at a quiescent point")
    if getattr(machine.kernel, "_sleepers", ()):
        raise SnapshotError("cannot snapshot: sleepers are pending")
    if getattr(machine.kernel.scheduler, "_ready", ()):
        raise SnapshotError("cannot snapshot: the run queue is not empty")


# ---------------------------------------------------------------------------
# cross-process publication (fork inheritance)
# ---------------------------------------------------------------------------

#: Snapshots published for fork-context workers, by caller-chosen key.
_published: Dict[str, SnapshotState] = {}


def publish(key: str, snapshot: SnapshotState) -> None:
    """Make ``snapshot`` available to forked worker processes.

    A :class:`SnapshotState` cannot cross a pickling process boundary
    (the kernel registry's runtime factories are closures), but it
    *can* ride POSIX fork inheritance: a parent that captures and
    publishes before forking hands every ``multiprocessing`` "fork"
    worker a copy-on-write view of this registry for free.  The
    cluster harness (:mod:`repro.serve.cluster`) publishes one boot
    snapshot per (app, cloaked) pair, forks its shard workers, and
    each worker restores from the inherited snapshot — one boot,
    N machines, zero serialization.

    Re-publishing a key replaces the previous snapshot (parents reuse
    keys across runs).
    """
    _published[key] = snapshot


def published(key: str) -> Optional[SnapshotState]:
    """The snapshot published under ``key``, if any (parent or
    fork-inherited)."""
    return _published.get(key)


def clear_published() -> None:
    """Drop every published snapshot (test teardown / memory hygiene)."""
    _published.clear()

