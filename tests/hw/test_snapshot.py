"""The COW snapshot layer: phys semantics, capture/restore.

Three groups of guarantees:

* **COW physical memory** — restored machines share the snapshot's
  immutable frame bytes until first write; zeroing an unmaterialised
  frame is an O(1) base-entry drop; no restore can perturb another.
* **capture/restore discipline** — only quiescent, picklable machines
  built without a fault plan capture; restores run byte-identically
  and independently of each other.
* **raw inspection** — ``frames_containing``/``blocks_containing``
  agree with a brute-force read of every frame and block, across all
  three memory layers, and leave no trace on the machine.

The full restored-vs-fresh equivalence property (every registered
program, native and cloaked) lives in
``tests/faults/test_snapshot_equivalence.py``.
"""

import gc
import random
import types
from collections import deque

import pytest

from repro.bench.runner import fresh_machine, measure_program
from repro.faults.injector import FaultyDisk
from repro.faults.plan import INJECTION_POINTS, FaultPlan
from repro.hw import snapshot as snapshot_mod
from repro.hw.params import PAGE_SIZE
from repro.hw.phys import FrameAllocator, PhysicalMemory
from repro.machine import BootConfig, Machine
from repro.obs import bus
from repro.obs.metrics import MetricsRegistry


PATTERN = (bytes(range(256)) * (PAGE_SIZE // 256))[:PAGE_SIZE]


def _cow_memory():
    base = {1: PATTERN, 3: PATTERN}
    return base, PhysicalMemory.from_base(base, 4)


# -- COW physical memory -------------------------------------------------


class TestPhysCow:
    def test_reads_are_served_from_the_base_without_materialising(self):
        base, mem = _cow_memory()
        assert mem.read(1, 0, 16) == PATTERN[:16]
        # read_frame of a shared frame hands back the base bytes object
        # itself — zero copies, zero materialisation.
        assert mem.read_frame(1) is base[1]
        assert mem.cow_faults == 0
        assert 1 not in mem._frames

    def test_first_write_is_a_counted_cow_fault(self):
        base, mem = _cow_memory()
        mem.write(1, 4, b"!!!!")
        assert mem.cow_faults == 1
        merged = PATTERN[:4] + b"!!!!" + PATTERN[8:]
        assert mem.read_frame(1) == merged
        # The shared base is immutable: the snapshot still holds the
        # original contents for every other restore.
        assert base[1] == PATTERN
        mem.write(1, 0, b"x")          # second write: already private
        assert mem.cow_faults == 1

    def test_restores_from_one_base_are_isolated(self):
        base = {0: PATTERN, 1: PATTERN}
        a = PhysicalMemory.from_base(base, 2)
        b = PhysicalMemory.from_base(base, 2)
        a.write(0, 0, b"A" * PAGE_SIZE)
        assert b.read_frame(0) == PATTERN
        b.zero_frame(0)
        assert a.read_frame(0) == b"A" * PAGE_SIZE

    def test_zero_frame_on_unmaterialised_frame_is_an_o1_drop(self):
        base, mem = _cow_memory()
        mem.zero_frame(1)
        # No 4 KiB allocation happened: the frame stays unmaterialised
        # and no COW fault was charged — the base *entry* was dropped.
        assert 1 not in mem._frames
        assert mem.cow_faults == 0
        assert mem.read_frame(1) == bytes(PAGE_SIZE)
        # Only this instance's view changed; the shared mapping the
        # snapshot owns still carries the frozen contents.
        assert base[1] == PATTERN

    def test_frame_view_of_a_shared_frame_is_readonly_and_exact(self):
        __, mem = _cow_memory()
        view = mem.frame_view(1)
        assert view.readonly
        assert bytes(view) == PATTERN
        assert 1 not in mem._frames        # still not materialised

    def test_freeze_base_composes_and_shares_untouched_frames(self):
        base, mem = _cow_memory()
        mem.write(2, 0, b"dirty")
        frozen = mem.freeze_base()
        # The untouched frame is carried as the *same* bytes object —
        # snapshot-of-restored-machine costs only the dirty pages.
        assert frozen[1] is base[1]
        assert frozen[2][:5] == b"dirty"
        assert 0 not in frozen             # never touched: not captured


class TestAllocatorCow:
    def test_free_never_touches_frame_contents(self):
        """Regression: freeing a COW-shared frame must not zero it —
        the allocator moves pfns, the memory layer owns contents."""
        base = {0: PATTERN, 1: PATTERN}
        mem = PhysicalMemory.from_base(base, 2)
        alloc = FrameAllocator(2)
        pfn = alloc.alloc()
        alloc.free(pfn)
        assert mem.read_frame(pfn) == PATTERN
        assert mem.cow_faults == 0
        # The next owner zeroes before use — locally, in O(1).
        mem.zero_frame(pfn)
        assert mem.read_frame(pfn) == bytes(PAGE_SIZE)
        assert base[pfn] == PATTERN

    def test_double_free_still_raises(self):
        alloc = FrameAllocator(2)
        pfn = alloc.alloc()
        alloc.free(pfn)
        with pytest.raises(ValueError):
            alloc.free(pfn)


class TestRawScan:
    """``frames_containing``/``blocks_containing`` ≡ brute force."""

    ALPHABET = b"\x00abc"
    PLANTED = b"ONLY-IN-THE-BASE"

    @staticmethod
    def _brute_frames(mem, needle):
        return [pfn for pfn in range(mem.total_frames)
                if needle in mem.read_frame(pfn)]

    def _random_ops(self, rng, mem, count):
        for __ in range(count):
            pfn = rng.randrange(mem.total_frames)
            op = rng.random()
            if op < 0.6:
                offset = rng.randrange(PAGE_SIZE - 8)
                data = bytes(rng.choice(self.ALPHABET) for __ in range(8))
                mem.write(pfn, offset, data)
            elif op < 0.8:
                mem.zero_frame(pfn)
            else:
                mem.write_frame(pfn, bytes([rng.choice(self.ALPHABET)])
                                * PAGE_SIZE)

    def _assert_scans_match(self, rng, mem):
        needles = [b"\x00", b"\x00" * 8, b"", self.PLANTED, b"absent!",
                   bytes(rng.choice(self.ALPHABET) for __ in range(2))]
        for needle in needles:
            frames = dict(mem._frames)
            faults = mem.cow_faults
            found = mem.frames_containing(needle)
            assert mem._frames == frames      # nothing materialised
            assert mem.cow_faults == faults
            assert found == self._brute_frames(mem, needle), needle

    @pytest.mark.parametrize("seed", range(12))
    def test_fresh_and_restored_memories_match_brute_force(self, seed):
        rng = random.Random(seed)
        fresh = PhysicalMemory(24)
        self._random_ops(rng, fresh, 30)
        # Plant a needle no later op can reach: after the restore it
        # lives only in an unmaterialised base frame.
        fresh.write(23, 100, self.PLANTED)
        self._assert_scans_match(rng, fresh)

        restored = PhysicalMemory.from_base(fresh.freeze_base(), 24)
        for __ in range(30):
            pfn = rng.randrange(23)
            if rng.random() < 0.3:
                restored.zero_frame(pfn)       # materialised or base-only
            else:
                restored.write(pfn, rng.randrange(PAGE_SIZE - 4),
                               bytes(rng.choice(self.ALPHABET)
                                     for __ in range(4)))
        assert restored.cow_faults > 0
        assert 23 not in restored._frames
        assert restored.frames_containing(self.PLANTED) == [23]
        self._assert_scans_match(rng, restored)

    @pytest.mark.parametrize("restored", [False, True],
                             ids=["fresh", "restored"])
    def test_machine_scan_matches_and_leaves_no_trace(self, restored):
        # A fresh machine scans through the fault injector; snapshots
        # capture only unplanned machines.
        plan = None if restored else FaultPlan.audit(3)
        machine = Machine.boot(BootConfig(cloaked=True), plan)
        measure_program(machine, "mb-write4k", ("2",))
        needles = [b"\x00" * 4, b"never-anywhere"]
        if restored:
            # Restore mid-workload, then mix the layers: base-only
            # frames, a COW-faulted one and one first touched now.
            machine = Machine.from_snapshot(machine.snapshot())
            phys = machine.phys
            faulted, shared = sorted(phys._base)[:2]
            phys.write(faulted, 0, b"cow")
            phys.write(phys.total_frames - 1, 0, b"late")
            assert phys.cow_faults == 1
            needles.append(phys._base[shared][-16:])
        disk = machine.disk
        assert isinstance(disk, FaultyDisk) == (plan is not None)
        written = next(iter(disk._blocks.values()))
        frame = next(iter(machine.phys._frames.values()))
        needles += [written[:12], bytes(frame[:16])]

        def trace():
            return (machine.cycles.total, disk.reads, disk.writes,
                    machine.phys.cow_faults, dict(machine.phys._frames),
                    plan and {site: plan.opportunities(site)
                              for site in INJECTION_POINTS})

        before = trace()
        metrics = MetricsRegistry()
        bus.attach(metrics, machine.cycles)
        try:
            frames = [machine.phys.frames_containing(n) for n in needles]
            blocks = [disk.blocks_containing(n) for n in needles]
        finally:
            bus.detach(metrics)
        assert not metrics.counters
        assert trace() == before
        for needle, found_frames, found_blocks in zip(needles, frames,
                                                      blocks):
            assert found_frames == self._brute_frames(machine.phys, needle)
            assert found_blocks == [
                lba for lba in range(disk.num_blocks)
                if lba in disk._blocks and needle in disk._blocks[lba]]
        assert frames[-1] and blocks[-2]


# -- capture / restore ---------------------------------------------------


class TestCaptureRestore:
    def test_two_restores_run_byte_identically_and_independently(self):
        snap = fresh_machine(cloaked=True).snapshot()
        a = Machine.from_snapshot(snap)
        b = Machine.from_snapshot(snap)
        ra = measure_program(a, "mb-readsec4k", ("2",))
        # Running machine `a` must not disturb `b`'s restore.
        rb = measure_program(b, "mb-readsec4k", ("2",))
        assert ra.console == rb.console
        assert ra.cycles_total == rb.cycles_total
        assert a.cycles.total == b.cycles.total

    def test_restore_matches_a_fresh_boot_exactly(self):
        machine = fresh_machine(cloaked=True)
        snap = machine.snapshot()
        restored = measure_program(Machine.from_snapshot(snap),
                                   "mb-readsec4k", ("2",))
        fresh = measure_program(machine, "mb-readsec4k", ("2",))
        assert restored.console == fresh.console
        assert restored.cycles_total == fresh.cycles_total

    def test_restored_mmu_answers_to_the_restored_vmm(self):
        """The MMU's weak authority edge is rebuilt to the copy, so a
        restore outlives the machine it was captured from."""
        machine = fresh_machine(cloaked=True)
        snap = machine.snapshot()
        del machine
        gc.collect()
        restored = Machine.from_snapshot(snap)
        assert restored.mmu._authority() is restored.vmm
        assert measure_program(restored, "mb-readsec4k", ("2",)).console

    def test_live_process_rejects_capture(self):
        machine = fresh_machine()
        machine.spawn("mb-readsec4k", ("1",))
        with pytest.raises(snapshot_mod.SnapshotError,
                           match="live runtimes"):
            machine.snapshot()

    def test_resuming_an_inert_runtime_is_a_loud_error(self):
        machine = fresh_machine()
        measure_program(machine, "mb-getpid", ())
        restored = Machine.from_snapshot(machine.snapshot())
        zombies = [p for p in restored.kernel.processes.values()]
        assert zombies, "expected the exited process to be carried over"
        with pytest.raises(snapshot_mod.SnapshotError, match="exited"):
            zombies[0].runtime.next_op(None)

    def test_unpicklable_machine_fails_loudly_at_capture(self):
        machine = fresh_machine()
        machine._test_hook = lambda: None     # local: defeats pickle
        with pytest.raises(snapshot_mod.SnapshotError,
                           match="not picklable"):
            machine.snapshot()

    def test_planned_machine_rejects_capture(self):
        machine = Machine.boot(BootConfig(cloaked=True), FaultPlan.audit(0))
        with pytest.raises(snapshot_mod.SnapshotError, match="fault plan"):
            machine.snapshot()


#: Objects the machine graph refers to without owning: following them
#: would reach the whole interpreter.
_NOT_OWNED = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType, types.CodeType)


def _owned_containers(root):
    """Every list, dict, set, tuple and deque reachable from ``root``."""
    seen = {id(root)}
    stack = [root]
    found = []
    while stack:
        obj = stack.pop()
        if isinstance(obj, (list, dict, set, tuple, deque)):
            found.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, _NOT_OWNED):
                seen.add(id(ref))
                stack.append(ref)
    return found


class TestSparseState:
    def test_a_restored_machine_holds_nothing_memory_sized(self):
        """Regression: frames, free stacks and disk blocks hold only what
        was touched, so a restore (and every collector pass over the
        restored machine) costs O(touched state), not O(memory)."""
        machine = Machine.from_snapshot(fresh_machine(cloaked=True).snapshot())
        measure_program(machine, "mb-write4k", ("2",))
        restored = Machine.from_snapshot(machine.snapshot())
        params = restored.params
        limit = min(params.total_frames, params.disk_blocks)
        sizes = sorted(len(c) for c in _owned_containers(restored))
        assert len(sizes) > 100            # the walk did reach the graph
        assert sizes[-1] < limit


# -- observability -------------------------------------------------------


class TestSnapshotProbes:
    def test_capture_restore_and_cow_faults_are_probed(self):
        machine = fresh_machine(cloaked=True)
        # A boot-only machine has no materialised frames (everything
        # is lazy); run a program first so the snapshot carries pages.
        measure_program(machine, "mb-readsec4k", ("2",))
        metrics = MetricsRegistry()
        bus.attach(metrics, machine.cycles)
        try:
            snap = machine.snapshot()
            restored = Machine.from_snapshot(snap)
            # Dirty a boot-written frame: the first write to a frame
            # the snapshot carries is the COW fault being probed.
            pfn = min(snap.base)
            restored.phys.write(pfn, 0, b"\x00")
        finally:
            bus.detach(metrics)
        assert metrics.counters["snapshot.capture"] == 1
        assert metrics.counters["snapshot.restore"] == 1
        assert metrics.cow_faults == 1
        assert metrics.cow_faults == restored.phys.cow_faults

    def test_attached_sink_leaves_restored_run_cycles_identical(self):
        """Satellite of the sink-neutrality rule: probing the snapshot
        lifecycle must not move a single virtual cycle."""
        snap = fresh_machine(cloaked=True).snapshot()
        bare_machine = Machine.from_snapshot(snap)
        bare = measure_program(bare_machine, "mb-readsec4k", ("2",))
        metrics = MetricsRegistry()
        bus.attach(metrics, bare_machine.cycles)
        try:
            traced = measure_program(Machine.from_snapshot(snap),
                                     "mb-readsec4k", ("2",))
        finally:
            bus.detach(metrics)
        assert traced.cycles_total == bare.cycles_total
        assert metrics.counters["snapshot.restore"] == 1

