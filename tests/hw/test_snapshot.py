"""Machine snapshots by value: capture/restore and raw inspection.

Two groups of guarantees:

* **capture/restore discipline** — only quiescent, picklable machines
  built without a fault plan capture; restores run byte-identically
  and independently of each other and of the captured machine.
* **raw inspection** — ``frames_containing``/``blocks_containing``
  agree with a brute-force read of every frame and block, on fresh and
  restored memory, and leave no trace on the machine.

The full restored-vs-fresh equivalence property (every registered
program, native and cloaked) lives in
``tests/faults/test_snapshot_equivalence.py``.
"""

import gc
import pickle
import random
import types
from collections import deque

import pytest

from repro.bench.runner import fresh_machine, measure_program
from repro.faults.injector import FaultyDisk
from repro.faults.plan import INJECTION_POINTS, FaultPlan
from repro.hw import snapshot as snapshot_mod
from repro.hw.params import PAGE_SIZE
from repro.hw.phys import PhysicalMemory
from repro.machine import BootConfig, Machine
from repro.obs import bus
from repro.obs.export import TraceRecorder
from repro.obs.metrics import MetricsRegistry


class TestRawScan:
    """``frames_containing``/``blocks_containing`` ≡ brute force."""

    ALPHABET = b"\x00abc"
    PLANTED = b"ONLY-IN-THE-SNAPSHOT"

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
            frames = {pfn: bytes(frame) for pfn, frame in mem._frames.items()}
            found = mem.frames_containing(needle)
            # Nothing materialised or changed.
            assert {pfn: bytes(frame)
                    for pfn, frame in mem._frames.items()} == frames
            assert found == self._brute_frames(mem, needle), needle

    @pytest.mark.parametrize("seed", range(12))
    def test_fresh_and_restored_memories_match_brute_force(self, seed):
        rng = random.Random(seed)
        fresh = PhysicalMemory(24)
        self._random_ops(rng, fresh, 30)
        # Plant a needle no later op can reach: after the restore it
        # lives only in the frame the pickle carried.
        fresh.write(23, 100, self.PLANTED)
        self._assert_scans_match(rng, fresh)

        restored = pickle.loads(pickle.dumps(fresh))
        self._random_ops(rng, restored, 30)
        restored.write(23, 100, self.PLANTED)
        assert restored.frames_containing(self.PLANTED) == [23]
        self._assert_scans_match(rng, restored)
        # The restore is a copy: the source saw none of its writes.
        assert fresh.frames_containing(self.PLANTED) == [23]
        assert all(fresh.frame_view(pfn) == fresh._frames[pfn]
                   for pfn in fresh._frames)

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
            # Restore mid-workload, then mix captured frames, one of
            # them rewritten, with one first touched now.
            machine = Machine.from_snapshot(machine.snapshot())
            phys = machine.phys
            rewritten, captured = sorted(phys._frames)[:2]
            phys.write(rewritten, 0, b"rewritten")
            phys.write(phys.total_frames - 1, 0, b"late")
            needles.append(phys.read_frame(captured)[-16:])
        disk = machine.disk
        assert isinstance(disk, FaultyDisk) == (plan is not None)
        written = next(iter(disk._blocks.values()))
        frame = next(iter(machine.phys._frames.values()))
        needles += [written[:12], bytes(frame[:16])]

        def trace():
            return (machine.cycles.total, disk.reads, disk.writes,
                    dict(machine.phys._frames),
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
    def test_restores_are_isolated_by_value(self):
        source = fresh_machine(cloaked=True)
        measure_program(source, "mb-write4k", ("2",))
        pfn = min(source.phys._frames)
        captured = source.phys.read_frame(pfn)
        snap = source.snapshot()
        assert snap.frames_captured == source.phys.touched_frames > 0
        a = Machine.from_snapshot(snap)
        a.phys.write(pfn, 0, b"A" * 64)
        source.phys.write(pfn, 0, b"S" * 64)
        b = Machine.from_snapshot(snap)
        # A write to one restore reaches neither the other restore nor
        # the source; a write to the source after capture reaches no
        # later restore.
        assert b.phys.read_frame(pfn) == captured
        assert source.phys.read(pfn, 0, 64) == b"S" * 64
        assert a.phys.read(pfn, 0, 64) == b"A" * 64
        assert a.phys.frame_view(pfn).readonly
        assert a.phys.frame_view(pfn) == a.phys.read_frame(pfn)

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
    def test_capture_and_restore_are_probed_with_the_frame_count(self):
        machine = fresh_machine(cloaked=True)
        # A boot-only machine has no materialised frames (everything
        # is lazy); run a program first so the snapshot carries pages.
        measure_program(machine, "mb-readsec4k", ("2",))
        recorder = TraceRecorder()
        bus.attach(recorder, machine.cycles)
        try:
            snap = machine.snapshot()
            Machine.from_snapshot(snap)
        finally:
            bus.detach(recorder)
        frames = machine.phys.touched_frames
        assert frames > 0 and snap.frames_captured == frames
        procs = len(machine.kernel.processes)
        assert [(name, args) for name, __, args in recorder.events] == [
            ("snapshot.capture", (frames, procs)),
            ("snapshot.restore", (frames,))]

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

