"""The COW snapshot layer: phys semantics, capture/restore.

Two groups of guarantees:

* **COW physical memory** — restored machines share the snapshot's
  immutable frame bytes until first write; zeroing an unmaterialised
  frame is an O(1) base-entry drop; no restore can perturb another.
* **capture/restore discipline** — only quiescent machines capture;
  fault plans must match across capture and restore, and a plan whose
  arms would have fired inside the captured boot window is rejected
  rather than silently rescheduled; the pickle fast path and the
  deepcopy fallback produce behaviourally identical machines.

The full restored-vs-fresh equivalence property (every registered
program, native and cloaked) lives in
``tests/faults/test_snapshot_equivalence.py``.
"""

import copy

import pytest

from repro.bench.runner import fresh_machine, measure_program
from repro.faults.plan import (FaultPlan, SITE_DISK_WRITE_LOST,
                               SITE_IV_REUSE)
from repro.hw import snapshot as snapshot_mod
from repro.hw.params import PAGE_SIZE
from repro.hw.phys import FrameAllocator, PhysicalMemory
from repro.machine import Machine
from repro.obs import bus
from repro.obs.metrics import MetricsRegistry


PATTERN = (bytes(range(256)) * (PAGE_SIZE // 256))[:PAGE_SIZE]


def _cow_memory():
    base = [None, PATTERN, None, PATTERN]
    return base, PhysicalMemory.from_base(base)


# -- COW physical memory -------------------------------------------------


class TestPhysCow:
    def test_reads_are_served_from_the_base_without_materialising(self):
        base, mem = _cow_memory()
        assert mem.read(1, 0, 16) == PATTERN[:16]
        # read_frame of a shared frame hands back the base bytes object
        # itself — zero copies, zero materialisation.
        assert mem.read_frame(1) is base[1]
        assert mem.cow_faults == 0
        assert mem._frames[1] is None

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
        base = [PATTERN, PATTERN]
        a = PhysicalMemory.from_base(base)
        b = PhysicalMemory.from_base(base)
        a.write(0, 0, b"A" * PAGE_SIZE)
        assert b.read_frame(0) == PATTERN
        b.zero_frame(0)
        assert a.read_frame(0) == b"A" * PAGE_SIZE

    def test_zero_frame_on_unmaterialised_frame_is_an_o1_drop(self):
        base, mem = _cow_memory()
        mem.zero_frame(1)
        # No 4 KiB allocation happened: the frame stays unmaterialised
        # and no COW fault was charged — the base *entry* was dropped.
        assert mem._frames[1] is None
        assert mem.cow_faults == 0
        assert mem.read_frame(1) == bytes(PAGE_SIZE)
        # Only this instance's view changed; the shared list the
        # snapshot owns still carries the frozen contents.
        assert base[1] == PATTERN

    def test_frame_view_of_a_shared_frame_is_readonly_and_exact(self):
        __, mem = _cow_memory()
        view = mem.frame_view(1)
        assert view.readonly
        assert bytes(view) == PATTERN
        assert mem._frames[1] is None      # still not materialised

    def test_freeze_base_composes_and_shares_untouched_frames(self):
        base, mem = _cow_memory()
        mem.write(2, 0, b"dirty")
        frozen = mem.freeze_base()
        # The untouched frame is carried as the *same* bytes object —
        # snapshot-of-restored-machine costs only the dirty pages.
        assert frozen[1] is base[1]
        assert frozen[2][:5] == b"dirty"
        assert frozen[0] is None


class TestAllocatorCow:
    def test_free_never_touches_frame_contents(self):
        """Regression: freeing a COW-shared frame must not zero it —
        the allocator moves pfns, the memory layer owns contents."""
        base = [PATTERN, PATTERN]
        mem = PhysicalMemory.from_base(base)
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

    def test_deepcopy_preserves_free_list_order(self):
        alloc = FrameAllocator(8, reserved_low=2)
        order = [alloc.alloc() for __ in range(3)]
        for pfn in order:
            alloc.free(pfn)
        clone = copy.deepcopy(alloc)
        assert clone._free == alloc._free
        assert clone._allocated == alloc._allocated
        assert [clone.alloc() for __ in range(4)] \
            == [alloc.alloc() for __ in range(4)]


# -- capture / restore ---------------------------------------------------


def _booted(cloaked=True):
    with snapshot_mod.force_fresh():
        return fresh_machine(cloaked=cloaked)


class TestCaptureRestore:
    def test_two_restores_run_byte_identically_and_independently(self):
        snap = _booted().snapshot()
        a = Machine.from_snapshot(snap)
        b = Machine.from_snapshot(snap)
        ra = measure_program(a, "mb-readsec4k", ("2",))
        # Running machine `a` must not disturb `b`'s restore.
        rb = measure_program(b, "mb-readsec4k", ("2",))
        assert ra.console == rb.console
        assert ra.cycles_total == rb.cycles_total
        assert a.cycles.total == b.cycles.total

    def test_restore_matches_a_fresh_boot_exactly(self):
        machine = _booted()
        snap = machine.snapshot()
        restored = measure_program(Machine.from_snapshot(snap),
                                   "mb-readsec4k", ("2",))
        fresh = measure_program(machine, "mb-readsec4k", ("2",))
        assert restored.console == fresh.console
        assert restored.cycles_total == fresh.cycles_total

    def test_live_process_rejects_capture(self):
        machine = _booted(cloaked=False)
        machine.spawn("mb-readsec4k", ("1",))
        with pytest.raises(snapshot_mod.SnapshotError,
                           match="live runtimes"):
            machine.snapshot()

    def test_resuming_an_inert_runtime_is_a_loud_error(self):
        machine = _booted(cloaked=False)
        measure_program(machine, "mb-getpid", ())
        restored = Machine.from_snapshot(machine.snapshot())
        zombies = [p for p in restored.kernel.processes.values()]
        assert zombies, "expected the exited process to be carried over"
        with pytest.raises(snapshot_mod.SnapshotError, match="exited"):
            zombies[0].runtime.next_op(None)

    def test_pickle_fast_path_and_deepcopy_fallback_agree(self):
        machine = _booted()
        snap = machine.snapshot()
        assert snap._blob is not None, "pickle fast path did not engage"
        fast = measure_program(Machine.from_snapshot(snap),
                               "mb-readsec4k", ("2",))
        snap._blob = None          # force the deepcopy fallback
        slow = measure_program(Machine.from_snapshot(snap),
                               "mb-readsec4k", ("2",))
        assert fast.console == slow.console
        assert fast.cycles_total == slow.cycles_total

    def test_unpicklable_extension_falls_back_transparently(self):
        machine = _booted(cloaked=False)
        machine._test_hook = lambda: None     # local: defeats pickle
        snap = machine.snapshot()
        assert snap._blob is None
        restored = Machine.from_snapshot(snap)
        result = measure_program(restored, "mb-getpid", ())
        assert result.exit_code == 0

    def test_force_fresh_disables_and_restores_snapshot_reuse(self):
        assert snapshot_mod.snapshots_enabled()
        with snapshot_mod.force_fresh():
            assert not snapshot_mod.snapshots_enabled()
        assert snapshot_mod.snapshots_enabled()


class TestFaultPlanDiscipline:
    def test_unplanned_restore_of_planned_snapshot_is_unusable(self):
        snap = Machine(fault_plan=FaultPlan.audit(0)).snapshot()
        with pytest.raises(snapshot_mod.SnapshotUnusable):
            snap.restore(None)

    def test_planned_restore_of_unplanned_snapshot_is_unusable(self):
        snap = Machine().snapshot()
        with pytest.raises(snapshot_mod.SnapshotUnusable):
            snap.restore(FaultPlan.audit(0))

    def test_planned_restore_rebinds_to_the_callers_plan(self):
        snap = Machine(fault_plan=FaultPlan.audit(0)).snapshot()
        plan = FaultPlan.audit(1)
        restored = snap.restore(plan)
        assert restored.faults is plan

    def test_site_unarmed_at_capture_is_unusable(self):
        snap = Machine(
            fault_plan=FaultPlan.once(SITE_DISK_WRITE_LOST, nth=999),
        ).snapshot()
        with pytest.raises(snapshot_mod.SnapshotUnusable,
                           match="not armed at capture"):
            snap.restore(FaultPlan.once(SITE_IV_REUSE, nth=999))

    def test_arm_firing_inside_the_boot_window_is_unusable(self):
        snap = Machine(fault_plan=FaultPlan.audit(0)).snapshot()
        # White-box: pretend the captured boot saw three opportunities
        # at this site (a bare boot sees none — real boots with disk
        # setup do; the oracle's goldens hit this path).
        snap.boot_opportunities[SITE_DISK_WRITE_LOST] = 3
        with pytest.raises(snapshot_mod.SnapshotUnusable,
                           match="would have fired"):
            snap.restore(FaultPlan.once(SITE_DISK_WRITE_LOST, nth=1))

    def test_restore_fast_forwards_the_plan_over_the_boot_window(self):
        snap = Machine(fault_plan=FaultPlan.audit(0)).snapshot()
        snap.boot_opportunities[SITE_DISK_WRITE_LOST] = 3
        plan = FaultPlan.once(SITE_DISK_WRITE_LOST, nth=7)
        snap.restore(plan)
        # The plan's counter sits where a fresh boot would have left
        # it: nth counts from the true start of the run, not from the
        # restore point.
        assert plan.opportunities(SITE_DISK_WRITE_LOST) == 3

    def test_boot_window_fires_make_the_snapshot_unusable(self):
        snap = Machine(fault_plan=FaultPlan.audit(0)).snapshot()
        snap.boot_fires = 1
        with pytest.raises(snapshot_mod.SnapshotUnusable,
                           match="fired before capture"):
            snap.restore(FaultPlan.once(SITE_DISK_WRITE_LOST, nth=999))


# -- observability -------------------------------------------------------


class TestSnapshotProbes:
    def test_capture_restore_and_cow_faults_are_probed(self):
        machine = _booted()
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
            pfn = next(i for i, contents in enumerate(snap.base)
                       if contents is not None)
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
        snap = _booted().snapshot()
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

