"""The differential-conformance oracle over the full program suite."""

import pytest

from repro.apps.registry import ALL_PROGRAMS
from repro.faults import oracle
from repro.faults.plan import SITE_SWAPIN_CORRUPT, FaultPlan
from repro.hw import snapshot as snapshot_mod
from repro.machine import BootConfig, Machine

ALL_NAMES = sorted(cls.name for cls in ALL_PROGRAMS)


def test_every_registered_program_has_a_spec():
    assert set(ALL_NAMES) <= set(oracle.ORACLE_SPECS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_conformance(name):
    """Native vs cloaked equivalence + same-seed byte-identity + no
    violations or marker exposure in the fault-free cloaked run."""
    result = oracle.check_app(name)
    assert result.ok, f"{name}: {result.detail}"


def test_faulty_runs_replay_byte_identically():
    """The determinism claim extends to *faulty* runs: the same plan
    spec reproduces the identical degraded execution."""
    spec = oracle.ORACLE_SPECS["memwalk"]

    def one():
        plan = FaultPlan.once(SITE_SWAPIN_CORRUPT, seed=7, nth=0)
        return oracle.run_once(spec, cloaked=True, plan=plan)

    first, second = one(), one()
    assert first.identical(second)
    assert first.violations  # the fault was detected, both times


class TestMarkerExposure:
    """The exposure scan finds a marker wherever the kernel (or a disk
    thief) could see it, and nowhere else."""

    MARKER = b"EXPOSURE-SCAN-MARKER"
    CONFIG = BootConfig(cloaked=True, programs=())

    def test_clean_restored_machine_is_not_exposed(self):
        assert not oracle._marker_visible(Machine.boot(self.CONFIG),
                                          self.MARKER)

    def test_marker_in_a_private_frame_is_visible(self):
        machine = Machine.boot(self.CONFIG)
        machine.phys.write(machine.phys.total_frames - 1, 7, self.MARKER)
        assert oracle._marker_visible(machine, self.MARKER)

    def test_marker_in_an_unmaterialised_base_frame_is_visible(self):
        with snapshot_mod.force_fresh():
            source = Machine.boot(self.CONFIG)
        pfn = source.phys.total_frames // 2
        source.phys.write(pfn, 0, self.MARKER)
        restored = Machine.from_snapshot(source.snapshot())
        assert pfn not in restored.phys._frames
        assert oracle._marker_visible(restored, self.MARKER)
        # Seeing it did not pull the frame into the restored machine.
        assert pfn not in restored.phys._frames
        assert restored.phys.cow_faults == 0

    def test_marker_in_a_raw_disk_block_is_visible(self):
        machine = Machine.boot(self.CONFIG)
        block = self.MARKER.ljust(machine.disk.block_size, b"\x00")
        machine.disk.write_block(machine.disk.num_blocks - 1, block)
        assert oracle._marker_visible(machine, self.MARKER)


class TestClassify:
    def _record(self, **kwargs):
        base = dict(name="x", cloaked=True, exit_code=0, console=b"ok",
                    files=(), violations=(), cycles=100, fires=0,
                    exposed=False)
        base.update(kwargs)
        return oracle.RunRecord(**base)

    def test_recovered(self):
        clean = self._record()
        assert oracle.classify(clean, self._record(fires=3)) == \
            oracle.OUTCOME_RECOVERED

    def test_detected(self):
        clean = self._record()
        faulty = self._record(exit_code=139, console=b"",
                              violations=("IntegrityViolation",))
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_DETECTED

    def test_matching_state_with_violation_is_still_detected(self):
        """A violation absorbed off the app's path (e.g. a failed
        background reclaim) classifies as DETECTED, not RECOVERED."""
        clean = self._record()
        faulty = self._record(violations=("IntegrityViolation",))
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_DETECTED

    def test_exposed_trumps_everything(self):
        clean = self._record()
        faulty = self._record(violations=("IntegrityViolation",),
                              exposed=True)
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_EXPOSED

    def test_silent_divergence_is_corrupted(self):
        clean = self._record()
        faulty = self._record(console=b"wrong")
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_CORRUPTED
