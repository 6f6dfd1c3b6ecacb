"""The differential-conformance oracle over the full program suite."""

import time

import pytest

from repro.apps.program import Program
from repro.apps.registry import ALL_PROGRAMS
from repro.faults import oracle
from repro.faults.plan import SITE_SWAPIN_CORRUPT, FaultPlan
from repro.guestos import uapi
from repro.machine import BootConfig, Machine

ALL_NAMES = sorted(cls.name for cls in ALL_PROGRAMS)


def test_every_registered_program_has_a_spec():
    assert set(ALL_NAMES) <= set(oracle.ORACLE_SPECS)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_conformance(name):
    """Native exit 0, no marker exposure or violations in the fault-free
    cloaked run, native vs cloaked equivalence, same-seed byte-identity."""
    kind, detail = oracle.judge(oracle.ORACLE_SPECS[name], determinism=True)
    assert kind is None, f"{name}: [{kind}] {detail}"


def _record(**kwargs):
    base = dict(name="x", cloaked=True, exit_code=0, console=b"ok",
                files=(), violations=(), cycles=100, fires=0,
                exposed=False)
    base.update(kwargs)
    return oracle.RunRecord(**base)


OK = _record()
SLOW = _record(cycles=101)
EXPOSED = _record(exposed=True)
VIOLATED = _record(violations=("IntegrityViolation",))
DIVERGED = _record(console=b"ko")
#: A deadlocked run: exit -1, the console so far, no typed violation.
DEADLOCKED = _record(exit_code=-1, console=b"o")

#: (id, records in run order: native, cloaked[, native, cloaked],
#: determinism, expected kind, expected detail)
JUDGE_TABLE = [
    ("healthy", [OK, OK], False, None, ""),
    ("healthy-rerun", [OK, OK, OK, OK], True, None, ""),
    ("genfail", [_record(exit_code=97, console=b"GENFAIL"), OK], False,
     "genfail", "native exit 97: GENFAIL"),
    ("exposure", [OK, EXPOSED], False,
     "exposure", "marker kernel-visible after cloaked run"),
    ("violation", [OK, VIOLATED], False,
     "violation", "fault-free violations: ('IntegrityViolation',)"),
    ("divergence", [OK, DIVERGED], False,
     "divergence", "console b'ok' != b'ko'"),
    ("divergence-files", [OK, _record(files=(("/f", b"a"),))], False,
     "divergence", "file contents differ"),
    ("nondeterministic-native", [OK, OK, SLOW, OK], True,
     "nondeterministic", "same-seed re-run diverged"),
    ("nondeterministic-cloaked", [OK, OK, OK, SLOW], True,
     "nondeterministic", "same-seed re-run diverged"),
    # Precedence: the first failing rung wins, and a failing pair is
    # never re-run.
    ("genfail-over-exposure", [DEADLOCKED, EXPOSED, OK, OK], True,
     "genfail", "native exit -1: o"),
    ("exposure-over-violation-and-divergence",
     [OK, _record(exposed=True, console=b"ko",
                  violations=("IntegrityViolation",))], False,
     "exposure", "marker kernel-visible after cloaked run"),
    ("violation-over-divergence",
     [OK, _record(exit_code=139, violations=("IntegrityViolation",))],
     False, "violation", "fault-free violations: ('IntegrityViolation',)"),
    ("divergence-skips-rerun", [OK, DIVERGED, OK, OK], True,
     "divergence", "console b'ok' != b'ko'"),
    ("deadlocked-cloaked", [OK, DEADLOCKED], False,
     "divergence", "exit 0 != -1"),
]


@pytest.mark.parametrize("records, determinism, kind, detail",
                         [row[1:] for row in JUDGE_TABLE],
                         ids=[row[0] for row in JUDGE_TABLE])
def test_judge_ladder(records, determinism, kind, detail):
    """The judge on synthetic runs: one rung per row, precedence, and
    re-runs only for a passing pair."""
    spec = oracle.AppSpec("x")
    calls = []

    def run(app, cloaked, tweak=None):
        assert app is spec
        assert cloaked == (len(calls) % 2 == 1)
        calls.append(cloaked)
        return records[len(calls) - 1]

    assert oracle.judge(spec, determinism, run=run) == (kind, detail)
    reran = determinism and kind in (None, "nondeterministic")
    assert len(calls) == (4 if reran else 2)


class _Spinner(Program):
    """Prints, then yields the CPU forever if ``/spin`` exists."""

    name = "spinner"

    def main(self, ctx):
        yield from ctx.print("spin\n")
        fd = yield from ctx.open_path("/spin", uapi.O_RDONLY)
        while fd >= 0:
            yield ctx.sched_yield()
        return 0


def _make_spin_file(machine):
    machine.kernel.vfs.create_file("/spin")


class TestLivelock:
    """A run that never quiesces ends in a record, not an exception."""

    SPEC = oracle.AppSpec("spinner", max_ops=20_000, program=_Spinner)

    def test_spinning_run_records_exit_minus_one(self):
        spec = oracle.AppSpec("spinner", max_ops=20_000, program=_Spinner,
                              setup=_make_spin_file)
        started = time.monotonic()
        record = oracle.run_once(spec, cloaked=True)
        assert time.monotonic() - started < 1.0
        assert (record.exit_code, record.console) == (-1, b"spin\n")
        assert record.violations == ()

    def test_spinning_native_half_is_genfail(self):
        spec = oracle.AppSpec("spinner", max_ops=20_000, program=_Spinner,
                              setup=_make_spin_file)
        assert oracle.judge(spec) == ("genfail", "native exit -1: spin\n")

    def test_spinning_cloaked_half_is_divergence(self):
        assert oracle.judge(self.SPEC) == (None, "")
        assert oracle.judge(self.SPEC, cloak_tweak=_make_spin_file) == (
            "divergence", "exit 0 != -1")


class TestSpecBudget:
    """Every hand-written spec ends in a verdict within seconds, and its
    op budget is at least 50 times what any of its runs executes."""

    HEADROOM = 50
    SPECS = {**oracle.ORACLE_SPECS,
             **{f"{name}-matrix": spec
                for name, spec in oracle._MATRIX_SPECS.items()}}

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_every_run_stays_well_within_its_budget(self, monkeypatch, name):
        spec = self.SPECS[name]
        executed = []
        real_run = Machine.run

        def run(machine, *args, **kwargs):
            executed.append(real_run(machine, *args, **kwargs))
            return executed[-1]

        monkeypatch.setattr(Machine, "run", run)
        for cloaked in (False, True):
            assert oracle.run_once(spec, cloaked=cloaked).exit_code == 0
        assert len(executed) == 2
        assert max(executed) * self.HEADROOM <= spec.max_ops, executed

    def test_every_hand_written_spec_has_the_default_budget(self):
        for spec in self.SPECS.values():
            assert spec.max_ops == oracle.SPEC_MAX_OPS

    def test_spinning_spec_with_the_default_budget_is_a_verdict(self):
        spec = oracle.AppSpec("spinner", program=_Spinner,
                              setup=_make_spin_file)
        started = time.monotonic()
        assert oracle.judge(spec) == ("genfail", "native exit -1: spin\n")
        assert time.monotonic() - started < 10.0


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
        restored = Machine.from_snapshot(Machine.boot(self.CONFIG).snapshot())
        assert not oracle._marker_visible(restored, self.MARKER)

    def test_marker_in_a_private_frame_is_visible(self):
        machine = Machine.boot(self.CONFIG)
        machine.phys.write(machine.phys.total_frames - 1, 7, self.MARKER)
        assert oracle._marker_visible(machine, self.MARKER)

    def test_marker_in_a_captured_frame_is_visible_after_restore(self):
        source = Machine.boot(self.CONFIG)
        pfn = source.phys.total_frames // 2
        source.phys.write(pfn, 0, self.MARKER)
        snap = source.snapshot()
        source.phys.zero_frame(pfn)
        assert not oracle._marker_visible(source, self.MARKER)
        restored = Machine.from_snapshot(snap)
        assert oracle._marker_visible(restored, self.MARKER)

    def test_marker_in_a_raw_disk_block_is_visible(self):
        machine = Machine.boot(self.CONFIG)
        block = self.MARKER.ljust(machine.disk.block_size, b"\x00")
        machine.disk.write_block(machine.disk.num_blocks - 1, block)
        assert oracle._marker_visible(machine, self.MARKER)


class TestClassify:
    def test_recovered(self):
        clean = _record()
        assert oracle.classify(clean, _record(fires=3)) == \
            oracle.OUTCOME_RECOVERED

    def test_detected(self):
        clean = _record()
        faulty = _record(exit_code=139, console=b"",
                         violations=("IntegrityViolation",))
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_DETECTED

    def test_matching_state_with_violation_is_still_detected(self):
        """A violation absorbed off the app's path (e.g. a failed
        background reclaim) classifies as DETECTED, not RECOVERED."""
        clean = _record()
        faulty = _record(violations=("IntegrityViolation",))
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_DETECTED

    def test_exposed_trumps_everything(self):
        clean = _record()
        faulty = _record(violations=("IntegrityViolation",),
                         exposed=True)
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_EXPOSED

    def test_silent_divergence_is_corrupted(self):
        clean = _record()
        faulty = _record(console=b"wrong")
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_CORRUPTED

    def test_deadlock_after_a_violation_is_detected(self):
        clean = _record()
        faulty = _record(exit_code=-1, console=b"o",
                         violations=("IntegrityViolation",))
        assert oracle.classify(clean, faulty) == oracle.OUTCOME_DETECTED

    def test_deadlock_without_a_violation_is_corrupted(self):
        assert oracle.classify(_record(), DEADLOCKED) == \
            oracle.OUTCOME_CORRUPTED
