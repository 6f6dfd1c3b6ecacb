"""Snapshot equivalence property: restore ≡ the captured machine, for
every registered guest program, native and cloaked.

The snapshot API (:meth:`Machine.snapshot`,
:meth:`Machine.from_snapshot`) rests on one claim: a run started from
a restore is **byte-identical** — architectural state, violations,
fault fires, and the virtual-cycle total — to the same run started on
the machine that was captured.  This file is the proof obligation:
:func:`repro.faults.oracle.run_once` executes each oracle spec on a
booted machine and on a restore of it, and compares the full
:class:`~repro.faults.oracle.RunRecord`.

A second group proves the mid-workload case — capture *after* a
program has run (the snapshot then actually carries dirty pages and
zombie processes) and show a restored machine continues exactly like
the machine it was captured from.
"""

import pytest

from repro.bench.runner import fresh_machine, measure_program
from repro.faults import oracle
from repro.faults.oracle import ORACLE_SPECS, run_once
from repro.machine import Machine

ALL_SPECS = sorted(ORACLE_SPECS)


@pytest.mark.parametrize("cloaked", [False, True], ids=["native", "cloaked"])
@pytest.mark.parametrize("name", ALL_SPECS)
def test_restored_run_is_byte_identical_to_fresh_boot(name, cloaked,
                                                      monkeypatch):
    spec = ORACLE_SPECS[name]
    fresh = run_once(spec, cloaked)
    booted_machine = oracle._booted_machine

    def restored_machine(*args):
        return Machine.from_snapshot(booted_machine(*args).snapshot())

    monkeypatch.setattr(oracle, "_booted_machine", restored_machine)
    restored = run_once(spec, cloaked)
    assert restored.identical(fresh), (
        f"{name} cloaked={cloaked}: restored run diverged from fresh "
        f"boot\n  restored: {restored!r}\n  fresh:    {fresh!r}")


def test_spec_set_covers_every_registered_program():
    """The parametrisation above is only a proof if it covers the
    registry; pin the count so a new program must join the oracle."""
    assert len(ORACLE_SPECS) == 41


class TestMidWorkloadSnapshot:
    """Capture after real work: dirty frames, zombies, grown ramfs."""

    @pytest.mark.parametrize("cloaked", [False, True],
                             ids=["native", "cloaked"])
    def test_restored_continuation_matches_the_source_machine(self, cloaked):
        source = fresh_machine(cloaked=cloaked)
        baseline = fresh_machine(cloaked=cloaked)
        first = measure_program(source, "mb-readsec4k", ("2",))
        measure_program(baseline, "mb-readsec4k", ("2",))

        snap = source.snapshot()
        assert snap.frames_captured > 0, \
            "mid-workload snapshot should carry dirty pages"
        restored = Machine.from_snapshot(snap)

        # The restored machine continues exactly like the un-snapshotted
        # machine that did the same first run.
        cont_restored = measure_program(restored, "mb-write4k", ("2",))
        cont_baseline = measure_program(baseline, "mb-write4k", ("2",))
        assert cont_restored.console == cont_baseline.console
        assert cont_restored.cycles_total == cont_baseline.cycles_total
        assert restored.cycles.total == baseline.cycles.total
        # And the source machine is unperturbed by having been captured.
        cont_source = measure_program(source, "mb-write4k", ("2",))
        assert cont_source.cycles_total == cont_baseline.cycles_total
        assert first.exit_code == 0
