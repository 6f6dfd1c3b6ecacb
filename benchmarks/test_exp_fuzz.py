"""R-T6: the differential fuzzing campaign."""

from repro.apps.microbench import MICRO_SUITE
from repro.bench import exp_fuzz
from repro.bench.runner import fresh_machine, measure_program
from tests.integration.test_ledger_golden import golden_mb_suite_cycles


def test_exp_fuzz(once):
    report = once(exp_fuzz.run)

    # The headline: a generated population the size of the hand-written
    # suite finds no transparency, hygiene, or determinism failure.
    assert exp_fuzz.zero_divergences(report), [
        (s.slot, s.status, s.detail, s.replay) for s in report.failures()
    ]

    # Coverage claims printed in the table must actually hold.
    assert report.syscalls_missing() == []
    assert len(report.fault_sites) >= 12, report.fault_sites_missing()

    # Every armed rotation slot stayed contained.
    for slot in report.slots:
        if slot.fault_site is not None:
            assert slot.fault_outcome in ("RECOVERED", "DETECTED"), \
                (slot.fault_site, slot.fault_outcome, slot.replay)


def test_campaign_leaves_bench_cycles_untouched():
    """A campaign must not leak state into the cycle-accounted world:
    the mb-suite total pinned in the ledger golden has to come out
    identical when measured right after a fuzz run."""
    exp_fuzz.run(verbose=False, count=8)
    machine = fresh_machine(cloaked=True)
    cycles = sum(measure_program(machine, cls.name, ()).cycles_total
                 for cls in MICRO_SUITE)
    assert cycles == golden_mb_suite_cycles()
