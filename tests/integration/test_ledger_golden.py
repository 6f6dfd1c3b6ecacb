"""Per-program ledger golden for the micro-hot programs.

``cycle_hash`` and the benchmark pins see only per-workload totals, so
a change that moves a charge from one category to another, or drops a
counter bump, keeps them green.  This test replays every program the
micro-hot benchmark runs, exactly as that benchmark runs them (cloaked,
restored from a snapshot, suite order, one machine per group), and
requires each program's cycle breakdown by category, its
``StatCounters`` delta and its TLB hit/miss counts to equal the
committed record in ``ledger_golden.json``.

The record was written once, by running :func:`replay` against commit
``eea843a``, before the access-path rewrite it guards.  It is data, not
output: never regenerate it from the code under test.
"""

import json
import os

from repro.apps.microbench import MICRO_SUITE
from repro.apps.registry import make_secure_dirs, register_all
from repro.machine import Machine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "ledger_golden.json")

FILE_ARGS = ("/secure/data.bin", "4096", str(256 * 1024))


def _capture(only):
    machine = Machine.build()
    make_secure_dirs(machine)
    register_all(machine, cloaked=True, only=only)
    return machine.snapshot()


def _record(machine, name, argv):
    tlb = machine.tlb
    hits, misses = tlb.hits, tlb.misses
    result = machine.run_program(name, argv)
    return {
        "program": " ".join((name,) + argv),
        "exit_code": result.exit_code,
        "cycles_breakdown": dict(sorted(result.cycles_breakdown.items())),
        "stats": dict(sorted(result.stats.items())),
        "tlb_hits": tlb.hits - hits,
        "tlb_misses": tlb.misses - misses,
    }


def replay():
    """One record per micro-hot program run, in benchmark order."""
    records = []
    machine = Machine.from_snapshot(_capture(None))
    records += [_record(machine, program.name, ()) for program in MICRO_SUITE]
    machine = Machine.from_snapshot(_capture(("filestreamer",)))
    records += [_record(machine, "filestreamer", (mode,) + FILE_ARGS)
                for mode in ("write", "read")]
    machine = Machine.from_snapshot(_capture(("forkstress",)))
    records.append(_record(machine, "forkstress", ("4", "20000")))
    return records


def test_every_micro_hot_program_matches_its_ledger_record():
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    fresh = replay()
    assert [r["program"] for r in fresh] == [r["program"] for r in golden]
    for got, want in zip(fresh, golden):
        assert got == want, want["program"]
