"""Per-program ledger golden for the micro-hot programs, and the
``cycle_hash`` pin.

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

``cycle_hash`` digests four virtual-cycle totals: the three replayed
groups (the syscall microbenchmark suite, protected file I/O and
forkstress) and a subset of the differential-conformance oracle.  A
host-side change must leave every one of them, and so the hash,
bit-identical.  The totals below are data in the same sense as the
golden.
"""

import hashlib
import json
import os

import pytest

from repro.apps.microbench import MICRO_SUITE
from repro.apps.registry import make_secure_dirs, register_all
from repro.machine import Machine

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "ledger_golden.json")

FILE_ARGS = ("/secure/data.bin", "4096", str(256 * 1024))

#: Virtual cycles per workload, unchanged since the hash was first taken.
PINNED_TOTALS = {
    "faults-oracle": 4165003,
    "fileio-protected": 2485708,
    "forkstress": 541909,
    "mb-suite": 3934158,
}
CYCLE_HASH = "bbb09d0b420c90b80f4f1fb482fc0bb21512e8fdb67af3bbfdce5deaf647b7cc"

#: Programs the oracle subset runs, native and cloaked from one spec.
ORACLE_PROGRAMS = ("shaloop", "filestreamer", "forkstress")


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


def cycles(records):
    return sum(sum(r["cycles_breakdown"].values()) for r in records)


def golden_mb_suite_cycles():
    """The mb-suite total, read from the committed records."""
    with open(GOLDEN_PATH) as fh:
        return cycles(json.load(fh)[:len(MICRO_SUITE)])


def faults_oracle_cycles():
    """Native plus cloaked cycles of the oracle subset; the console
    output of the two runs must agree, as the full oracle requires."""
    from repro.faults.oracle import ORACLE_SPECS, run_once

    total = 0
    for name in ORACLE_PROGRAMS:
        native = run_once(ORACLE_SPECS[name], cloaked=False)
        cloaked = run_once(ORACLE_SPECS[name], cloaked=True)
        assert native.console == cloaked.console, name
        total += native.cycles + cloaked.cycles
    return total


@pytest.fixture(scope="module")
def fresh():
    return replay()


def test_every_micro_hot_program_matches_its_ledger_record(fresh):
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    assert [r["program"] for r in fresh] == [r["program"] for r in golden]
    for got, want in zip(fresh, golden):
        assert got == want, want["program"]


def test_cycle_totals_match_the_cycle_hash_pin(fresh):
    suite = len(MICRO_SUITE)
    totals = {
        "mb-suite": cycles(fresh[:suite]),
        "fileio-protected": cycles(fresh[suite:suite + 2]),
        "forkstress": cycles(fresh[suite + 2:]),
        "faults-oracle": faults_oracle_cycles(),
    }
    assert totals == PINNED_TOTALS
    canonical = json.dumps(totals, sort_keys=True).encode()
    assert hashlib.sha256(canonical).hexdigest() == CYCLE_HASH
