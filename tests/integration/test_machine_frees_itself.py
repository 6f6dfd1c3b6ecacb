"""A dropped machine is freed by reference counting alone.

The machine object graph has no reference cycles: the MMU points at
its translation authority weakly, hypercall handlers are plain VMM
functions called with the VMM, the page reclaimer holds the kernel's
tables rather than the kernel, and a recorded violation drops the
traceback whose frames hold the machine.  So the moment the last
reference to a machine goes, CPython frees it, touched frames and all,
instead of leaving it for a rare full collection of the cyclic GC.

Each case below drops the kind of machine some workload drops by the
hundred, then runs one collection under ``gc.DEBUG_SAVEALL`` (which
keeps everything the cyclic collector would have freed in
``gc.garbage``) and requires that none of it belongs to the machine
layers.  Collections that run automatically inside a case are saved
the same way.
"""

import gc
from collections import Counter

import pytest

from repro.apps.registry import make_secure_dirs, register_all
from repro.faults import oracle
from repro.faults.plan import SITE_MAC_TRUNCATE, FaultArm, FaultPlan
from repro.machine import BootConfig, Machine
from repro.serve.cluster import ClusterConfig, run_cluster
from repro.serve.loadgen import LoadSpec

#: Packages whose objects make up a machine.
MACHINE_PACKAGES = ("repro.machine", "repro.hw", "repro.core",
                    "repro.guestos", "repro.faults")

FILE_ARGS = ("/secure/data.bin", "4096", "16384")


def _programs(cloaked):
    machine = Machine.boot(BootConfig(cloaked=cloaked,
                                      programs=("mb-getpid", "mb-write4k")))
    for name in ("mb-getpid", "mb-write4k"):
        assert machine.run_program(name, ("2",)).exit_code == 0


def _forkstress():
    machine = Machine.boot(BootConfig(cloaked=True, programs=("forkstress",)))
    assert machine.run_program("forkstress", ("2", "2000")).exit_code == 0


def _protected_file_io():
    machine = Machine.boot(BootConfig(cloaked=True,
                                      programs=("filestreamer",),
                                      setup=(make_secure_dirs,)))
    for mode in ("write", "read"):
        assert machine.run_program("filestreamer",
                                   (mode,) + FILE_ARGS).exit_code == 0


def _armed_fault_plan():
    plan = FaultPlan(seed=7, arms=(FaultArm(SITE_MAC_TRUNCATE, every=1),))
    oracle.run_once(oracle.ORACLE_SPECS["memwalk"], cloaked=True, plan=plan)
    assert plan.total_fires() > 0


def _inline_serve_shard():
    spec = LoadSpec(app="kvstore", requests=12, mean_gap=8000, keys=8,
                    put_pct=50, seed=3)
    report = run_cluster(ClusterConfig(spec=spec, shards=1, cloaked=True,
                                       inline=True))
    assert report["per_shard"]


def _snapshot_restore():
    machine = Machine.build()
    register_all(machine, cloaked=True, only=("mb-getpid",))
    snapshot = machine.snapshot()
    del machine
    restored = Machine.from_snapshot(snapshot)
    assert restored.run_program("mb-getpid", ("2",)).exit_code == 0


CASES = {
    "native-program": lambda: _programs(cloaked=False),
    "cloaked-program": lambda: _programs(cloaked=True),
    "forkstress": _forkstress,
    "protected-file-io": _protected_file_io,
    "armed-fault-plan": _armed_fault_plan,
    "inline-serve-shard": _inline_serve_shard,
    "snapshot-restore": _snapshot_restore,
}


def _cyclic_machine_garbage(case):
    """Run ``case`` and return a count, by type, of the machine-layer
    objects the cyclic collector found unreachable afterwards."""
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        case()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith(MACHINE_PACKAGES))
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


@pytest.mark.parametrize("name", sorted(CASES))
def test_dropped_machine_leaves_no_cyclic_garbage(name):
    assert _cyclic_machine_garbage(CASES[name]) == Counter()
