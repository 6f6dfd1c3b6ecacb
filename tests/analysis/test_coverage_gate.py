"""Coverage gate: the trusted core must be ≥85% line-covered.

``src/repro/core`` is the TCB of the whole reproduction — unexercised
lines there are unverified security protocol.  The CI image has no
third-party coverage tracer, so this gate drives a curated in-process
exercise under :mod:`tests.analysis.coverage` (stdlib ``sys.settrace``
+ AST executable-line accounting) and fails listing the missed lines
of the worst files.

The exercise is deliberately *not* "run the whole test suite": it is
a compact tour — cloaked and native app lifecycles, protected file
I/O, sealed channels, the attack suite, ablation configs, and a fault
run — chosen to touch every protocol path the core implements.
"""

import os

from tests.analysis import coverage

CORE_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                         "src", "repro", "core")
THRESHOLD = 85.0


def _exercise() -> None:
    from repro.attacks import run_suite
    from repro.core.cloak import CloakConfig
    from repro.core.vmm import VMMConfig
    from repro.faults import oracle
    from repro.faults.plan import SITE_MAC_TRUNCATE, FaultArm, FaultPlan

    # Cloaked lifecycles across the protocol surface: anonymous memory
    # under paging pressure, protected file I/O, sealed IPC, fork,
    # threads, and the marshalled path/fd syscall families.
    for name in ("memwalk", "chanpump", "mb-fork", "mb-thread", "mb-stat",
                 "mb-openclose", "mb-readsec4k", "mb-mmap", "mb-signal",
                 "kvstore"):
        oracle.run_once(oracle.ORACLE_SPECS[name], cloaked=True)
    # A native run: the uncloaked paths through the same VMM.
    oracle.run_once(oracle.ORACLE_SPECS["mb-read4k"], cloaked=False)

    # Protected-file round trip on one machine: the cloaked write path
    # (window growth, lazy size sync) then the read-back path (window
    # re-map, persistent MAC verification) of the same identity.
    from repro.bench.runner import fresh_machine, measure_program

    machine = fresh_machine(cloaked=True, programs=("filestreamer",))
    measure_program(machine, "filestreamer",
                    ("write", "/secure/roundtrip.bin", "4096", "16384"))
    measure_program(machine, "filestreamer",
                    ("read", "/secure/roundtrip.bin", "4096", "16384"))

    # Seek-and-verify on a cloaked fd (the emulated lseek/fstat path).
    from repro.apps.secrets import SecretFileWriter

    machine = fresh_machine(cloaked=False, programs=())
    machine.register(SecretFileWriter, cloaked=True)
    measure_program(machine, "secretfilewriter", ("/secure/ledger.dat", "3"))

    # A traced run: with a sink attached the core's guarded probe
    # emissions (``if bus.ACTIVE: ...``) execute too.  The inline
    # program walks the marshalled path-call families (open, stat,
    # rename, readdir, unlink) the microbenches don't reach.
    from repro.apps.program import Program
    from repro.guestos import uapi
    from repro.obs import bus
    from repro.obs.export import TraceRecorder

    class PathWalker(Program):
        name = "pathwalker"

        def main(self, ctx):
            d_vaddr, d_len = yield from ctx.put_string("/workdir")
            yield ctx.mkdir(d_vaddr, d_len)
            f_vaddr, f_len = yield from ctx.put_string("/workdir/f")
            fd = yield ctx.open(f_vaddr, f_len, uapi.O_CREAT | uapi.O_RDWR)
            yield ctx.close(fd)
            yield ctx.stat(f_vaddr, f_len)
            g_vaddr, g_len = yield from ctx.put_string("/workdir/g")
            yield ctx.rename(f_vaddr, f_len, g_vaddr, g_len)
            buf = ctx.scratch(128)
            count = yield ctx.readdir(d_vaddr, d_len, buf, 128)
            yield ctx.load(buf, count)
            yield ctx.unlink(g_vaddr, g_len)
            return 0

    # Heap recycling: a brk shrink hands cloaked pages back to the OS
    # (the PAGE_RECYCLE unmap notification), and the re-grow must
    # demand-fault them back as fresh zero-fills.
    from repro.hw.params import PAGE_SIZE

    class HeapCycler(Program):
        name = "heapcycler"

        def main(self, ctx):
            base = yield ctx.brk(0)
            yield ctx.brk(base + 3 * PAGE_SIZE)
            yield ctx.store(base + 2 * PAGE_SIZE, b"resident secret")
            yield ctx.brk(base)
            yield ctx.brk(base + 3 * PAGE_SIZE)
            got = yield ctx.load(base + 2 * PAGE_SIZE, 15)
            assert got == b"\x00" * 15
            yield ctx.brk(base)
            return 0

    machine = fresh_machine(cloaked=True, programs=("mb-readsec4k",))
    machine.register(PathWalker, cloaked=True)
    machine.register(HeapCycler, cloaked=True)
    recorder = TraceRecorder()
    bus.attach(recorder, machine.cycles)
    try:
        measure_program(machine, "mb-readsec4k", ("2",))
        measure_program(machine, "pathwalker", ())
        measure_program(machine, "heapcycler", ())
    finally:
        bus.detach(recorder)

    # The attack suite: every violation/detection path in the core.
    run_suite()

    # Ablation configs: integrity-only MACs and eager re-encryption.
    for config in (VMMConfig(cloak=CloakConfig(integrity_only=True)),
                   VMMConfig(eager_reencrypt=True)):
        machine = fresh_machine(cloaked=True, vmm_config=config,
                                programs=("mb-write4k",))
        measure_program(machine, "mb-write4k", ("2",))

    # Detected faults: the engine's fail-closed guards (a truncated MAC
    # and a lost TLB shootdown caught on use).
    from repro.faults.plan import SITE_TLB_FLUSH_LOST

    plan = FaultPlan(seed=7, arms=(FaultArm(SITE_MAC_TRUNCATE, every=1),
                                   FaultArm(SITE_TLB_FLUSH_LOST, every=1)))
    oracle.run_once(oracle.ORACLE_SPECS["memwalk"], cloaked=True, plan=plan)

    # The dispatch-layer rejections: monitor entry points refuse
    # malformed or wrongly-privileged calls before touching state.
    from repro.core.errors import HypercallError
    from repro.core.hypercall import Hypercall, HypercallDispatcher
    from repro.core.shim.marshal import MarshalArena

    dispatcher = HypercallDispatcher()
    dispatcher.register(Hypercall.GET_IDENTITY, lambda vmm, domain: domain)
    for bad_call in (
        lambda: dispatcher.register(Hypercall.GET_IDENTITY, lambda d: d),
        lambda: dispatcher.dispatch(None, 1, Hypercall.CHANNEL_SEAL, ()),
        lambda: dispatcher.dispatch(None, 1, Hypercall.CLOAK_INIT, ()),
        lambda: dispatcher.dispatch(None, 0, Hypercall.GET_IDENTITY, ()),
    ):
        try:
            bad_call()
        except (ValueError, HypercallError):
            pass

    arena = MarshalArena(base=0x1000, pages=2)
    assert arena.capacity == arena.size
    arena.alloc(arena.size)          # exactly full
    arena.alloc(16)                  # forces the wrap path
    assert arena.fits(16)
    for nbytes in (-1, arena.size + 16):
        try:
            arena.alloc(nbytes)
        except (ValueError, MemoryError):
            pass


def test_core_line_coverage_gate():
    report = coverage.measure(CORE_ROOT, _exercise)
    total = coverage.total_percent(report)
    if total >= THRESHOLD:
        return
    rows = sorted(coverage.summary(report, relative_to=CORE_ROOT),
                  key=lambda row: row[1])
    worst = "\n".join(
        f"  {path}: {percent:.1f}% missed lines {missed[:20]}"
        for path, percent, missed in rows[:6]
    )
    raise AssertionError(
        f"repro.core line coverage {total:.1f}% < {THRESHOLD}%:\n{worst}"
    )
