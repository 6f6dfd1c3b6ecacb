"""Differential-conformance oracle for the fault-injection subsystem.

Two jobs, both built on the same :func:`run_once` harness:

**The judge** (:func:`judge`): a program runs natively and cloaked
from the same seed, and the pair gets one verdict, the first of these
rungs that fails:

* ``genfail`` — the native run did not exit 0 (the program, not the
  cloaking engine, is at fault);
* ``exposure`` (*hygiene*) — the secret marker is kernel-visible
  (physical frames or disk blocks) after the cloaked run;
* ``violation`` (*hygiene*) — the fault-free cloaked run recorded a
  typed violation;
* ``divergence`` (*transparency*) — native and cloaked disagree on
  architectural state: exit status, console bytes, and the logical
  contents of every file the program produced (protected files are
  reconstructed by verify+decrypt from the persistent metadata store);
* ``nondeterministic`` (*determinism*, optional) — a same-seed re-run
  of the passing pair is not byte-identical, down to the cycle counter.

:func:`run_conformance` judges every program in
:data:`repro.apps.registry.ALL_PROGRAMS`, determinism rung on; the fuzz
campaign, its shrinker and ``python -m repro fuzz --replay`` judge
generated programs.

**Fault-recovery matrix** (:func:`run_fault_matrix`): for every
registered injection point, a cloaked workload runs under an armed
:class:`~repro.faults.plan.FaultPlan` and the outcome is classified:

* ``RECOVERED`` — architectural state identical to the fault-free run,
  no violations raised (the stack absorbed the fault);
* ``DETECTED``  — the run degraded, but every divergence is announced
  by a typed :class:`~repro.core.errors.OvershadowError`;
* ``EXPOSED``   — the secret marker became kernel-visible (must never
  happen: this is the privacy guarantee);
* ``CORRUPTED`` — silent divergence without a violation (must never
  happen: this is the integrity guarantee).

The invariant the subsystem exists to demonstrate: every matrix row is
``RECOVERED`` or ``DETECTED``.  Availability is sacrificial —
Overshadow promises privacy and integrity, never progress.  A run that
deadlocks (every process blocked for good) or never quiesces (its
``max_ops`` budget runs out) still ends in a record: exit -1 and the
console so far, like a violation that escaped every process.
"""

import hashlib
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps.compute import COMPUTE_SUITE
from repro.apps.microbench import MICRO_SUITE, EmptyLoop
from repro.apps.registry import (ALL_PROGRAMS, GEN_EXEC_TARGETS,
                                 make_secure_dirs)
from repro.apps.secrets import SECRET
from repro.core.errors import OvershadowError
from repro.core.metadata import FILE_BINDING_FLAG
from repro.faults.plan import (
    INJECTION_POINTS,
    SITE_DISK_READ_BITFLIP,
    SITE_DISK_READ_ERROR,
    SITE_DISK_WRITE_BITFLIP,
    SITE_DISK_WRITE_LOST,
    SITE_DISK_WRITE_TORN,
    SITE_EVICT_UNDER_USE,
    SITE_HYPERCALL_DUPLICATE,
    SITE_HYPERCALL_RETRY,
    SITE_IV_REUSE,
    SITE_MAC_TRUNCATE,
    SITE_SHADOW_STALE,
    SITE_SWAPIN_CORRUPT,
    SITE_TLB_FLUSH_LOST,
    SITE_WRITEBACK_LOST,
    FaultArm,
    FaultPlan,
)
from repro.hw.params import MachineParams, PAGE_SIZE
from repro.machine import (BootConfig, Machine, MachineDeadlock,
                           MachineLivelock, ViolationRecord)

OUTCOME_RECOVERED = "RECOVERED"
OUTCOME_DETECTED = "DETECTED"
OUTCOME_EXPOSED = "EXPOSED"
OUTCOME_CORRUPTED = "CORRUPTED"

#: Outcomes that satisfy the containment invariant.
CONTAINED_OUTCOMES = (OUTCOME_RECOVERED, OUTCOME_DETECTED)

WEB_DOC = "/www/index.bin"


def pressure_params() -> MachineParams:
    """Short timeslices + eager reclaim: swap traffic on small apps."""
    return MachineParams(reclaim_interval_cycles=50_000,
                         reclaim_batch_pages=8,
                         timeslice_cycles=40_000)


def _churn_params() -> MachineParams:
    """Very aggressive reclaim: hot pages are stolen while dirty, so
    the same page is re-encrypted many times (IV-reuse opportunities)."""
    return MachineParams(reclaim_interval_cycles=2_000,
                         reclaim_batch_pages=16,
                         timeslice_cycles=5_000)


def _seed_data_file(machine: Machine) -> None:
    inode = machine.kernel.vfs.create_file("/data.bin")
    payload = (hashlib.sha256(b"oracle-data").digest() * 1024)[: 32 * 1024]
    machine.kernel.fs.write(inode, 0, payload)


def _web_setup(machine: Machine) -> None:
    vfs = machine.kernel.vfs
    inode = vfs.create_file(WEB_DOC)
    payload = (hashlib.sha256(b"document").digest() * 256)[: 8 * 1024]
    machine.kernel.fs.write(inode, 0, payload)
    vfs.mkfifo("/srv/req")
    vfs.mkfifo("/srv/rsp0")


def _spawn_webclient(machine: Machine) -> None:
    machine.spawn("webclient", ("0", "4", WEB_DOC))


def _spawn_webserver(machine: Machine) -> None:
    machine.spawn("webserver", ("4",))


#: The op budget of a hand-written spec (``Machine.run``'s ``max_ops``).
#: Over the conformance sweep with its determinism rung, the fault
#: matrix and the key-canary and cost-conservation tests, no run of a
#: hand-written spec executes more than 1 041 ops (``histogram``), so
#: this leaves 96x headroom, and a spinning program reaches its
#: verdict in about a second.
SPEC_MAX_OPS = 100_000


class AppSpec:
    """How the oracle drives one registered program."""

    __slots__ = ("name", "argv", "files", "setup", "peers", "params",
                 "marker", "max_ops", "program")

    def __init__(self, name: str, argv: Tuple[str, ...] = (),
                 files: Tuple[str, ...] = (),
                 setup: Optional[Callable[[Machine], None]] = None,
                 peers: Optional[Callable[[Machine], None]] = None,
                 params: Optional[Callable[[], MachineParams]] = None,
                 marker: Optional[bytes] = None,
                 max_ops: int = SPEC_MAX_OPS,
                 program: Optional[type] = None):
        self.name = name
        self.argv = argv
        #: Paths whose final logical contents are part of the
        #: architectural state compared across runs.
        self.files = files
        self.setup = setup
        self.peers = peers
        self.params = params
        #: A plaintext byte string that must never be kernel-visible
        #: after a cloaked run.
        self.marker = marker
        self.max_ops = max_ops
        #: A Program class registered directly (generated programs,
        #: which live outside ALL_PROGRAMS).  ``name`` must match its
        #: ``name`` attribute.  Only ``mb-empty`` (the exec target) is
        #: co-registered, not the full registry.
        self.program = program


def _build_specs() -> Dict[str, AppSpec]:
    specs: Dict[str, AppSpec] = {}
    for program in COMPUTE_SUITE:
        specs[program.name] = AppSpec(program.name)
    for program in (EmptyLoop,) + MICRO_SUITE:
        specs[program.name] = AppSpec(program.name, ("2",))
    specs["filestreamer"] = AppSpec(
        "filestreamer", ("write", "/secure/stream.bin", "4096", "16384"),
        files=("/secure/stream.bin",))
    specs["seqwrite"] = AppSpec("seqwrite", files=("/data.bin",))
    specs["seqread"] = AppSpec("seqread", setup=_seed_data_file)
    specs["rwmix"] = AppSpec("rwmix", files=("/mix.bin",))
    specs["forkstress"] = AppSpec("forkstress", ("2", "3000"))
    specs["compilefarm"] = AppSpec("compilefarm", ("2",))
    specs["webserver"] = AppSpec("webserver", ("4",), setup=_web_setup,
                                 peers=_spawn_webclient)
    specs["webclient"] = AppSpec("webclient", ("0", "4", WEB_DOC),
                                 setup=_web_setup, peers=_spawn_webserver)
    specs["secretholder"] = AppSpec("secretholder", ("4",), marker=SECRET)
    specs["secretwriter"] = AppSpec("secretwriter", ("4",),
                                    marker=SECRET[:32])
    specs["memwalk"] = AppSpec("memwalk", ("24", "10", "400"),
                               params=pressure_params, marker=b"P0000")
    specs["chanpump"] = AppSpec("chanpump", ("/secure/pump", "256", "1024"))
    specs["kvstore"] = AppSpec("kvstore")
    return specs


#: One spec per registered program; checked complete against the
#: registry at import time so a new app cannot silently skip the oracle.
ORACLE_SPECS: Dict[str, AppSpec] = _build_specs()

_missing = {cls.name for cls in ALL_PROGRAMS} - set(ORACLE_SPECS)
if _missing:
    raise RuntimeError(
        f"programs registered but missing an oracle spec: {sorted(_missing)}"
    )


class RunRecord:
    """Architectural state captured from one completed run."""

    __slots__ = ("name", "cloaked", "exit_code", "console", "files",
                 "violations", "cycles", "fires", "exposed")

    def __init__(self, name, cloaked, exit_code, console, files, violations,
                 cycles, fires, exposed):
        self.name = name
        self.cloaked = cloaked
        self.exit_code = exit_code
        self.console = console
        self.files = files
        self.violations = violations
        self.cycles = cycles
        self.fires = fires
        self.exposed = exposed

    def state(self) -> Tuple:
        """The architectural state compared across configurations."""
        return (self.exit_code, self.console, self.files)

    def identical(self, other: "RunRecord") -> bool:
        """Full byte-identity, used for same-seed determinism."""
        return (self.state() == other.state()
                and self.cycles == other.cycles
                and self.violations == other.violations
                and self.fires == other.fires)

    def __repr__(self) -> str:
        return (f"RunRecord({self.name}, cloaked={self.cloaked}, "
                f"exit={self.exit_code}, violations={self.violations})")


def _lineage_id(identity: bytes) -> int:
    digest = hashlib.sha256(b"principal" + identity).digest()
    return int.from_bytes(digest[:8], "little")


def _logical_file_bytes(machine: Machine, path: str, prog_name: str,
                        cloaked: bool) -> Optional[bytes]:
    """The file's contents as its owner would read them back.

    For a protected file written by a cloaked program the kernel holds
    ciphertext; the oracle reconstructs the plaintext exactly as a
    future process of the same identity would — verify each page
    against the persistent (version, IV, MAC) record, then decrypt —
    so transparency can be asserted byte-for-byte against the native
    run.  Verification failure raises, which the caller records.
    """
    vfs = machine.kernel.vfs
    if not vfs.exists(path):
        return None
    inode = vfs.resolve(path)
    size = inode.size
    if not (cloaked and path.startswith("/secure")):
        return machine.kernel.fs.read(inode, 0, size)

    identity = machine.vmm.identity_of(prog_name)
    if identity is None:
        return machine.kernel.fs.read(inode, 0, size)
    lineage = _lineage_id(identity)
    cipher = machine.vmm.cloak.cipher_for(lineage)
    out = bytearray()
    npages = (size + PAGE_SIZE - 1) // PAGE_SIZE
    for page_index in range(npages):
        # Full frames, not fs.read: ciphertext occupies whole pages
        # even when the logical size does not.
        pfn = machine.kernel.fs.page_frame(inode, page_index)
        contents = machine.phys.read_frame(pfn)
        saved = machine.vmm.file_metadata.load(lineage, inode.inode_id,
                                               page_index)
        if saved is None:
            out += contents
            continue
        version, iv, mac = saved
        binding = FILE_BINDING_FLAG | (inode.inode_id << 32) | page_index
        if not cipher.verify_page(binding, version, iv, mac, contents):
            raise OvershadowError(
                f"protected file page failed verification: "
                f"{path} page {page_index}"
            )
        out += cipher.decrypt_page(iv, contents)
    return bytes(out[:size])


def _marker_visible(machine: Machine, marker: bytes) -> bool:
    """Scan everything the guest kernel (or a disk thief) can see.

    Every physical frame and every written raw block, below the
    device model (no fault injection, no cycle charges).
    """
    return (bool(machine.phys.frames_containing(marker))
            or bool(machine.disk.blocks_containing(marker)))


def _booted_machine(spec: AppSpec, cloaked: bool, plan: Optional[FaultPlan],
                    tweak: Optional[Callable[[Machine], None]]) -> Machine:
    """A machine at the post-setup boot point (see :meth:`Machine.boot`).

    ``tweak`` runs after the boot, so an attached sink never sees
    boot-time probe traffic.
    """
    setup = (make_secure_dirs,)
    if spec.setup is not None:
        setup += (spec.setup,)
    config = BootConfig(
        cloaked=cloaked,
        programs=GEN_EXEC_TARGETS if spec.program is not None else None,
        params=spec.params() if spec.params is not None else None,
        setup=setup)
    machine = Machine.boot(config, plan)
    if spec.program is not None:
        # Registration charges no cycles and touches no frames, so
        # registering the per-spec program after the boot is exact.
        machine.register(spec.program, cloaked=cloaked)
    if tweak is not None:
        tweak(machine)
    return machine


def run_once(spec: AppSpec, cloaked: bool,
             plan: Optional[FaultPlan] = None,
             tweak: Optional[Callable[[Machine], None]] = None) -> RunRecord:
    """Boot a machine, run one spec, capture its state.

    ``tweak`` runs right before processes are spawned — the hook the
    fuzz driver uses to attach observability sinks (coverage
    accounting) and mutation tests use to sabotage engine internals.
    """
    machine = _booted_machine(spec, cloaked, plan, tweak)
    if spec.peers is not None:
        spec.peers(machine)

    start = machine.cycles.total
    proc = escaped = None
    try:
        proc = machine.spawn(spec.name, spec.argv)
        machine.run(max_ops=spec.max_ops)
    except (OvershadowError, MachineDeadlock, MachineLivelock) as error:
        # A fault fired outside any process context (spawn, final
        # reclaim), every process blocked for good, or the op budget
        # ran out: the run ends here, with exit -1 and the console so
        # far.  Only the first is a typed detection.  The type alone is
        # kept: the error's traceback holds this frame.
        escaped = type(error)
    cycles = machine.cycles.total - start
    exit_code = -1
    if escaped is None and proc.exit_code is not None:
        exit_code = proc.exit_code
    console = (machine.kernel.console.output_of(proc.pid)
               if proc is not None else b"")

    files: List[Tuple[str, Optional[bytes]]] = []
    for path in spec.files:
        try:
            files.append((path, _logical_file_bytes(machine, path,
                                                    spec.name, cloaked)))
        except OvershadowError as violation:
            machine.violations.append(ViolationRecord(-1, violation))
            files.append((path, None))

    violations = tuple(type(rec.error).__name__ for rec in machine.violations)
    if escaped is not None and issubclass(escaped, OvershadowError):
        violations += (escaped.__name__,)
    exposed = bool(cloaked and spec.marker
                   and _marker_visible(machine, spec.marker))
    return RunRecord(
        name=spec.name, cloaked=cloaked, exit_code=exit_code,
        console=console, files=tuple(files), violations=violations,
        cycles=cycles,
        fires=plan.total_fires() if plan is not None else 0,
        exposed=exposed,
    )


# ----------------------------------------------------------------------
# the judge: one native/cloaked pair, one verdict
# ----------------------------------------------------------------------

def _diff_state(a: RunRecord, b: RunRecord) -> str:
    if a.exit_code != b.exit_code:
        return f"exit {a.exit_code} != {b.exit_code}"
    if a.console != b.console:
        return f"console {a.console!r} != {b.console!r}"
    if a.files != b.files:
        return "file contents differ"
    return ""


def judge(spec: AppSpec, determinism: bool = False,
          cloak_tweak: Optional[Callable[[Machine], None]] = None,
          run: Callable[..., RunRecord] = run_once,
          ) -> Tuple[Optional[str], str]:
    """Run ``spec`` natively and cloaked; return ``(kind, detail)``.

    ``kind`` is the first failing rung of the ladder in the module
    docstring, or None for a healthy pair.  With ``determinism`` the
    pair is run a second time, only once it has passed.
    ``cloak_tweak`` goes to every cloaked run; ``run`` stands in for
    :func:`run_once` (the fuzz driver attaches its sinks and audit
    plans there).
    """
    native = run(spec, cloaked=False)
    cloaked = run(spec, cloaked=True, tweak=cloak_tweak)
    if native.exit_code != 0:
        return "genfail", (f"native exit {native.exit_code}: "
                           f"{native.console[-120:].decode(errors='replace')}")
    if cloaked.exposed:
        return "exposure", "marker kernel-visible after cloaked run"
    if cloaked.violations:
        return "violation", f"fault-free violations: {cloaked.violations}"
    if native.state() != cloaked.state():
        return "divergence", _diff_state(native, cloaked)
    if determinism:
        native2 = run(spec, cloaked=False)
        cloaked2 = run(spec, cloaked=True, tweak=cloak_tweak)
        if not (native.identical(native2) and cloaked.identical(cloaked2)):
            return "nondeterministic", "same-seed re-run diverged"
    return None, ""


def run_conformance(verbose: bool = False
                    ) -> List[Tuple[str, Optional[str], str]]:
    """Judge every registered program, determinism rung on (four runs
    for a healthy program); ``(name, kind, detail)`` per program."""
    results = []
    for name in sorted(ORACLE_SPECS):
        kind, detail = judge(ORACLE_SPECS[name], determinism=True)
        results.append((name, kind, detail))
        if verbose:
            status = "ok" if kind is None else f"FAIL [{kind}] {detail}"
            print(f"  conformance {name:<14} {status}")
    return results


# ----------------------------------------------------------------------
# fault-recovery matrix
# ----------------------------------------------------------------------

class MatrixRow:
    __slots__ = ("site", "app", "arm", "opportunities", "fires", "outcome",
                 "violations", "replay")

    def __init__(self, site, app, arm, opportunities, fires, outcome,
                 violations, replay):
        self.site = site
        self.app = app
        self.arm = arm
        self.opportunities = opportunities
        self.fires = fires
        self.outcome = outcome
        self.violations = violations
        #: Paste-able plan spec reproducing this row.
        self.replay = replay


def classify(clean: RunRecord, faulty: RunRecord) -> str:
    if faulty.exposed:
        return OUTCOME_EXPOSED
    if not faulty.violations and faulty.state() == clean.state():
        return OUTCOME_RECOVERED
    if faulty.violations:
        return OUTCOME_DETECTED
    return OUTCOME_CORRUPTED


def _matrix_scenarios() -> List[Tuple[str, str, FaultArm]]:
    """(site, app, arm) for every registered injection point.

    memwalk under memory pressure exercises the full page lifecycle
    (evict, encrypt, write, read, verify, decrypt); chanpump covers the
    sealed-channel hypercalls; secretwriter under churn re-dirties one
    page so its version counter must keep advancing.
    """
    every = lambda site, app: (site, app, FaultArm(site, every=1))
    scenarios = [
        every(SITE_DISK_READ_BITFLIP, "memwalk"),
        every(SITE_DISK_READ_ERROR, "memwalk"),
        every(SITE_DISK_WRITE_BITFLIP, "memwalk"),
        every(SITE_DISK_WRITE_TORN, "memwalk"),
        every(SITE_DISK_WRITE_LOST, "memwalk"),
        every(SITE_WRITEBACK_LOST, "memwalk"),
        every(SITE_SWAPIN_CORRUPT, "memwalk"),
        every(SITE_TLB_FLUSH_LOST, "memwalk"),
        every(SITE_SHADOW_STALE, "memwalk"),
        every(SITE_MAC_TRUNCATE, "memwalk"),
        (SITE_EVICT_UNDER_USE, "memwalk",
         FaultArm(SITE_EVICT_UNDER_USE, every=97, limit=5)),
        every(SITE_HYPERCALL_DUPLICATE, "chanpump"),
        every(SITE_HYPERCALL_RETRY, "chanpump"),
        every(SITE_IV_REUSE, "secretwriter"),
    ]
    covered = {site for site, __, __ in scenarios}
    missing = set(INJECTION_POINTS) - covered
    if missing:
        raise RuntimeError(f"matrix misses injection points: {sorted(missing)}")
    return scenarios


#: Workload overrides for matrix rows (machine params that create the
#: fault's opportunity window).
_MATRIX_SPECS = {
    "secretwriter": AppSpec("secretwriter", ("40",), params=_churn_params,
                            marker=SECRET[:32]),
}


def run_fault_matrix(seed: int = 7,
                     verbose: bool = False) -> List[MatrixRow]:
    """Run every injection point against a cloaked workload; classify."""
    rows = []
    clean_cache: Dict[str, RunRecord] = {}
    for site, app, arm in _matrix_scenarios():
        spec = _MATRIX_SPECS.get(app, ORACLE_SPECS.get(app))
        if app not in clean_cache:
            clean_cache[app] = run_once(spec, cloaked=True)
        plan = FaultPlan(seed=seed, arms=(arm,))
        faulty = run_once(spec, cloaked=True, plan=plan)
        outcome = classify(clean_cache[app], faulty)
        row = MatrixRow(
            site=site, app=app, arm=arm.spec(),
            opportunities=plan.opportunities(site),
            fires=plan.fires(site), outcome=outcome,
            violations=faulty.violations, replay=plan.replay_spec(),
        )
        rows.append(row)
        if verbose:
            print(f"  {site:<32} {app:<13} fires={row.fires:<4} "
                  f"{outcome}")
    return rows


def matrix_contained(rows: List[MatrixRow]) -> bool:
    return all(row.outcome in CONTAINED_OUTCOMES for row in rows)
