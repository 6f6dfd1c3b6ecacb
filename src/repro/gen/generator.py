"""Seeded guest-program generation: emit -> drop -> sweep -> bake.

The pipeline behind :func:`generate`:

1. **Emit.**  A single ``random.Random(f"gen:{seed}:{structural_key}")``
   substream draws a stream of *structural ops* — self-checking
   composites (a file write, a fork/pipe protocol, a signal storm
   round...) — according to the spec's category weights.  Every random
   choice is drawn here and baked into the op's args, so the structural
   stream is a pure function of ``(seed, spec-without-drop)``.
2. **Drop + sweep.**  The spec's ``drop`` indices are removed, then
   :func:`repro.gen.pool.sweep` removes ops orphaned by the drops
   (a write whose open was dropped).  This is the shrinker's lever:
   any drop set yields a *valid* program.
3. **Bake.**  A :class:`~repro.gen.pool.FileModel` plus a signal-log
   model replay the surviving ops and bake every expectation — seek
   targets, read-back bytes, expected handler logs — into the ops.
   The generated program is thereby self-checking: it verifies its own
   architectural effects as it runs and fails loudly (exit 97,
   ``GENFAIL`` on the console) on any mismatch.

:func:`build_program` turns the finalized :class:`OpPlan` into a
:class:`repro.apps.program.Program` subclass that interprets the ops —
runnable native or cloaked, so the differential oracle can compare —
and :func:`app_spec_for` wraps it in the oracle's
:class:`~repro.faults.oracle.AppSpec`, the one place a generated
program's spec is built.
"""

import hashlib
import random
from typing import Dict, List, Optional, Tuple

from repro.apps.program import Program, UserContext
from repro.faults.oracle import AppSpec, pressure_params
from repro.gen.pool import (KIND_FD, FileModel, ResourcePool, sweep)
from repro.gen.spec import GenSpec
from repro.guestos import uapi
from repro.guestos.uapi import Syscall
from repro.hw.params import PAGE_SIZE

#: Emission-time resource ceilings (see _Emitter): keep even a
#: 4096-op program inside the address-space layout's hard limits.
SCRATCH_BUDGET = 12 * 1024 * 1024      # DATA_MAX_PAGES is 16 MiB
MMAP_PAGE_BUDGET = 8192                # MMAP_MAX_PAGES is 16384
MAX_LIVE_FDS = 12

#: A generated program's op budget, per op of its plan.  The seed-0
#: 256-slot campaign peaks at 20.2 executed ops per plan op, so this
#: leaves about 50x headroom; a preset-sized program that spins ends as a
#: verdict (exit -1) after some 30 000 ops, not 20 million.
OPS_PER_PLAN_OP = 1000

_SIGS = (uapi.SIGUSR1, uapi.SIGUSR2)


class GOp:
    """One structural op: a self-checking composite of user operations.

    ``args`` holds every emission-time random draw (concrete payloads
    included); ``expect`` holds model-derived expectations baked after
    the drop sweep.  ``needs``/``provides``/``revokes`` are the
    resource tokens the sweep uses to close dependencies.
    """

    __slots__ = ("kind", "args", "needs", "provides", "revokes", "expect")

    def __init__(self, kind: str, args: Optional[Dict] = None,
                 needs=(), provides=(), revokes=()):
        self.kind = kind
        self.args = dict(args or {})
        self.needs = tuple(needs)
        self.provides = tuple(provides)
        self.revokes = tuple(revokes)
        self.expect: Dict = {}

    def describe(self) -> str:
        """Canonical one-line rendering for listings and digests."""
        parts = [self.kind]
        for key in sorted(self.args):
            value = self.args[key]
            if isinstance(value, bytes):
                digest = hashlib.sha256(value).hexdigest()[:8]
                parts.append(f"{key}=bytes[{len(value)}]{digest}")
            else:
                parts.append(f"{key}={value}")
        for key in sorted(self.expect):
            value = self.expect[key]
            if isinstance(value, bytes):
                digest = hashlib.sha256(value).hexdigest()[:8]
                parts.append(f"!{key}=bytes[{len(value)}]{digest}")
            else:
                parts.append(f"!{key}={value}")
        return " ".join(parts)


class OpPlan:
    """A finalized generated program: ops plus derived facts."""

    __slots__ = ("seed", "spec", "ops", "structural_count", "marker",
                 "files", "syscalls", "digest")

    def __init__(self, seed: int, spec: GenSpec, ops: List[GOp],
                 structural_count: int, marker: Optional[bytes],
                 files: Tuple[str, ...], syscalls: Tuple[str, ...]):
        self.seed = seed
        self.spec = spec
        self.ops = ops
        #: Size of the structural index space (the shrinker's domain).
        self.structural_count = structural_count
        #: Secret marker placed by secret composites, or None.
        self.marker = marker
        #: Paths whose final contents are architectural state.
        self.files = files
        #: Names of every syscall the interpreter will issue.
        self.syscalls = syscalls
        self.digest = self._digest()

    @property
    def name(self) -> str:
        return f"gen-{self.digest[:10]}"

    def listing(self) -> List[str]:
        header = f"seed={self.seed} spec={self.spec.to_json()}"
        lines = [header]
        for index, op in enumerate(self.ops):
            lines.append(f"{index:4d} {op.describe()}")
        return lines

    def _digest(self) -> str:
        text = "\n".join(self.listing())
        return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# stage 1: emission
# ----------------------------------------------------------------------

class _Emitter:
    """Draws the structural op stream under resource budgets."""

    #: Categories that consume scratch; degraded to "compute" when the
    #: scratch budget runs dry.
    _SCRATCHY = frozenset((
        "mem", "file", "junk", "mmap", "heap", "proc", "thread", "ipc",
        "secret", "misc", "signal",
    ))

    def __init__(self, rng: random.Random, spec: GenSpec):
        self.rng = rng
        self.spec = spec
        self.pool = ResourcePool()
        self.scratch_left = SCRATCH_BUDGET
        self.mmap_pages_left = MMAP_PAGE_BUDGET
        #: Per-path upper bound on content size (scratch estimate for
        #: full-file read-backs).
        self.path_bound: Dict[str, int] = {}
        #: Symbolic fd -> path, for size-bound lookups.
        self.fd_path: Dict[int, str] = {}

    # -- randomness helpers ------------------------------------------------

    def _payload(self, cap: Optional[int] = None) -> bytes:
        limit = self.spec.payload if cap is None else min(self.spec.payload,
                                                          cap)
        return self.rng.randbytes(self.rng.randint(1, limit))

    def _charge_scratch(self, nbytes: int) -> None:
        self.scratch_left -= nbytes + 64

    # -- the stream ----------------------------------------------------------

    def emit(self) -> List[GOp]:
        ops = [GOp("prologue")]
        self._charge_scratch(256)
        categories = [c for c, w in sorted(self.spec.weights.items())
                      if w > 0]
        weights = [self.spec.weights[c] for c in categories]
        for __ in range(self.spec.ops):
            category = self.rng.choices(categories, weights)[0]
            op = self._emit_category(category)
            self.pool.apply(op.provides, op.revokes)
            ops.append(op)
        if self.spec.sabotage == "time-print":
            ops.append(GOp("sabotage_time"))
        return ops

    def _emit_category(self, category: str) -> GOp:
        if category == "secret" and not self.spec.secret:
            category = "mem"
        if category == "proc" and self.spec.max_children < 1:
            category = "mem"
        if category == "thread" and self.spec.max_threads < 1:
            category = "mem"
        if category in self._SCRATCHY and self.scratch_left < 128 * 1024:
            category = "compute"
        if category == "mmap" and self.mmap_pages_left < 8:
            category = "mem"
        return getattr(self, "_cat_" + category)()

    # -- category emitters --------------------------------------------------

    def _cat_compute(self) -> GOp:
        return GOp("compute", {
            "reg": self.rng.choice(("r6", "r7")),
            "value": self.rng.getrandbits(32),
            "units": self.rng.randint(1, 400),
        })

    def _cat_mem(self) -> GOp:
        data = self._payload()
        self._charge_scratch(3 * len(data))
        return GOp("mem", {
            "data": data,
            "mode": self.rng.choice(("roundtrip", "copy")),
        })

    def _cat_file(self) -> GOp:
        live = self.pool.live(KIND_FD)
        want_open = (not live
                     or (len(live) < MAX_LIVE_FDS
                         and self.rng.random() < 0.35))
        if want_open:
            fd = self.pool.fresh(KIND_FD)
            reuse = self.path_bound and self.rng.random() < 0.3
            if reuse:
                path = self.rng.choice(sorted(self.path_bound))
            else:
                path = f"/tmp/g{fd}.dat"
            self.path_bound.setdefault(path, 0)
            self.fd_path[fd] = path
            self._charge_scratch(len(path))
            return GOp("file_open", {
                "fd": fd, "path": path,
                "append": self.rng.random() < 0.25,
            }, provides=((KIND_FD, fd),))
        fd = self.rng.choice(live)
        action = self.rng.choices(
            ("write", "seek", "trunc", "read", "close"),
            (4, 2, 1, 2, 1))[0]
        token = ((KIND_FD, fd),)
        if action == "write":
            data = self._payload()
            self._charge_scratch(len(data))
            self.path_bound[self.fd_path[fd]] += len(data)
            return GOp("file_write", {
                "fd": fd, "data": data,
                "frac": self.rng.randint(0, 100),
            }, needs=token)
        if action == "seek":
            peek = self.rng.randint(1, 64)
            self._charge_scratch(peek)
            return GOp("file_seek", {
                "fd": fd, "frac": self.rng.randint(0, 100), "peek": peek,
            }, needs=token)
        if action == "trunc":
            return GOp("file_trunc", {
                "fd": fd, "frac": self.rng.randint(0, 100),
            }, needs=token)
        if action == "read":
            self._charge_scratch(self.path_bound[self.fd_path[fd]])
            return GOp("file_read", {"fd": fd}, needs=token)
        return GOp("file_close", {"fd": fd}, needs=token, revokes=token)

    def _cat_junk(self) -> GOp:
        data = self._payload(256)
        self._charge_scratch(3 * len(data) + 512)
        return GOp("junk", {"tag": self.pool.fresh("junk"), "data": data})

    def _cat_mmap(self) -> GOp:
        if self.rng.random() < 0.25:
            data = self._payload(PAGE_SIZE)
            self._charge_scratch(2 * len(data))
            self.mmap_pages_left -= 1
            return GOp("mmap_file", {
                "tag": self.pool.fresh("mmf"), "data": data,
            })
        npages = self.rng.randint(1, 4)
        self.mmap_pages_left -= npages
        data = self._payload(PAGE_SIZE)
        self._charge_scratch(2 * len(data))
        return GOp("mmap_anon", {"npages": npages, "data": data})

    def _cat_heap(self) -> GOp:
        data = self._payload(PAGE_SIZE)
        self._charge_scratch(2 * len(data))
        return GOp("heap", {
            "pages": self.rng.randint(2, 4), "data": data,
        })

    def _cat_proc(self) -> GOp:
        protocols = ["pipe", "kill", "exec", "file"]
        if self.spec.max_children >= 2:
            protocols.append("tree")
        protocol = self.rng.choice(protocols)
        if protocol == "exec":
            self._charge_scratch(64)
            return GOp("proc_exec")
        if protocol == "file":
            data = self._payload()
            path = f"/tmp/cf{self.pool.fresh('cf')}.bin"
            self._charge_scratch(3 * len(data) + len(path))
            return GOp("proc_file", {"path": path, "data": data})
        data = self._payload()
        if protocol == "pipe":
            self._charge_scratch(2 * len(data))
            return GOp("proc_pipe", {"data": data})
        if protocol == "kill":
            self._charge_scratch(2 * len(data))
            return GOp("proc_kill", {"data": data})
        data2 = self._payload()
        self._charge_scratch(3 * (len(data) + len(data2)))
        return GOp("proc_tree", {"data": data, "data2": data2})

    def _cat_thread(self) -> GOp:
        data = self._payload()
        self._charge_scratch(2 * len(data))
        return GOp("thread", {"data": data})

    def _cat_ipc(self) -> GOp:
        data = self._payload()
        self._charge_scratch(2 * len(data))
        return GOp("ipc", {"data": data})

    def _cat_signal(self) -> GOp:
        kind = self.rng.choices(("sig_self", "sig_masked", "sig_ignored"),
                                (3, 2, 1))[0]
        return GOp(kind, {"sig": self.rng.choice(_SIGS)})

    def _cat_secret(self) -> GOp:
        pad = self._payload()
        if self.rng.random() < 0.5:
            self._charge_scratch(2 * len(pad) + 64)
            return GOp("secret_mem", {"pad": pad})
        path = f"/secure/gsec{self.pool.fresh('sec')}.bin"
        self._charge_scratch(3 * len(pad) + len(path) + 64)
        return GOp("secret_file", {
            "fd": self.pool.fresh(KIND_FD), "path": path, "pad": pad,
        })

    def _cat_misc(self) -> GOp:
        self._charge_scratch(64)
        return GOp("misc", {"sleep": self.rng.randint(100, 2000)})


# ----------------------------------------------------------------------
# stage 3: the model pass (bake expectations)
# ----------------------------------------------------------------------

def _bake(ops: List[GOp], marker: Optional[bytes]) -> Tuple[str, ...]:
    """Replay the kept ops against the models; fill ``expect`` fields.

    Returns the ordered tuple of surviving file paths (architectural
    state for the oracle's file comparison).
    """
    fm = FileModel()
    sig_log: List[int] = []
    for op in ops:
        kind, args = op.kind, op.args
        if kind == "file_open":
            if args["fd"] not in fm.handles:
                fm.open(args["fd"], args["path"], args["append"])
        elif kind == "file_write":
            if not args["append_mode"]:
                size = fm.size(args["fd"])
                target = (size * args["frac"]) // 100
                op.expect["target"] = target
                fm.seek(args["fd"], target)
            fm.write(args["fd"], args["data"])
        elif kind == "file_seek":
            size = fm.size(args["fd"])
            target = (size * args["frac"]) // 100
            content = bytes(fm.files[fm.path_of(args["fd"])])
            got = content[target:target + args["peek"]]
            op.expect["target"] = target
            op.expect["bytes"] = got
            fm.seek(args["fd"], target + len(got))
        elif kind == "file_trunc":
            size = fm.size(args["fd"])
            target = (size * args["frac"]) // 100
            op.expect["target"] = fm.truncate(args["fd"], target)
        elif kind == "file_read":
            op.expect["bytes"] = fm.read_all(args["fd"])
        elif kind == "file_close":
            fm.close(args["fd"])
        elif kind == "secret_file":
            payload = marker + args["pad"]
            fm.open(args["fd"], args["path"])
            fm.write(args["fd"], payload)
            op.expect["bytes"] = payload
            fm.close(args["fd"])
        elif kind == "proc_file":
            fm.put(args["path"], args["data"])
        elif kind == "sig_self":
            op.expect["log_before"] = tuple(sig_log)
            sig_log.append(args["sig"])
            op.expect["log"] = tuple(sig_log)
        elif kind == "sig_masked":
            op.expect["log_before"] = tuple(sig_log)
            sig_log.append(args["sig"])
            op.expect["log"] = tuple(sig_log)
        elif kind == "sig_ignored":
            op.expect["log"] = tuple(sig_log)
    return fm.surviving_paths()


def _annotate_append_modes(ops: List[GOp]) -> None:
    """Propagate each handle's append flag to its writes (the
    interpreter and the model both need it before baking)."""
    append_of: Dict[int, bool] = {}
    for op in ops:
        if op.kind == "file_open":
            append_of.setdefault(op.args["fd"], op.args["append"])
        elif op.kind == "file_write":
            op.args["append_mode"] = append_of.get(op.args["fd"], False)


# ----------------------------------------------------------------------
# syscall accounting (static: the interpreter always issues these)
# ----------------------------------------------------------------------

_KIND_SYSCALLS: Dict[str, Tuple[Syscall, ...]] = {
    "prologue": (Syscall.GETPID, Syscall.GETPPID, Syscall.GETTIME,
                 Syscall.STAT, Syscall.SIGPROCMASK, Syscall.YIELD,
                 Syscall.NANOSLEEP, Syscall.SYNC),
    "compute": (),
    "mem": (),
    "file_open": (Syscall.OPEN,),
    "file_write": (Syscall.WRITE,),
    "file_seek": (Syscall.LSEEK, Syscall.READ),
    "file_trunc": (Syscall.TRUNCATE,),
    "file_read": (Syscall.LSEEK, Syscall.READ, Syscall.FSTAT),
    "file_close": (Syscall.CLOSE,),
    "junk": (Syscall.MKDIR, Syscall.OPEN, Syscall.WRITE, Syscall.FSTAT,
             Syscall.LSEEK, Syscall.READ, Syscall.TRUNCATE, Syscall.DUP2,
             Syscall.STAT, Syscall.RENAME, Syscall.MKFIFO, Syscall.READDIR,
             Syscall.CLOSE, Syscall.UNLINK),
    "mmap_anon": (Syscall.MMAP, Syscall.MUNMAP),
    "mmap_file": (Syscall.OPEN, Syscall.WRITE, Syscall.MMAP, Syscall.MUNMAP,
                  Syscall.CLOSE),
    "heap": (Syscall.BRK,),
    "proc_pipe": (Syscall.PIPE, Syscall.FORK, Syscall.CLOSE, Syscall.WRITE,
                  Syscall.READ, Syscall.WAITPID),
    "proc_kill": (Syscall.PIPE, Syscall.FORK, Syscall.CLOSE, Syscall.WRITE,
                  Syscall.READ, Syscall.WAITPID, Syscall.KILL),
    "proc_exec": (Syscall.FORK, Syscall.EXEC, Syscall.WAITPID),
    "proc_file": (Syscall.FORK, Syscall.WAITPID, Syscall.OPEN, Syscall.WRITE,
                  Syscall.CLOSE, Syscall.READ),
    "proc_tree": (Syscall.PIPE, Syscall.FORK, Syscall.CLOSE, Syscall.WRITE,
                  Syscall.READ, Syscall.WAITPID),
    "thread": (Syscall.THREAD_CREATE, Syscall.THREAD_JOIN),
    "ipc": (Syscall.PIPE, Syscall.WRITE, Syscall.READ, Syscall.CLOSE),
    "sig_self": (Syscall.SIGACTION, Syscall.KILL, Syscall.YIELD),
    "sig_masked": (Syscall.SIGACTION, Syscall.SIGPROCMASK, Syscall.KILL,
                   Syscall.YIELD),
    "sig_ignored": (Syscall.SIGACTION, Syscall.KILL, Syscall.YIELD),
    "secret_mem": (),
    "secret_file": (Syscall.OPEN, Syscall.WRITE, Syscall.LSEEK, Syscall.READ,
                    Syscall.CLOSE),
    "misc": (Syscall.GETPID, Syscall.GETPPID, Syscall.GETTIME,
             Syscall.NANOSLEEP, Syscall.YIELD, Syscall.SYNC),
    "sabotage_time": (Syscall.GETTIME,),
}


def _syscalls_of(ops: List[GOp]) -> Tuple[str, ...]:
    used = {Syscall.EXIT, Syscall.WRITE}   # runtime exit + console prints
    for op in ops:
        if op.kind == "file_write" and not op.args.get("append_mode"):
            used.add(Syscall.LSEEK)
        used.update(_KIND_SYSCALLS[op.kind])
    return tuple(sorted(s.name for s in used))


# ----------------------------------------------------------------------
# generate: the public pipeline
# ----------------------------------------------------------------------

def generate(seed: int, spec: GenSpec) -> OpPlan:
    """Produce the finalized plan for ``(seed, spec)``.

    Pure and deterministic: equal inputs give equal plans, including
    every baked payload byte.
    """
    spec.validate()
    rng = random.Random(f"gen:{seed}:{spec.structural_key()}")
    structural = _Emitter(rng, spec).emit()
    structural_count = len(structural)
    kept = sweep(structural, spec.drop)
    _annotate_append_modes(kept)
    marker_tag = hashlib.sha256(
        f"gensec:{seed}:{spec.structural_key()}".encode()).hexdigest()[:16]
    marker = f"GENSEC-{marker_tag}".encode()
    files = _bake(kept, marker)
    has_secret = any(op.kind in ("secret_mem", "secret_file") for op in kept)
    return OpPlan(
        seed=seed, spec=spec, ops=kept,
        structural_count=structural_count,
        marker=marker if has_secret else None,
        files=files, syscalls=_syscalls_of(kept),
    )


# ----------------------------------------------------------------------
# the interpreter: a Program over the finalized plan
# ----------------------------------------------------------------------

class GeneratedProgram(Program):
    """Interprets an :class:`OpPlan`; subclassed per plan by
    :func:`build_program`.

    Self-checking discipline: every composite verifies its own effects
    against the baked expectations and the whole run fails fast with
    exit code 97 and a ``GENFAIL`` console line naming the op.  The
    console additionally carries a ``c<i>.`` checkpoint per composite,
    so a native-vs-cloaked console diff pinpoints the divergence site.
    """

    plan: OpPlan = None

    def __init__(self):
        self._sig_log: List[int] = []
        self._fds: Dict[int, int] = {}
        #: Root pid captured at prologue.  ``ctx.pid`` is unreliable
        #: after thread_create: threads share the UserContext and
        #: their start overwrites its pid with the thread id.
        self._pid: Optional[int] = None

    def main(self, ctx: UserContext):
        for pos, op in enumerate(self.plan.ops):
            yield from ctx.print(f"c{pos}.")
            fail = yield from getattr(self, "_op_" + op.kind)(ctx, pos, op)
            if fail is not None:
                yield from ctx.print(f"\nGENFAIL op={pos} {op.kind} {fail}\n")
                return 97
        yield from ctx.print("\nGEN-OK\n")
        return 0

    def signal_handler(self, ctx: UserContext, sig: int):
        self._sig_log.append(sig)
        yield ctx.alu(5)

    # -- composites --------------------------------------------------------

    def _op_prologue(self, ctx, pos, op):
        pid = yield ctx.getpid()
        if pid != ctx.pid:
            return f"getpid {pid} != {ctx.pid}"
        self._pid = pid
        yield ctx.getppid()
        yield ctx.gettime()
        vaddr, length = yield from ctx.put_string("/tmp")
        st = yield ctx.stat(vaddr, length)
        if not isinstance(st, tuple) or st[0] != uapi.S_IFDIR:
            return f"stat /tmp -> {st!r}"
        yield ctx.sigprocmask(uapi.SIGUSR2, True)
        yield ctx.sigprocmask(uapi.SIGUSR2, False)
        yield ctx.sched_yield()
        yield ctx.nanosleep(120)
        yield ctx.sync()
        return None

    def _op_compute(self, ctx, pos, op):
        yield ctx.set_reg(op.args["reg"], op.args["value"])
        yield ctx.alu(op.args["units"])
        got = yield ctx.get_reg(op.args["reg"])
        if got != op.args["value"]:
            return f"reg {op.args['reg']} {got} != {op.args['value']}"
        return None

    def _op_mem(self, ctx, pos, op):
        data = op.args["data"]
        src = ctx.scratch(len(data))
        yield ctx.store(src, data)
        if op.args["mode"] == "copy":
            dst = ctx.scratch(len(data))
            yield ctx.copy(src, dst, len(data))
            got = yield ctx.load(dst, len(data))
        else:
            got = yield ctx.load(src, len(data))
        if got != data:
            return "memory round-trip mismatch"
        return None

    # -- files -------------------------------------------------------------

    def _op_file_open(self, ctx, pos, op):
        flags = uapi.O_CREAT | uapi.O_RDWR
        if op.args["append"]:
            flags |= uapi.O_APPEND
        fd = yield from ctx.open_path(op.args["path"], flags)
        if not isinstance(fd, int) or fd < 0:
            return f"open -> {fd!r}"
        self._fds[op.args["fd"]] = fd
        return None

    def _op_file_write(self, ctx, pos, op):
        fd = self._fds[op.args["fd"]]
        data = op.args["data"]
        if not op.args["append_mode"]:
            at = yield ctx.lseek(fd, op.expect["target"], uapi.SEEK_SET)
            if at != op.expect["target"]:
                return f"lseek -> {at!r}"
        written = yield from ctx.write_bytes(fd, data)
        if written != len(data):
            return f"write -> {written!r}"
        return None

    def _op_file_seek(self, ctx, pos, op):
        fd = self._fds[op.args["fd"]]
        at = yield ctx.lseek(fd, op.expect["target"], uapi.SEEK_SET)
        if at != op.expect["target"]:
            return f"lseek -> {at!r}"
        got = yield from ctx.read_exact(fd, len(op.expect["bytes"]))
        if got != op.expect["bytes"]:
            return "peek mismatch"
        return None

    def _op_file_trunc(self, ctx, pos, op):
        fd = self._fds[op.args["fd"]]
        result = yield ctx.truncate(fd, op.expect["target"])
        if result != 0:
            return f"truncate -> {result!r}"
        return None

    def _op_file_read(self, ctx, pos, op):
        fd = self._fds[op.args["fd"]]
        expected = op.expect["bytes"]
        yield ctx.lseek(fd, 0, uapi.SEEK_SET)
        got = yield from ctx.read_exact(fd, len(expected))
        if got != expected:
            return "content mismatch"
        st = yield ctx.fstat(fd)
        if not isinstance(st, tuple) or st[0] != uapi.S_IFREG:
            return f"fstat -> {st!r}"
        if st[1] != len(expected):
            return f"size {st[1]} != {len(expected)}"
        return None

    def _op_file_close(self, ctx, pos, op):
        fd = self._fds.pop(op.args["fd"])
        result = yield ctx.close(fd)
        if result != 0:
            return f"close -> {result!r}"
        return None

    def _op_junk(self, ctx, pos, op):
        tag, data = op.args["tag"], op.args["data"]
        base = f"/tmp/j{tag}"
        dvaddr, dlen = yield from ctx.put_string(base)
        yield ctx.mkdir(dvaddr, dlen)
        fd = yield from ctx.open_path(f"{base}/a", uapi.O_CREAT | uapi.O_RDWR)
        if not isinstance(fd, int) or fd < 0:
            return f"open -> {fd!r}"
        yield from ctx.write_bytes(fd, data)
        yield ctx.fstat(fd)
        yield ctx.lseek(fd, 0, uapi.SEEK_SET)
        yield from ctx.read_exact(fd, min(8, len(data)))
        yield ctx.truncate(fd, len(data) // 2)
        dup_target = fd + 64
        dup = yield ctx.dup2(fd, dup_target)
        if dup != dup_target:
            return f"dup2 -> {dup!r}"
        yield ctx.close(dup)
        avaddr, alen = yield from ctx.put_string(f"{base}/a")
        yield ctx.stat(avaddr, alen)
        bvaddr, blen = yield from ctx.put_string(f"{base}/b")
        yield ctx.rename(avaddr, alen, bvaddr, blen)
        fvaddr, flen = yield from ctx.put_string(f"{base}/f")
        yield ctx.mkfifo(fvaddr, flen)
        buf = ctx.scratch(256)
        yield ctx.readdir(dvaddr, dlen, buf, 256)
        yield ctx.close(fd)
        yield ctx.unlink(bvaddr, blen)
        return None

    # -- memory management --------------------------------------------------

    def _op_mmap_anon(self, ctx, pos, op):
        npages, data = op.args["npages"], op.args["data"]
        length = npages * PAGE_SIZE
        base = yield ctx.mmap(length, uapi.PROT_READ | uapi.PROT_WRITE,
                              uapi.MAP_ANON)
        if not isinstance(base, int) or base <= 0:
            return f"mmap -> {base!r}"
        yield ctx.store(base, data)
        got = yield ctx.load(base, len(data))
        if got != data:
            return "page 0 mismatch"
        if npages >= 2:
            tail = data[::-1]
            yield ctx.store(base + (npages - 1) * PAGE_SIZE, tail)
            got = yield ctx.load(base + (npages - 1) * PAGE_SIZE, len(tail))
            if got != tail:
                return "tail page mismatch"
        if npages >= 3:
            got = yield ctx.load(base + PAGE_SIZE, 16)
            if got != b"\x00" * 16:
                return "fresh page not zero-filled"
        result = yield ctx.munmap(base, length)
        if result != 0:
            return f"munmap -> {result!r}"
        return None

    def _op_mmap_file(self, ctx, pos, op):
        tag, data = op.args["tag"], op.args["data"]
        path = f"/tmp/mf{tag}.bin"
        fd = yield from ctx.open_path(path, uapi.O_CREAT | uapi.O_RDWR)
        if not isinstance(fd, int) or fd < 0:
            return f"open -> {fd!r}"
        yield from ctx.write_bytes(fd, data)
        base = yield ctx.mmap(PAGE_SIZE, uapi.PROT_READ, uapi.MAP_PRIVATE,
                              fd, 0)
        if not isinstance(base, int) or base <= 0:
            return f"mmap -> {base!r}"
        got = yield ctx.load(base, len(data))
        if got != data:
            return "mapped file content mismatch"
        result = yield ctx.munmap(base, PAGE_SIZE)
        if result != 0:
            return f"munmap -> {result!r}"
        yield ctx.close(fd)
        return None

    def _op_heap(self, ctx, pos, op):
        pages, data = op.args["pages"], op.args["data"]
        base = yield ctx.brk(0)
        grown = base + pages * PAGE_SIZE
        result = yield ctx.brk(grown)
        if result != grown:
            return f"brk grow -> {result!r}"
        yield ctx.store(base, data)
        tail = base + (pages - 1) * PAGE_SIZE
        yield ctx.store(tail, data[:16][::-1] or b"\x01")
        got = yield ctx.load(base, len(data))
        if got != data:
            return "heap page 0 mismatch"
        # Shrink to the old break, regrow: page 0 survives (the kernel
        # keeps one mapped heap page), the rest must come back zeroed.
        yield ctx.brk(base)
        result = yield ctx.brk(grown)
        if result != grown:
            return f"brk regrow -> {result!r}"
        got = yield ctx.load(base, len(data))
        if got != data:
            return "kept heap page lost its contents"
        got = yield ctx.load(tail, 16)
        if got != b"\x00" * 16:
            return "regrown heap page not zero-filled"
        yield ctx.brk(base)
        return None

    # -- processes and threads ---------------------------------------------

    def _child_pipe_writer(self, ctx, wfd, data):
        vaddr, __ = yield from ctx.put_bytes(data)
        sent = yield from ctx.write_all(wfd, vaddr, len(data))
        return 0 if sent == len(data) else 12

    def _op_proc_pipe(self, ctx, pos, op):
        data = op.args["data"]
        rfd, wfd = yield ctx.pipe()
        pid = yield ctx.fork(self._child_pipe_writer, wfd, data)
        if not isinstance(pid, int) or pid <= 0:
            return f"fork -> {pid!r}"
        yield ctx.close(wfd)
        got = yield from ctx.read_exact(rfd, len(data))
        if got != data:
            return "pipe payload mismatch"
        yield ctx.close(rfd)
        reaped = yield ctx.waitpid(pid)
        if reaped != (pid, 0):
            return f"waitpid -> {reaped!r}"
        return None

    def _child_write_then_hang(self, ctx, wfd, hang_rfd, data):
        vaddr, __ = yield from ctx.put_bytes(data)
        sent = yield from ctx.write_all(wfd, vaddr, len(data))
        if sent < len(data):
            return 12
        buf = ctx.scratch(8)
        yield ctx.read(hang_rfd, buf, 1)   # blocks until SIGKILL
        return 13

    def _op_proc_kill(self, ctx, pos, op):
        data = op.args["data"]
        a_r, a_w = yield ctx.pipe()
        b_r, b_w = yield ctx.pipe()       # never written: the hang pipe
        pid = yield ctx.fork(self._child_write_then_hang, a_w, b_r, data)
        if not isinstance(pid, int) or pid <= 0:
            return f"fork -> {pid!r}"
        got = yield from ctx.read_exact(a_r, len(data))
        if got != data:
            return "pre-kill payload mismatch"
        yield ctx.kill(pid, uapi.SIGKILL)
        reaped = yield ctx.waitpid(pid)
        if reaped != (pid, 128 + uapi.SIGKILL):
            return f"waitpid -> {reaped!r}"
        for fd in (a_r, a_w, b_r, b_w):
            yield ctx.close(fd)
        return None

    def _child_exec(self, ctx, path_vaddr, path_len):
        yield ctx.exec(path_vaddr, path_len, argv=("1",))
        return 127   # unreachable unless exec failed

    def _op_proc_exec(self, ctx, pos, op):
        vaddr, length = yield from ctx.put_string("/bin/mb-empty")
        pid = yield ctx.fork(self._child_exec, vaddr, length)
        if not isinstance(pid, int) or pid <= 0:
            return f"fork -> {pid!r}"
        reaped = yield ctx.waitpid(pid)
        if reaped != (pid, 0):
            return f"waitpid -> {reaped!r}"
        return None

    def _child_file_writer(self, ctx, path, data):
        fd = yield from ctx.open_path(path, uapi.O_CREAT | uapi.O_RDWR)
        if not isinstance(fd, int) or fd < 0:
            return 14
        written = yield from ctx.write_bytes(fd, data)
        if written != len(data):
            return 15
        yield ctx.close(fd)
        return 0

    def _op_proc_file(self, ctx, pos, op):
        path, data = op.args["path"], op.args["data"]
        pid = yield ctx.fork(self._child_file_writer, path, data)
        if not isinstance(pid, int) or pid <= 0:
            return f"fork -> {pid!r}"
        reaped = yield ctx.waitpid(pid)
        if reaped != (pid, 0):
            return f"waitpid -> {reaped!r}"
        fd = yield from ctx.open_path(path, uapi.O_RDWR)
        got = yield from ctx.read_exact(fd, len(data))
        if got != data:
            return "child file content mismatch"
        yield ctx.close(fd)
        return None

    def _child_middle(self, ctx, wfd, data, data2):
        q_r, q_w = yield ctx.pipe()
        gpid = yield ctx.fork(self._child_pipe_writer, q_w, data2)
        if not isinstance(gpid, int) or gpid <= 0:
            return 16
        yield ctx.close(q_w)
        got = yield from ctx.read_exact(q_r, len(data2))
        if got != data2:
            return 17
        yield ctx.close(q_r)
        reaped = yield ctx.waitpid(gpid)
        if reaped != (gpid, 0):
            return 18
        merged = data + got
        vaddr, __ = yield from ctx.put_bytes(merged)
        sent = yield from ctx.write_all(wfd, vaddr, len(merged))
        return 0 if sent == len(merged) else 19

    def _op_proc_tree(self, ctx, pos, op):
        data, data2 = op.args["data"], op.args["data2"]
        p_r, p_w = yield ctx.pipe()
        pid = yield ctx.fork(self._child_middle, p_w, data, data2)
        if not isinstance(pid, int) or pid <= 0:
            return f"fork -> {pid!r}"
        yield ctx.close(p_w)
        got = yield from ctx.read_exact(p_r, len(data) + len(data2))
        if got != data + data2:
            return "tree payload mismatch"
        yield ctx.close(p_r)
        reaped = yield ctx.waitpid(pid)
        if reaped != (pid, 0):
            return f"waitpid -> {reaped!r}"
        return None

    def _thread_worker(self, ctx, buf, data):
        yield ctx.store(buf, data)
        return 0

    def _op_thread(self, ctx, pos, op):
        data = op.args["data"]
        buf = ctx.scratch(len(data))
        tid = yield ctx.thread_create(self._thread_worker, buf, data)
        if not isinstance(tid, int) or tid <= 0:
            return f"thread_create -> {tid!r}"
        joined = yield ctx.thread_join(tid)
        if joined != (tid, 0):
            return f"thread_join -> {joined!r}"
        got = yield ctx.load(buf, len(data))
        if got != data:
            return "thread buffer mismatch"
        return None

    def _op_ipc(self, ctx, pos, op):
        data = op.args["data"]
        rfd, wfd = yield ctx.pipe()
        written = yield from ctx.write_bytes(wfd, data)
        if written != len(data):
            return f"pipe write -> {written!r}"
        got = yield from ctx.read_exact(rfd, len(data))
        if got != data:
            return "self-pipe payload mismatch"
        yield ctx.close(rfd)
        yield ctx.close(wfd)
        return None

    # -- signals -----------------------------------------------------------

    def _op_sig_self(self, ctx, pos, op):
        sig = op.args["sig"]
        yield ctx.sigaction(sig, 2)
        yield ctx.kill(self._pid, sig)
        yield ctx.sched_yield()
        if tuple(self._sig_log) != op.expect["log"]:
            return f"handler log {self._sig_log} != {list(op.expect['log'])}"
        return None

    def _op_sig_masked(self, ctx, pos, op):
        sig = op.args["sig"]
        yield ctx.sigaction(sig, 2)
        yield ctx.sigprocmask(sig, True)
        yield ctx.kill(self._pid, sig)
        yield ctx.sched_yield()
        if tuple(self._sig_log) != op.expect["log_before"]:
            return "masked signal delivered early"
        yield ctx.sigprocmask(sig, False)
        yield ctx.sched_yield()
        if tuple(self._sig_log) != op.expect["log"]:
            return "unmasked signal not delivered"
        return None

    def _op_sig_ignored(self, ctx, pos, op):
        sig = op.args["sig"]
        yield ctx.sigaction(sig, uapi.SIG_IGN)
        yield ctx.kill(self._pid, sig)
        yield ctx.sched_yield()
        if tuple(self._sig_log) != op.expect["log"]:
            return "ignored signal delivered"
        return None

    # -- secrets -----------------------------------------------------------

    def _op_secret_mem(self, ctx, pos, op):
        payload = self.plan.marker + op.args["pad"]
        buf = ctx.scratch(len(payload))
        yield ctx.store(buf, payload)
        got = yield ctx.load(buf, len(payload))
        if got != payload:
            return "secret buffer mismatch"
        # Deliberately left resident: the oracle's hygiene scan must
        # not find the marker kernel-visible after a cloaked exit.
        return None

    def _op_secret_file(self, ctx, pos, op):
        payload = op.expect["bytes"]
        fd = yield from ctx.open_path(op.args["path"],
                                      uapi.O_CREAT | uapi.O_RDWR)
        if not isinstance(fd, int) or fd < 0:
            return f"open -> {fd!r}"
        written = yield from ctx.write_bytes(fd, payload)
        if written != len(payload):
            return f"write -> {written!r}"
        yield ctx.lseek(fd, 0, uapi.SEEK_SET)
        got = yield from ctx.read_exact(fd, len(payload))
        if got != payload:
            return "secret file read-back mismatch"
        yield ctx.close(fd)
        return None

    # -- misc ---------------------------------------------------------------

    def _op_misc(self, ctx, pos, op):
        pid = yield ctx.getpid()
        if pid != self._pid:
            return f"getpid {pid} != {self._pid}"
        yield ctx.getppid()
        yield ctx.gettime()
        yield ctx.nanosleep(op.args["sleep"])
        yield ctx.sched_yield()
        yield ctx.sync()
        return None

    def _op_sabotage_time(self, ctx, pos, op):
        # Deliberate transparency violation for shrinker/driver
        # self-tests: virtual time legally differs native-vs-cloaked,
        # so printing it must be caught by the oracle.
        now = yield ctx.gettime()
        yield from ctx.print(f"T={now}\n")
        return None


def build_program(plan: OpPlan):
    """A concrete :class:`Program` subclass interpreting ``plan``.

    The class name embeds the plan digest, so the image-identity cache
    in :mod:`repro.apps.program` keys distinct plans separately.
    """
    class_name = f"Gen_{plan.digest[:10]}"
    return type(class_name, (GeneratedProgram,), {
        "name": plan.name,
        "plan": plan,
    })


def app_spec_for(seed: int, spec: GenSpec) -> Tuple[AppSpec, OpPlan]:
    """Materialize ``(seed, spec)`` into an oracle :class:`AppSpec`."""
    plan = generate(seed, spec)
    app = AppSpec(
        name=plan.name, files=plan.files, marker=plan.marker,
        params=pressure_params if spec.pressure else None,
        max_ops=OPS_PER_PLAN_OP * max(1, len(plan.ops)),
        program=build_program(plan),
    )
    return app, plan
