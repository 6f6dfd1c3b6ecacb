"""The shim's adapters on the runtime's frame stack against the frozen
session/``_interpose``/``_adapt`` shim (``reference_shim.py``).

Every scenario runs on a fresh machine twice, once per runtime, and the
two runs must agree on everything observable: the op stream each
runtime handed the machine (with the result it was given back), the
shim counters of every runtime the run created, cycles by category,
event counters, console output and the probe stream.
"""

import pytest

import repro.machine
from repro.apps.kvstore import KVStore
from repro.apps.fileio import FileStreamer
from repro.apps.program import Program
from repro.core.hypercall import Hypercall
from repro.core.shim import ShimRuntime
from repro.guestos import uapi
from repro.guestos.uapi import Syscall
from repro.hw.params import PAGE_SIZE
from repro.machine import Machine
from repro.obs import bus
from repro.obs.export import TraceRecorder

from tests.core.reference_shim import ReferenceShimRuntime


def _plain(value):
    """A comparable stand-in: callables by name, buffers as bytes."""
    if isinstance(value, (bytes, bytearray, memoryview)):
        return bytes(value)
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    if callable(value):
        return getattr(value, "__qualname__", type(value).__name__)
    return value


def _op_key(op):
    if op is None:
        return None
    return (type(op).__name__,) + tuple(
        _plain(getattr(op, slot)) for slot in type(op).__slots__)


def _observe(runtime_cls, scenario):
    """Run ``scenario(machine)`` with every cloaked program under
    ``runtime_cls``; returns everything the run exposed."""
    stream = []
    runtimes = {}
    drive = runtime_cls.next_op

    def recording_next_op(self, result):
        runtimes.setdefault(id(self), self)
        op = drive(self, result)
        stream.append((self.ctx.pid, _plain(result), _op_key(op)))
        return op

    recorder = TraceRecorder()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime_cls, "next_op", recording_next_op)
        patch.setattr(repro.machine, "ShimRuntime", runtime_cls)
        machine = Machine.build()
        machine.kernel.vfs.mkdir("/secure")
        bus.attach(recorder, machine.cycles)
        try:
            scenario(machine)
        finally:
            bus.detach(recorder)
    assert all(type(runtime) is runtime_cls
               for runtime in runtimes.values())
    pids = sorted({pid for pid, __, __ in stream if pid is not None})
    return {
        "stream": stream,
        "counters": [(runtime.marshalled_calls, runtime.emulated_calls,
                      runtime.passthrough_calls)
                     for runtime in runtimes.values()],
        "cycles": machine.cycles.breakdown(),
        "stats": machine.stats.as_dict(),
        "console": {pid: machine.kernel.console.output_of(pid)
                    for pid in pids},
        "probes": recorder.events,
        "violations": [(v.pid, type(v.error).__name__)
                       for v in machine.violations],
    }


def _assert_same(scenario):
    reference = _observe(ReferenceShimRuntime, scenario)
    current = _observe(ShimRuntime, scenario)
    assert reference["stream"], "the scenario ran no cloaked op"
    for key in reference:
        assert current[key] == reference[key], key
    return current


def _run(name, argv=()):
    def scenario(machine):
        proc = machine.run_program(name, argv)
        assert proc.exit_code == 0, machine.kernel.console.text_of(proc.pid)
        assert not machine.violations
    return scenario


def _syscalls(observed, pid=None):
    return [op for op_pid, __, op in observed["stream"]
            if op is not None and op[0] in ("SyscallOp", "HypercallOp")
            and (pid is None or op_pid == pid)]


# ----------------------------------------------------------------------
# scenario programs
# ----------------------------------------------------------------------


class PathCalls(Program):
    """Marshalled path calls: mkdir, open, stat, rename, readdir."""

    name = "pathcalls"

    def main(self, ctx):
        d_vaddr, d_len = yield from ctx.put_string("/work")
        yield ctx.mkdir(d_vaddr, d_len)
        f_vaddr, f_len = yield from ctx.put_string("/work/a")
        fd = yield ctx.open(f_vaddr, f_len, uapi.O_CREAT | uapi.O_RDWR)
        yield from ctx.write_bytes(fd, b"plain text")
        yield ctx.lseek(fd, 0, 0)
        back = yield from ctx.read_bytes(fd, 10)
        yield ctx.fstat(fd)
        yield ctx.close(fd)
        st = yield ctx.stat(f_vaddr, f_len)
        g_vaddr, g_len = yield from ctx.put_string("/work/b")
        yield ctx.rename(f_vaddr, f_len, g_vaddr, g_len)
        buf = ctx.scratch(128)
        count = yield ctx.readdir(d_vaddr, d_len, buf, 128)
        names = yield ctx.load(buf, count)
        yield ctx.unlink(g_vaddr, g_len)
        yield from ctx.print(f"{back!r} {st[0]} {names!r}\n")
        return 0


class TaskTree(Program):
    """A thread, a forked child and a heap that grows then shrinks."""

    name = "tasktree"

    def worker(self, ctx, token):
        yield ctx.getpid()
        yield from ctx.print(f"thread {token}\n")
        return 0

    def child(self, ctx, token):
        yield from ctx.print(f"child {token}\n")
        return 3

    def main(self, ctx):
        tid = yield ctx.thread_create(self.worker, 7)
        yield ctx.thread_join(tid)
        pid = yield ctx.fork(self.child, 9)
        status = yield ctx.waitpid(pid)
        base = yield ctx.brk(0)
        yield ctx.brk(base + 4 * PAGE_SIZE)
        for page in range(4):
            yield ctx.store(base + page * PAGE_SIZE, b"heap")
        yield ctx.brk(base + PAGE_SIZE)
        vaddr = yield ctx.mmap(2 * PAGE_SIZE,
                               uapi.PROT_READ | uapi.PROT_WRITE,
                               uapi.MAP_ANON)
        yield ctx.store(vaddr, b"anon")
        yield ctx.munmap(vaddr, 2 * PAGE_SIZE)
        yield from ctx.print(f"status {status}\n")
        return 0


FIFO = "/secure/wake"
MESSAGE = b"after-the-signal"


class SignalDuringSealedRead(Program):
    """The parent blocks in a sealed read; its child signals it before
    writing, so the handler runs above the parked read adapter."""

    name = "sigread"

    def signal_handler(self, ctx, sig):
        yield ctx.getpid()
        yield from ctx.print(f"handler {sig}\n")

    def child(self, ctx, path_vaddr, path_len):
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_WRONLY)
        parent = yield ctx.getppid()
        yield ctx.kill(parent, uapi.SIGUSR1)
        for __ in range(3):
            yield ctx.sched_yield()
        yield from ctx.write_bytes(fd, MESSAGE)
        yield ctx.close(fd)
        return 0

    def main(self, ctx):
        yield ctx.sigaction(uapi.SIGUSR1, 2)
        path_vaddr, path_len = yield from ctx.put_string(FIFO)
        yield ctx.mkfifo(path_vaddr, path_len)
        pid = yield ctx.fork(self.child, path_vaddr, path_len)
        fd = yield ctx.open(path_vaddr, path_len, uapi.O_RDONLY)
        data = yield from ctx.read_exact(fd, len(MESSAGE))
        yield ctx.close(fd)
        yield ctx.waitpid(pid)
        yield from ctx.print(f"got {data!r}\n")
        return 0


class ReturnWithOpenFile(Program):
    """``main`` returns with a protected file still open: the shim's
    shutdown (close_all, DOMAIN_EXIT) must precede the runtime's EXIT."""

    name = "leaveopen"

    def main(self, ctx):
        fd = yield from ctx.open_path("/secure/left-open",
                                      uapi.O_CREAT | uapi.O_RDWR)
        yield from ctx.write_bytes(fd, b"unflushed secret")
        return 4


class ExplicitExit(Program):
    name = "explicitexit"

    def main(self, ctx):
        yield from ctx.print("bye\n")
        yield ctx.exit(6)
        return 0  # never reached


# ----------------------------------------------------------------------
# the scenarios
# ----------------------------------------------------------------------


def test_cloaked_kvstore_over_sealed_fifos():
    def scenario(machine):
        machine.register(KVStore, cloaked=True)
        _run("kvstore", ("batch", "PUT a 1;PUT b 2;GET a;DEL a;GET a"))(machine)

    observed = _assert_same(scenario)
    assert len(observed["counters"]) >= 2      # server and client
    assert any(emulated for __, emulated, __ in observed["counters"])


def test_filestreamer_on_secure():
    def scenario(machine):
        machine.register(FileStreamer, cloaked=True)
        _run("filestreamer", ("write", "/secure/s.bin", "4096", "20000"))(machine)
        _run("filestreamer", ("read", "/secure/s.bin", "4096", "0"))(machine)

    _assert_same(scenario)


def test_marshalled_path_calls():
    def scenario(machine):
        machine.register(PathCalls, cloaked=True)
        _run("pathcalls")(machine)

    observed = _assert_same(scenario)
    (counters,) = observed["counters"]
    assert counters[0] >= 6          # marshalled


def test_thread_fork_and_brk_shrink():
    def scenario(machine):
        machine.register(TaskTree, cloaked=True)
        _run("tasktree")(machine)

    observed = _assert_same(scenario)
    assert len(observed["counters"]) == 3      # leader, thread, child
    hypercalls = [op[1] for op in _syscalls(observed)
                  if op[0] == "HypercallOp"]
    assert Hypercall.PAGE_RECYCLE in hypercalls
    assert Hypercall.UNCLOAK_RANGE in hypercalls


def test_signal_handler_above_a_parked_sealed_read():
    def scenario(machine):
        machine.register(SignalDuringSealedRead, cloaked=True)
        proc = machine.spawn("sigread")
        machine.run()
        assert proc.exit_code == 0
        assert machine.kernel.console.text_of(proc.pid) == \
            f"handler {uapi.SIGUSR1}\ngot {MESSAGE!r}\n"

    observed = _assert_same(scenario)
    assert observed["stats"].get("kernel.signals_delivered") == 1
    # The handler's first op follows the sealed read that parked.
    parent = observed["stream"][0][0]
    calls = _syscalls(observed, parent)
    handler_at = calls.index(("SyscallOp", Syscall.GETPID, (), None))
    assert calls[handler_at - 1][:2] == ("SyscallOp", Syscall.READ)


@pytest.mark.parametrize("program", [ReturnWithOpenFile, ExplicitExit])
def test_shutdown_precedes_the_final_exit(program):
    def scenario(machine):
        machine.register(program, cloaked=True)
        machine.run_program(program.name)

    observed = _assert_same(scenario)
    calls = _syscalls(observed)
    assert calls[-1][:2] == ("SyscallOp", Syscall.EXIT)
    assert calls[-2][:2] == ("HypercallOp", Hypercall.DOMAIN_EXIT)
    if program is ReturnWithOpenFile:
        assert calls[-1][2] == (4,)
        unbind = [index for index, op in enumerate(calls)
                  if op[:2] == ("HypercallOp", Hypercall.FILE_UNBIND)]
        assert unbind and unbind[-1] < len(calls) - 2
    else:
        assert calls[-1][2] == (6,)
