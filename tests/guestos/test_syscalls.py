"""Syscall-level tests: small programs run on a full machine.

Each test builds a throwaway program exercising one syscall's
behaviour (including error paths) and runs it natively; the cloaked
shim path is covered separately in tests/integration.
"""

import pytest

from repro.apps.program import Program
from repro.guestos import uapi
from repro.hw.params import PAGE_SIZE
from repro.machine import Machine


class Recorder(Program):
    """Runs a user-supplied generator body and records its returns."""

    name = "recorder"
    body = None  # injected per test

    def main(self, ctx):
        result = yield from type(self).body(ctx)
        type(self).result = result
        return 0


def run_body(body, argv=(), setup=None):
    """Run ``body(ctx)`` as a program; returns (result, machine)."""
    recorder = type("R", (Recorder,), {"body": staticmethod(body),
                                       "result": None, "name": "recorder"})
    machine = Machine.build()
    if setup is not None:
        setup(machine)
    machine.register(recorder)
    proc = machine.run_program("recorder", argv)
    assert proc.exit_code == 0, machine.kernel.console.text_of(proc.pid)
    return recorder.result, machine


class TestIdentity:
    def test_getpid_getppid(self):
        def body(ctx):
            pid = yield ctx.getpid()
            ppid = yield ctx.getppid()
            return pid, ppid
        (pid, ppid), __ = run_body(body)
        assert pid == 1 and ppid == 0

    def test_unknown_syscall_enosys(self):
        def body(ctx):
            result = yield uapi.SyscallOp(uapi.Syscall(31) if False else 999, ())
            return result
        # Syscall numbers outside the enum can't be constructed; use a
        # raw op with an unregistered value instead.
        def body2(ctx):
            op = uapi.SyscallOp.__new__(uapi.SyscallOp)
            op.number, op.args, op.extra = 999, (), None
            result = yield op
            return result
        result, __ = run_body(body2)
        assert result == -uapi.ENOSYS


class TestFileSyscalls:
    def test_open_missing_enoent(self):
        def body(ctx):
            fd = yield from ctx.open_path("/missing", uapi.O_RDONLY)
            return fd
        fd, __ = run_body(body)
        assert fd == -uapi.ENOENT

    def test_open_creat_write_read(self):
        def body(ctx):
            fd = yield from ctx.open_path("/f", uapi.O_CREAT | uapi.O_RDWR)
            yield from ctx.write_bytes(fd, b"payload")
            yield ctx.lseek(fd, 0, uapi.SEEK_SET)
            data = yield from ctx.read_bytes(fd, 64)
            yield ctx.close(fd)
            return data
        data, __ = run_body(body)
        assert data == b"payload"

    def test_append_flag(self):
        def body(ctx):
            fd = yield from ctx.open_path("/a", uapi.O_CREAT | uapi.O_WRONLY)
            yield from ctx.write_bytes(fd, b"one")
            yield ctx.close(fd)
            fd = yield from ctx.open_path("/a", uapi.O_WRONLY | uapi.O_APPEND)
            yield from ctx.write_bytes(fd, b"two")
            yield ctx.close(fd)
            fd = yield from ctx.open_path("/a", uapi.O_RDONLY)
            data = yield from ctx.read_bytes(fd, 64)
            return data
        data, __ = run_body(body)
        assert data == b"onetwo"

    def test_trunc_flag(self):
        def body(ctx):
            fd = yield from ctx.open_path("/t", uapi.O_CREAT | uapi.O_RDWR)
            yield from ctx.write_bytes(fd, b"old contents")
            yield ctx.close(fd)
            fd = yield from ctx.open_path("/t", uapi.O_RDWR | uapi.O_TRUNC)
            st = yield ctx.fstat(fd)
            return st
        (itype, size, __), __m = run_body(body)
        assert size == 0

    def test_write_to_readonly_fd(self):
        def body(ctx):
            fd = yield from ctx.open_path("/r", uapi.O_CREAT | uapi.O_RDWR)
            yield ctx.close(fd)
            fd = yield from ctx.open_path("/r", uapi.O_RDONLY)
            buf = ctx.scratch(4)
            result = yield ctx.write(fd, buf, 4)
            return result
        result, __ = run_body(body)
        assert result == -uapi.EACCES

    def test_bad_fd(self):
        def body(ctx):
            buf = ctx.scratch(4)
            r1 = yield ctx.read(99, buf, 4)
            r2 = yield ctx.write(99, buf, 4)
            r3 = yield ctx.close(99)
            return r1, r2, r3
        (r1, r2, r3), __ = run_body(body)
        assert (r1, r2, r3) == (-uapi.EBADF, -uapi.EBADF, -uapi.EBADF)

    def test_lseek_whences(self):
        def body(ctx):
            fd = yield from ctx.open_path("/s", uapi.O_CREAT | uapi.O_RDWR)
            yield from ctx.write_bytes(fd, b"0123456789")
            a = yield ctx.lseek(fd, 2, uapi.SEEK_SET)
            b = yield ctx.lseek(fd, 3, uapi.SEEK_CUR)
            c = yield ctx.lseek(fd, -1, uapi.SEEK_END)
            d = yield ctx.lseek(fd, -100, uapi.SEEK_SET)
            return a, b, c, d
        (a, b, c, d), __ = run_body(body)
        assert (a, b, c, d) == (2, 5, 9, -uapi.EINVAL)

    def test_stat_and_fstat_agree(self):
        def body(ctx):
            fd = yield from ctx.open_path("/st", uapi.O_CREAT | uapi.O_RDWR)
            yield from ctx.write_bytes(fd, b"xyz")
            fstat = yield ctx.fstat(fd)
            vaddr, length = yield from ctx.put_string("/st")
            stat = yield ctx.stat(vaddr, length)
            return fstat, stat
        (fstat, stat), __ = run_body(body)
        assert fstat == stat
        assert stat[0] == uapi.S_IFREG and stat[1] == 3

    def test_mkdir_readdir_unlink(self):
        def body(ctx):
            yield from ctx.open_path("/top.txt", uapi.O_CREAT | uapi.O_RDWR)
            vaddr, length = yield from ctx.put_string("/sub")
            yield ctx.mkdir(vaddr, length)
            root, root_len = yield from ctx.put_string("/")
            buf = ctx.scratch(256)
            count = yield ctx.readdir(root, root_len, buf, 256)
            listing = yield ctx.load(buf, count)
            f, f_len = yield from ctx.put_string("/top.txt")
            yield ctx.unlink(f, f_len)
            count2 = yield ctx.readdir(root, root_len, buf, 256)
            listing2 = yield ctx.load(buf, count2)
            return listing, listing2
        (listing, listing2), __ = run_body(body)
        assert b"top.txt" in listing and b"sub" in listing
        assert b"top.txt" not in listing2

    def test_dup2(self):
        def body(ctx):
            fd = yield from ctx.open_path("/d", uapi.O_CREAT | uapi.O_RDWR)
            new = yield ctx.dup2(fd, 17)
            yield from ctx.write_bytes(17, b"via dup")
            yield ctx.close(fd)
            # fd 17 still works: shared description survived.
            yield ctx.lseek(17, 0, uapi.SEEK_SET)
            data = yield from ctx.read_bytes(17, 16)
            return new, data
        (new, data), __ = run_body(body)
        assert new == 17 and data == b"via dup"

    def test_write_to_dev_null(self):
        def body(ctx):
            fd = yield from ctx.open_path("/dev/null", uapi.O_WRONLY)
            count = yield from ctx.write_bytes(fd, b"discard")
            got = yield from ctx.read_bytes(fd, 4)
            return count, got
        (count, got), __ = run_body(body)
        assert count == 7 and got == b""


class TestMemorySyscalls:
    def test_brk_grow_touch_shrink(self):
        def body(ctx):
            base = yield ctx.brk(0)
            yield ctx.brk(base + 3 * PAGE_SIZE)
            yield ctx.store(base + 2 * PAGE_SIZE, b"heap!")
            data = yield ctx.load(base + 2 * PAGE_SIZE, 5)
            yield ctx.brk(base + PAGE_SIZE)
            now = yield ctx.brk(0)
            return base, data, now
        (base, data, now), machine = run_body(body)
        assert data == b"heap!"
        assert now == base + PAGE_SIZE

    def test_brk_below_heap_base_rejected(self):
        def body(ctx):
            result = yield ctx.brk(4096)
            return result
        result, __ = run_body(body)
        assert result == -uapi.EINVAL

    def test_mmap_anon_zeroed_and_usable(self):
        def body(ctx):
            vaddr = yield ctx.mmap(2 * PAGE_SIZE,
                                   uapi.PROT_READ | uapi.PROT_WRITE,
                                   uapi.MAP_ANON)
            zeros = yield ctx.load(vaddr + 100, 8)
            yield ctx.store(vaddr, b"mapped")
            data = yield ctx.load(vaddr, 6)
            result = yield ctx.munmap(vaddr, 2 * PAGE_SIZE)
            return zeros, data, result
        (zeros, data, result), __ = run_body(body)
        assert zeros == bytes(8) and data == b"mapped" and result == 0

    def test_munmap_unknown_einval(self):
        def body(ctx):
            result = yield ctx.munmap(0x40000000, PAGE_SIZE)
            return result
        result, __ = run_body(body)
        assert result == -uapi.EINVAL

    def test_mmap_file_shared_visible_through_fs(self):
        def body(ctx):
            fd = yield from ctx.open_path("/m", uapi.O_CREAT | uapi.O_RDWR)
            yield ctx.truncate(fd, PAGE_SIZE)
            vaddr = yield ctx.mmap(PAGE_SIZE,
                                   uapi.PROT_READ | uapi.PROT_WRITE,
                                   uapi.MAP_SHARED, fd, 0)
            yield ctx.store(vaddr, b"through the mapping")
            data = yield from (ctx.read_bytes(fd, 19))
            return data
        data, __ = run_body(body)
        assert data == b"through the mapping"

    def test_access_beyond_vmas_is_segv(self):
        class Crasher(Program):
            name = "crasher"

            def main(self, ctx):
                yield ctx.store(0x7000_0000, b"x")  # hole in the layout
                return 0

        machine = Machine.build()
        machine.register(Crasher)
        proc = machine.spawn("crasher")
        machine.run()
        assert proc.exit_code == 128 + uapi.SIGSEGV


class TestTimeAndSleep:
    def test_gettime_monotonic(self):
        def body(ctx):
            t1 = yield ctx.gettime()
            yield ctx.alu(500)
            t2 = yield ctx.gettime()
            return t1, t2
        (t1, t2), __ = run_body(body)
        assert t2 >= t1 + 500

    def test_nanosleep_advances_virtual_time(self):
        def body(ctx):
            t1 = yield ctx.gettime()
            yield uapi.SyscallOp(uapi.Syscall.NANOSLEEP, (50_000,))
            t2 = yield ctx.gettime()
            return t1, t2
        (t1, t2), __ = run_body(body)
        assert t2 - t1 >= 50_000

    def test_killed_sleeper_does_not_hold_the_clock(self):
        """Regression: a sleeper killed before its deadline left the
        sleep list, so the idle machine charged ``sched`` cycles up to
        a dead process's wake-up time."""
        def sleeper(ctx):
            yield ctx.nanosleep(10_000_000)
            return 0

        def body(ctx):
            pid = yield ctx.fork(sleeper)
            yield ctx.sched_yield()         # the child goes to sleep
            yield ctx.kill(pid, uapi.SIGKILL)
            yield ctx.waitpid(pid)
            return pid
        __, machine = run_body(body)
        assert machine.cycles.total < 1_000_000
