"""Process lifecycle: fork, exec, wait, kill, and signal delivery."""

import pytest

from repro.apps.program import Program
from repro.guestos import layout, uapi
from repro.machine import Machine


def run_prog(program_cls, argv=(), extra_programs=()):
    machine = Machine.build()
    machine.register(program_cls)
    for extra in extra_programs:
        machine.register(extra)
    proc = machine.run_program(program_cls.name, argv)
    return proc, machine


class TestForkWait:
    def test_fork_returns_child_pid_and_wait_reaps(self):
        class P(Program):
            name = "p"

            def child(self, ctx):
                return 7
                yield

            def main(self, ctx):
                pid = yield ctx.fork(self.child)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{pid},{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == "2,(2, 7)"

    def test_child_memory_is_a_copy(self):
        class P(Program):
            name = "p"

            def child(self, ctx, addr):
                yield ctx.store(addr, b"CHILD")
                return 0

            def main(self, ctx):
                addr = ctx.scratch(16)
                yield ctx.store(addr, b"PARNT")
                pid = yield ctx.fork(self.child, addr)
                yield ctx.waitpid(pid)
                data = yield ctx.load(addr, 5)
                yield from ctx.print(data.decode() + "\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == "PARNT"

    def test_fork_child_cannot_store_to_read_only_code(self):
        # The eager copy maps each child page writable, writes it, then
        # drops write permission for read-only VMAs: the copy's
        # writable TLB entry must not outlive that protect.
        class P(Program):
            name = "p"

            def child(self, ctx):
                yield ctx.store(layout.CODE_BASE, b"X")
                return 0

            def main(self, ctx):
                yield ctx.load(layout.CODE_BASE, 1)
                pid = yield ctx.fork(self.child)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{pid},{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == f"2,(2, {128 + uapi.SIGSEGV})"

    def test_wait_with_no_children_echild(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                result = yield ctx.waitpid(-1)
                yield from ctx.print(f"{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == str(-uapi.ECHILD)

    def test_wait_blocks_until_child_exits(self):
        class P(Program):
            name = "p"

            def child(self, ctx):
                yield ctx.alu(500_000)  # longer than a timeslice
                return 3

            def main(self, ctx):
                pid = yield ctx.fork(self.child)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{result[1]}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == "3"

    def test_nested_forks(self):
        class P(Program):
            name = "p"

            def grandchild(self, ctx):
                return 11
                yield

            def child(self, ctx):
                pid = yield ctx.fork(self.grandchild)
                result = yield ctx.waitpid(pid)
                return result[1]

            def main(self, ctx):
                pid = yield ctx.fork(self.child)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{result[1]}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == "11"


class TestExec:
    def test_exec_replaces_image(self):
        class Target(Program):
            name = "target"

            def main(self, ctx):
                yield from ctx.print("target ran\n")
                return 5

        class P(Program):
            name = "p"

            def child(self, ctx, vaddr, length):
                yield ctx.exec(vaddr, length)
                return 127

            def main(self, ctx):
                vaddr, length = yield from ctx.put_string("/bin/target")
                pid = yield ctx.fork(self.child, vaddr, length)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"code={result[1]}\n")
                return 0

        proc, machine = run_prog(P, extra_programs=(Target,))
        assert "code=5" in proc.text
        # The child's console shows the exec'd program's output.
        assert machine.kernel.console.text_of(proc.pid + 1) == "target ran\n"

    def test_exec_missing_program_enoent(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                vaddr, length = yield from ctx.put_string("/bin/ghost")
                result = yield ctx.exec(vaddr, length)
                yield from ctx.print(f"{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == str(-uapi.ENOENT)


class TestSignals:
    def test_kill_default_fatal(self):
        class P(Program):
            name = "p"

            def child(self, ctx):
                for __ in range(1000):
                    yield ctx.sched_yield()
                return 0

            def main(self, ctx):
                pid = yield ctx.fork(self.child)
                yield ctx.kill(pid, uapi.SIGTERM)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{result[1]}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == str(128 + uapi.SIGTERM)

    def test_handled_signal_runs_handler(self):
        class P(Program):
            name = "p"
            hits = 0

            def signal_handler(self, ctx, sig):
                type(self).hits += 1
                yield from ctx.print(f"sig{sig}\n")

            def main(self, ctx):
                yield ctx.sigaction(uapi.SIGUSR1, 2)
                yield ctx.kill(ctx.pid, uapi.SIGUSR1)
                yield ctx.sched_yield()
                yield from ctx.print("resumed\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text == f"sig{uapi.SIGUSR1}\nresumed\n"
        assert P.hits == 1

    def test_sig_ign(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                yield ctx.sigaction(uapi.SIGTERM, uapi.SIG_IGN)
                yield ctx.kill(ctx.pid, uapi.SIGTERM)
                yield ctx.sched_yield()
                yield from ctx.print("survived\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == "survived"

    def test_sigkill_cannot_be_handled(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                result = yield ctx.sigaction(uapi.SIGKILL, 2)
                yield from ctx.print(f"{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == str(-uapi.EINVAL)

    def test_signal_mask_defers_delivery(self):
        class P(Program):
            name = "p"

            def signal_handler(self, ctx, sig):
                yield from ctx.print("handled\n")

            def main(self, ctx):
                yield ctx.sigaction(uapi.SIGUSR1, 2)
                yield ctx.syscall(uapi.Syscall.SIGPROCMASK, uapi.SIGUSR1, 1)
                yield ctx.kill(ctx.pid, uapi.SIGUSR1)
                yield ctx.sched_yield()
                yield from ctx.print("masked\n")
                yield ctx.syscall(uapi.Syscall.SIGPROCMASK, uapi.SIGUSR1, 0)
                yield ctx.sched_yield()
                yield from ctx.print("done\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text == "masked\nhandled\ndone\n"

    def test_kill_missing_process_esrch(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                result = yield ctx.kill(999, uapi.SIGTERM)
                yield from ctx.print(f"{result}\n")
                return 0

        proc, __ = run_prog(P)
        assert proc.text.strip() == str(-uapi.ESRCH)

    def test_sigpipe_on_write_to_closed_pipe(self):
        class P(Program):
            name = "p"

            def main(self, ctx):
                rfd, wfd = yield ctx.pipe()
                yield ctx.close(rfd)
                buf = ctx.scratch(4)
                result = yield ctx.write(wfd, buf, 4)
                # Unreachable if SIGPIPE killed us first, but the
                # syscall itself reports EPIPE.
                yield from ctx.print(f"{result}\n")
                return 0

        machine = Machine.build()
        machine.register(P)
        proc = machine.spawn("p")
        machine.run()
        assert proc.exit_code == 128 + uapi.SIGPIPE


class TestProcessAsid:
    """``Process.asid`` is a plain copy of ``aspace.asid``; every
    world switch must still enter the live address space."""

    def test_asid_follows_the_address_space(self):
        class Target(Program):
            name = "target"

            def main(self, ctx):
                yield ctx.alu(10)
                return 0

        class P(Program):
            name = "p"

            def worker(self, ctx):
                yield ctx.alu(10)
                return 0

            def child(self, ctx, vaddr, length):
                yield ctx.alu(10)
                yield ctx.exec(vaddr, length)
                return 127

            def main(self, ctx):
                tid = yield ctx.thread_create(self.worker)
                yield ctx.thread_join(tid)
                vaddr, length = yield from ctx.put_string("/bin/target")
                pid = yield ctx.fork(self.child, vaddr, length)
                yield ctx.waitpid(pid)
                return 0

        machine = Machine.build()
        machine.register(P)
        machine.register(Target)
        kernel = machine.kernel
        entered = {}
        enter_user = machine.vmm.enter_user

        def checked_enter_user(pid, asid):
            proc = kernel.processes[pid]
            assert proc.asid == proc.aspace.asid == asid, (pid, proc.name)
            entered.setdefault(pid, []).append(
                (proc.name, proc.is_thread, asid))
            return enter_user(pid, asid)

        machine.vmm.enter_user = checked_enter_user
        proc = machine.run_program("p")
        assert proc.exit_code == 0
        leader = {asid for __, __t, asid in entered[proc.pid]}
        (thread,) = [runs for runs in entered.values() if runs[0][1]]
        (child,) = [runs for runs in entered.values()
                    if runs[-1][0] == "target"]
        # Spawn, thread spawn, fork and exec: the thread shares the
        # leader's address space, the forked child has its own, and
        # exec gives the child a new one.
        assert {asid for __, __t, asid in thread} == leader
        assert child[0][0] == "p" and child[0][2] not in leader
        assert child[-1][2] != child[0][2]
