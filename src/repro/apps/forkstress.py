"""Fork/exec-heavy workloads (R-F4): a compile-farm-like job mix.

Process creation is cloaking's worst case — every parent page crosses
the encrypt path during the kernel's address-space copy — so this is
where the paper's largest slowdowns appear.
"""

from repro.apps.program import Program, UserContext


class ForkStress(Program):
    """Fork ``jobs`` children; each does a small unit of work in its
    (copied) address space and exits.

    argv: (jobs, work_units)
    """

    name = "forkstress"

    def job(self, ctx: UserContext, index: int, work_units: int):
        scratch = ctx.scratch(4096)
        yield ctx.store(scratch, bytes([index & 0xFF]) * 512)
        yield ctx.alu(work_units)
        data = yield ctx.load(scratch, 512)
        return 0 if data == bytes([index & 0xFF]) * 512 else 1

    def main(self, ctx: UserContext):
        jobs = int(ctx.argv[0]) if len(ctx.argv) > 0 else 6
        work_units = int(ctx.argv[1]) if len(ctx.argv) > 1 else 20_000

        # Touch a working set first: these pages are what fork copies.
        working_set = ctx.scratch(16 * 4096)
        for page in range(16):
            yield ctx.store(working_set + page * 4096, b"W" * 64)

        failures = 0
        for index in range(jobs):
            pid = yield ctx.fork(self.job, index, work_units)
            result = yield ctx.waitpid(pid)
            if not isinstance(result, tuple) or result[1] != 0:
                failures += 1
        yield from ctx.print(f"forkstress {jobs - failures}/{jobs}\n")
        return 0 if failures == 0 else 1


class CompileFarm(Program):
    """fork + exec of a 'compiler' (a compute kernel) per source file,
    like a `make -j1` sweep.

    argv: (jobs,)
    """

    name = "compilefarm"

    #: The program exec'd per job; must be registered on the machine.
    compiler = "rle"

    def job(self, ctx: UserContext, path_vaddr: int, path_len: int):
        yield ctx.exec(path_vaddr, path_len)
        return 127  # exec failed

    def main(self, ctx: UserContext):
        jobs = int(ctx.argv[0]) if ctx.argv else 4
        path_vaddr, path_len = yield from ctx.put_string(
            f"/bin/{self.compiler}"
        )
        failures = 0
        for __ in range(jobs):
            pid = yield ctx.fork(self.job, path_vaddr, path_len)
            result = yield ctx.waitpid(pid)
            if not isinstance(result, tuple) or result[1] != 0:
                failures += 1
        yield from ctx.print(f"compilefarm {jobs - failures}/{jobs}\n")
        return 0 if failures == 0 else 1
