"""Cloaked-process lifecycle on the full machine: what the OS sees
during fork, exec, exit, swaps, and file persistence."""

import pytest

from repro.apps.program import Program
from repro.bench.runner import fresh_machine, measure_program
from repro.core.hypercall import Hypercall
from repro.guestos import uapi
from repro.hw.mmu import MODE_KERNEL, SYSTEM_VIEW
from repro.hw.params import PAGE_SIZE
from repro.machine import Machine


SECRET = b"lifecycle-secret-0123456789abcdef"


class SecretKeeper(Program):
    name = "keeper"

    def __init__(self):
        self.secret_vaddr = None

    def main(self, ctx):
        self.secret_vaddr = ctx.scratch(PAGE_SIZE)
        yield ctx.store(self.secret_vaddr, SECRET)
        yield from ctx.print("placed\n")
        yield ctx.sched_yield()
        data = yield ctx.load(self.secret_vaddr, len(SECRET))
        yield from ctx.print("ok\n" if data == SECRET else "bad\n")
        return 0


def kernel_view(machine, proc, vaddr, nbytes):
    machine.mmu.set_context(proc.asid, SYSTEM_VIEW, MODE_KERNEL)
    return machine.mmu.read(vaddr, nbytes)


class TestMemoryViews:
    def test_kernel_sees_ciphertext_app_sees_plaintext(self):
        machine = Machine.build()
        machine.register(SecretKeeper, cloaked=True)
        proc = machine.spawn("keeper")
        machine.run_until_output(proc.pid, b"placed\n")
        vaddr = proc.runtime.program.secret_vaddr
        observed = kernel_view(machine, proc, vaddr, len(SECRET))
        assert observed != SECRET
        machine.run()
        assert "ok" in machine.kernel.console.text_of(proc.pid)
        assert not machine.violations

    def test_native_baseline_leaks(self):
        machine = Machine.build()
        machine.register(SecretKeeper, cloaked=False)
        proc = machine.spawn("keeper")
        machine.run_until_output(proc.pid, b"placed\n")
        vaddr = proc.runtime.program.secret_vaddr
        assert kernel_view(machine, proc, vaddr, len(SECRET)) == SECRET

    def test_exit_leaves_no_plaintext_in_memory(self):
        """After a cloaked process dies, the secret must not exist
        anywhere in physical memory (teardown scrubbing)."""
        machine = Machine.build()
        machine.register(SecretKeeper, cloaked=True)
        result = machine.run_program("keeper")
        assert "ok" in result.text
        assert machine.phys.frames_containing(SECRET) == []

    def test_native_exit_leaves_plaintext_behind(self):
        """The baseline leaks via freed frames — cloaking's scrubbing
        is not a no-op."""
        machine = Machine.build()
        machine.register(SecretKeeper, cloaked=False)
        machine.run_program("keeper")
        assert len(machine.phys.frames_containing(SECRET)) > 0


class TestForkSemantics:
    class ForkSecret(Program):
        name = "forksecret"

        def child(self, ctx, vaddr):
            data = yield ctx.load(vaddr, len(SECRET))
            yield from ctx.print("child-ok\n" if data == SECRET else "child-bad\n")
            return 0

        def main(self, ctx):
            vaddr = ctx.scratch(PAGE_SIZE)
            yield ctx.store(vaddr, SECRET)
            pid = yield ctx.fork(self.child, vaddr)
            yield ctx.waitpid(pid)
            data = yield ctx.load(vaddr, len(SECRET))
            yield from ctx.print("parent-ok\n" if data == SECRET else "parent-bad\n")
            return 0

    def test_cloaked_fork_inherits_secrets_privately(self):
        machine = Machine.build()
        machine.register(self.ForkSecret, cloaked=True)
        proc = machine.run_program("forksecret")
        assert "parent-ok" in proc.text
        child_out = machine.kernel.console.text_of(proc.pid + 1)
        assert "child-ok" in child_out
        assert not machine.violations

    def test_fork_copies_are_ciphertext_in_transit(self):
        """The kernel's copy loop observed only ciphertext: at least
        one encrypt per hot parent page."""
        machine = Machine.build()
        machine.register(self.ForkSecret, cloaked=True)
        machine.run_program("forksecret")
        assert machine.stats.get("cloak.encrypts") >= 1
        assert machine.stats.get("vmm.domain_forks") == 1

    def test_parent_and_child_pages_diverge(self):
        class Diverge(Program):
            name = "diverge"

            def child(self, ctx, vaddr):
                yield ctx.store(vaddr, b"CHILD-VALUE")
                data = yield ctx.load(vaddr, 11)
                yield from ctx.print(data.decode() + "\n")
                return 0

            def main(self, ctx):
                vaddr = ctx.scratch(PAGE_SIZE)
                yield ctx.store(vaddr, b"PARNT-VALUE")
                pid = yield ctx.fork(self.child, vaddr)
                yield ctx.waitpid(pid)
                data = yield ctx.load(vaddr, 11)
                yield from ctx.print(data.decode() + "\n")
                return 0

        machine = Machine.build()
        machine.register(Diverge, cloaked=True)
        proc = machine.run_program("diverge")
        assert proc.text.strip() == "PARNT-VALUE"
        assert machine.kernel.console.text_of(proc.pid + 1).strip() == "CHILD-VALUE"


class TestExecSemantics:
    def test_cloaked_exec_creates_fresh_domain(self):
        class Execer(Program):
            name = "execer"

            def child(self, ctx, vaddr, length):
                yield ctx.exec(vaddr, length)
                return 127

            def main(self, ctx):
                vaddr, length = yield from ctx.put_string("/bin/keeper")
                pid = yield ctx.fork(self.child, vaddr, length)
                result = yield ctx.waitpid(pid)
                yield from ctx.print(f"{result[1]}\n")
                return 0

        machine = Machine.build()
        machine.register(Execer, cloaked=True)
        machine.register(SecretKeeper, cloaked=True)
        proc = machine.run_program("execer")
        assert proc.text.strip() == "0"
        # Exec'd image verified and adopted under a new domain.
        assert machine.stats.get("vmm.images_adopted") >= 2
        assert not machine.violations


class TestSwapAndPersistence:
    def test_kernel_page_eviction_roundtrip(self):
        """The kernel swaps a cloaked page to disk and back between
        two accesses; the app never notices."""

        class Swappy(Program):
            name = "swappy"

            def __init__(self):
                self.vaddr = None

            def main(self, ctx):
                self.vaddr = ctx.scratch(PAGE_SIZE)
                yield ctx.store(self.vaddr, SECRET)
                yield from ctx.print("stored\n")
                yield ctx.sched_yield()
                data = yield ctx.load(self.vaddr, len(SECRET))
                yield from ctx.print("ok\n" if data == SECRET else "bad\n")
                return 0

        machine = Machine.build()
        machine.register(Swappy, cloaked=True)
        proc = machine.spawn("swappy")
        machine.run_until_output(proc.pid, b"stored\n")

        # Kernel-role page-out / page-in to a new frame via DMA.
        vaddr = proc.runtime.program.vaddr
        vpn = vaddr >> 12
        old_pfn = proc.aspace.frame_of(vpn)
        contents = machine.dma.read_frame(old_pfn)       # encrypts first
        machine.disk.write_block(100, contents)
        new_pfn = machine.alloc.alloc()
        machine.dma.write_frame(new_pfn, machine.disk.read_block(100))
        proc.aspace.map_page(vpn, new_pfn, writable=True)
        machine.phys.zero_frame(old_pfn)
        machine.alloc.free(old_pfn)

        machine.run()
        assert "ok" in machine.kernel.console.text_of(proc.pid)
        assert not machine.violations

    def test_protected_file_survives_eviction_and_reopen(self):
        machine = fresh_machine(cloaked=True, programs=("filestreamer",))
        args = ("/secure/p.bin", "4096", str(32 * 1024))
        measure_program(machine, "filestreamer", ("write",) + args)
        inode = machine.kernel.vfs.resolve("/secure/p.bin")
        machine.kernel.fs.evict(inode)
        result = measure_program(machine, "filestreamer", ("read",) + args)
        assert "read 32768" in result.text
        assert not machine.violations

    def test_disk_holds_only_ciphertext(self):
        machine = fresh_machine(cloaked=True, programs=("filestreamer",))
        pattern_args = ("/secure/p.bin", "4096", str(16 * 1024))
        measure_program(machine, "filestreamer", ("write",) + pattern_args)
        inode = machine.kernel.vfs.resolve("/secure/p.bin")
        machine.kernel.fs.writeback(inode)
        from repro.apps.fileio import SequentialWrite  # pattern source
        import hashlib

        expected = (hashlib.sha256(b"/secure/p.bin").digest() * 129)[:4096]
        for page_index in inode.pages:
            lba = machine.kernel.cache.block_of(inode.inode_id, page_index)
            if lba is not None:
                assert expected[:32] not in machine.disk.read_block(lba)


class TestIdentityEnforcement:
    def test_trojaned_image_rejected_at_adopt(self):
        """The kernel loader substitutes the program image; ADOPT_IMAGE
        must refuse and the process dies with a violation."""
        machine = Machine.build()
        machine.register(SecretKeeper, cloaked=True)
        proc = machine.spawn("keeper")

        # Malicious loader: corrupt the code pages post-load, pre-run.
        from repro.guestos import layout

        code_vpn = layout.vpn_of(layout.CODE_BASE)
        pfn = proc.aspace.frame_of(code_vpn)
        machine.phys.write(pfn, 0, b"TROJAN")

        machine.run()
        assert machine.violations
        assert proc.exit_code == 139
