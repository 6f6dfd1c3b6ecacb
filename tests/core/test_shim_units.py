"""Unit tests for shim components: marshal arena, protocol table, and
the shim's op-stream shape (no machine involved)."""

import pytest

from repro.apps.compute import MatMul
from repro.core.hypercall import Hypercall
from repro.apps.program import NativeRuntime
from repro.core.shim import MarshalArena, ShimRuntime, SyscallClass, classify
from repro.core.shim.protocol import _CLASSIFICATION
from repro.guestos import layout, uapi
from repro.guestos.uapi import HypercallOp, Syscall, SyscallOp


class TestMarshalArena:
    def test_alloc_within_region(self):
        arena = MarshalArena()
        vaddr = arena.alloc(100)
        assert layout.MARSHAL_BASE <= vaddr < layout.MARSHAL_BASE + arena.size

    def test_alloc_aligned(self):
        arena = MarshalArena()
        arena.alloc(3)
        assert arena.alloc(3) % 16 == 0

    def test_wraps_instead_of_exhausting(self):
        arena = MarshalArena(pages=1)
        first = arena.alloc(4000)
        wrapped = arena.alloc(200)
        assert wrapped == first  # rotated back to the base

    def test_oversized_allocation_rejected(self):
        arena = MarshalArena(pages=1)
        with pytest.raises(MemoryError):
            arena.alloc(4097)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MarshalArena().alloc(-1)

    def test_chunk_limit(self):
        arena = MarshalArena(pages=2)
        assert arena.chunk_limit == 2 * 4096


class TestProtocolTable:
    def test_key_classifications(self):
        assert classify(Syscall.GETPID) is SyscallClass.PASS_THROUGH
        assert classify(Syscall.OPEN) is SyscallClass.MARSHALLED
        assert classify(Syscall.READ) is SyscallClass.EMULATED_IO
        assert classify(Syscall.FORK) is SyscallClass.SPECIAL
        assert classify(Syscall.EXIT) is SyscallClass.SPECIAL

    def test_every_syscall_classified(self):
        for number in Syscall:
            assert classify(number) is not None

    def test_adapter_table_is_the_adaptation_inventory(self):
        """The shim adapts exactly the syscalls the protocol table says
        need adapting; FORK is SPECIAL but forwarded (the VMM observes
        it architecturally and clones the domain)."""
        adapted = set(ShimRuntime._ADAPTERS)
        for number in adapted:
            assert classify(number) is not SyscallClass.PASS_THROUGH, number
        needing = {number for number, adaptation in _CLASSIFICATION.items()
                   if adaptation is not SyscallClass.PASS_THROUGH}
        assert needing - adapted == {Syscall.FORK}
        assert classify(Syscall.FORK) is SyscallClass.SPECIAL

    def test_native_runtime_adapts_nothing(self):
        assert NativeRuntime._ADAPTERS == {}


class FakeProgram(MatMul):
    """Tiny program: one getpid, one print-free exit."""

    name = "fake"

    def main(self, ctx):
        yield ctx.getpid()
        return 0


def drain_boot_ops(runtime, pid=5):
    """Start a shim and collect ops until the first real syscall."""
    runtime.start(pid)
    ops = []
    result = None
    while True:
        op = runtime.next_op(result)
        ops.append(op)
        if isinstance(op, HypercallOp):
            result = 1  # pretend-domain id / success
        elif isinstance(op, SyscallOp):
            break
        else:
            result = None
    return ops


class TestShimBootSequence:
    def test_boot_order(self):
        runtime = ShimRuntime(FakeProgram(), (), "fake", b"image")
        ops = drain_boot_ops(runtime)
        hyper = [op.number for op in ops if isinstance(op, HypercallOp)]
        assert hyper[0] is Hypercall.CLOAK_INIT
        assert hyper.count(Hypercall.CLOAK_RANGE) == 4  # code/data/heap/stack
        assert Hypercall.ADOPT_IMAGE in hyper
        assert Hypercall.REGISTER_ENTRY in hyper
        # ADOPT_IMAGE comes after the code range is cloaked.
        assert hyper.index(Hypercall.ADOPT_IMAGE) > 1
        # The first non-hypercall op is the program's own syscall.
        assert isinstance(ops[-1], SyscallOp)
        assert ops[-1].number == Syscall.GETPID

    def test_cloak_init_carries_identity(self):
        runtime = ShimRuntime(FakeProgram(), (), "fake", b"image-bytes")
        ops = drain_boot_ops(runtime)
        init = next(op for op in ops if isinstance(op, HypercallOp)
                    and op.number is Hypercall.CLOAK_INIT)
        name, image, pid = init.args
        assert name == "fake" and image == b"image-bytes" and pid == 5

    def test_shutdown_emits_domain_exit_before_kernel_exit(self):
        runtime = ShimRuntime(FakeProgram(), (), "fake", b"image")
        runtime.start(5)
        seq = []
        result = None
        while True:
            op = runtime.next_op(result)
            if op is None:
                break
            seq.append(op)
            if isinstance(op, HypercallOp):
                result = 1
            elif isinstance(op, SyscallOp):
                result = 5  # getpid result / exit ignored
            else:
                result = None
        kinds = [
            (op.number if isinstance(op, (HypercallOp, SyscallOp)) else type(op))
            for op in seq
        ]
        exit_at = kinds.index(Syscall.EXIT)
        domain_exit_at = kinds.index(Hypercall.DOMAIN_EXIT)
        assert domain_exit_at < exit_at

    def test_provides_cloaking_flag(self):
        runtime = ShimRuntime(FakeProgram(), (), "fake", b"image")
        assert runtime.provides_cloaking
